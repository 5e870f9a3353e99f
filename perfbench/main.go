// Command perfbench is msrnet's end-to-end and per-layer benchmark. One
// invocation runs one workload on a fixed, seed-generated job list and
// prints a human-readable report followed, as its last line, by one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//	solve-table4    core.Optimize in-process on the paper's Table IV nets
//	serve-optimize  msrnetd -wal-dir, mode "both", distinct 10-pin jobs
//	serve-ard       msrnetd with default flags, mode "ard", 16-pin jobs
//
// An untraced run (-trace 0) reports the end-to-end metrics. A traced
// run (-trace 1) reports the per-layer metrics: it re-runs the
// workload's list with spans recorded around every call into the
// program and probes every layer (core, pwl, ard, netio, service,
// jobstore, obs) the same way in every workload, so each traced run
// reports the full per-layer set. Every answer is checked outside the
// timed list; a wrong answer counts as a failed job.
//
// Run it through perfbench/run.sh, which builds msrnetd and this program
// from the checkout first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the machine-readable last line of the output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's settings and accumulates its report.
type run struct {
	workload   string
	seed       int64
	seconds    int
	traced     bool
	corpusSeed int64
	msrnetd    string // built by run.sh
	root       string // checkout root (the working directory)
	dir        string // this run's scratch directory, removed at exit
	digests    *digestBook

	metrics   map[string]metric
	attempted int
	failed    int
	rejected  int
	problems  []string
}

// buildDir is where run.sh builds msrnetd and this program and where
// each run keeps its files, relative to the checkout root.
const buildDir = ".bench_build"

// digestsPath holds the committed answers, relative to the checkout root.
var digestsPath = filepath.Join("perfbench", "digests.json")

func main() {
	var (
		workload     = flag.String("workload", "", "workload to run: solve-table4, serve-optimize or serve-ard")
		seed         = flag.Int64("seed", 1, "run seed: the net name of every job and where each list starts in the cyclic corpus order")
		seconds      = flag.Int("seconds", 20, "nominal measured length of a run; sizes the fixed job list at this commit's rates")
		traceFlag    = flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics")
		corpusSeed   = flag.Int64("corpus-seed", defaultCorpusSeed, "netgen seed base of the net corpus (1 is the paper's protocol; "+fmt.Sprint(heldOutCorpusSeed)+" is held out)")
		writeDigests = flag.Bool("write-digests", false, "regenerate "+digestsPath+" from -corpus-seed and exit")
	)
	flag.Parse()
	if err := mainErr(*workload, *seed, *seconds, *traceFlag, *corpusSeed, *writeDigests); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed int64, seconds, traceFlag int, corpusSeed int64, writeDigests bool) error {
	if writeDigests {
		return generateDigests(corpusSeed, digestsPath)
	}
	wl, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown -workload %q (want %s)", workload, strings.Join(workloadNames(), ", "))
	}
	if seconds < 1 || traceFlag < 0 || traceFlag > 1 {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	book, err := loadDigests(digestsPath)
	if err != nil {
		return err
	}
	work := filepath.Join(root, buildDir)
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	r := &run{
		workload: workload, seed: seed, seconds: seconds, traced: traceFlag == 1,
		corpusSeed: corpusSeed, msrnetd: filepath.Join(work, "msrnetd"), root: root, dir: dir, digests: book,
		metrics: map[string]metric{},
	}
	r.logf("perfbench %s seed=%d seconds=%d trace=%d corpus-seed=%d", workload, seed, seconds, traceFlag, corpusSeed)
	if r.traced {
		err = r.tracedRun(wl)
	} else {
		err = wl.run(r)
	}
	if err != nil {
		return err
	}
	return r.finish()
}

// workload is one benchmark workload: run measures its fixed list
// untraced and reports the end-to-end metrics; traced re-measures the
// same list with spans for the tracing overhead and returns the
// throughputs of the untraced and traced passes.
type workload struct {
	run    func(r *run) error
	traced func(r *run, p *probes) (untraced, traced float64, err error)
}

var workloads = map[string]workload{
	"solve-table4":   {run: (*run).solveTable4, traced: (*run).solveTable4Traced},
	"serve-optimize": {run: (*run).serveOptimize, traced: (*run).serveOptimizeTraced},
	"serve-ard":      {run: (*run).serveARD, traced: (*run).serveARDTraced},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (r *run) set(name, unit string, v float64) {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		// A percentile that lands on a failed job has no finite value;
		// report the largest finite one so the JSON stays valid and the
		// metric reads as maximally bad.
		v = math.MaxFloat64
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *run) logf(format string, args ...any) {
	fmt.Printf(format+"\n", args...)
}

// problem records a failed answer check.
func (r *run) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(r.problems) < 20 {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	r.problems = append(r.problems, msg)
}

// account adds one list's job counts to the run totals and prints them.
func (r *run) account(list string, attempted, failed, rejected int) {
	r.attempted += attempted
	r.failed += failed
	r.rejected += rejected
	r.logf("  %-22s attempted=%d failed=%d rejected=%d", list, attempted, failed, rejected)
}

func (r *run) finish() error {
	r.logf("jobs: attempted=%d failed=%d rejected=%d answer-check failures=%d", r.attempted, r.failed, r.rejected, len(r.problems))
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		r.logf("  %-34s %14.6g %s", n, m.Value, m.Unit)
	}
	if r.attempted < 1 {
		return fmt.Errorf("no jobs attempted")
	}
	out, err := json.Marshal(summary{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
