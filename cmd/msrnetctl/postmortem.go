package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"msrnet/internal/bench"
	"msrnet/internal/cliflags"
	"msrnet/internal/obs/recorder"
	"msrnet/internal/spancollect"
)

// runPostmortem is `msrnetctl postmortem`: it renders a bundle written
// by msrnetd's flight recorder (schema msrnet-postmortem/v1) as a
// human-readable incident report: what triggered the capture, a
// timeline of the recorder ring around it, the biggest p99 latency
// movers, the jobs that were in flight or recently finished, and —
// given the committed bench baseline — how the DP shape of the crashed
// daemon's jobs compares to the perf observatory's numbers.
//
// The raw artifacts stay in the bundle for deeper digging:
// recorder.json (the full ring), heap.pb.gz (go tool pprof), trace.json
// (Perfetto), goroutines.txt. See DESIGN.md §11.
func runPostmortem(args []string) {
	const tool = "msrnetctl postmortem"
	fs := flag.NewFlagSet(tool, flag.ExitOnError)
	var (
		baseline = fs.String("baseline", "", "compare the bundle's DP shape against this msrnet-bench/v1 report (e.g. the committed BENCH_msrnet.json)")
		list     = fs.String("list", "", "list the bundles under this directory (newest last) instead of rendering one")
		traceID  = fs.String("trace-id", "", "with -list: only bundles whose captured span index contains this trace")
		trace    = fs.String("trace", "", "render the given trace from the bundle's spans.json as a waterfall + critical path instead of the incident report")
	)
	fs.Parse(args)

	if *list != "" {
		if err := listBundles(*list, *traceID); err != nil {
			cliflags.Fatal(tool, err)
		}
		return
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: msrnetctl postmortem [-baseline BENCH_msrnet.json] [-trace <traceID>] <bundle-dir>")
		fmt.Fprintln(os.Stderr, "       msrnetctl postmortem -list <postmortem-dir> [-trace-id <traceID>]")
		os.Exit(2)
	}

	b, err := recorder.LoadBundle(fs.Arg(0))
	if err != nil {
		cliflags.Fatal(tool, err)
	}
	if *trace != "" {
		if err := renderTrace(b, *trace); err != nil {
			cliflags.Fatal(tool, err)
		}
		return
	}
	base, err := loadBaseline(*baseline)
	if err != nil {
		cliflags.Fatal(tool, err)
	}
	if err := recorder.WriteReport(os.Stdout, b, dpBaseline(base)); err != nil {
		cliflags.Fatal(tool, err)
	}
}

// dpBaseline averages the msri workloads of a bench report into the
// DP shape a postmortem compares against. It is nil when there is no
// report, or when the report has no msri workload that created a
// solution.
func dpBaseline(rep *bench.Report) *recorder.Baseline {
	if rep == nil {
		return nil
	}
	var n, solutions, dropped int64
	for _, wl := range rep.Workloads {
		if strings.HasPrefix(wl.Name, "msri/") {
			n++
			solutions += wl.Counters["solutions_created"]
			dropped += wl.Counters["dropped"]
		}
	}
	if n == 0 || solutions <= 0 {
		return nil
	}
	return &recorder.Baseline{
		Suite:           rep.Suite,
		Workloads:       int(n),
		SolutionsPerNet: float64(solutions) / float64(n),
		DroppedPerNet:   float64(dropped) / float64(n),
	}
}

// renderTrace stitches one trace out of the bundle's captured span
// index (spans.json) and prints the waterfall plus critical-path
// report. A bundle holds one process's view — the cross-process picture
// needs msrnetctl -trace against the live fleet — but for a crashed
// daemon this is the view that still exists.
func renderTrace(b *recorder.Bundle, traceID string) error {
	if !b.HasSpans {
		return fmt.Errorf("bundle has no spans.json (daemon predates span tracing or captured before any traced job)")
	}
	var procs []spancollect.ProcessSpans
	for _, exp := range b.Spans.Traces {
		if exp.TraceID == traceID {
			procs = append(procs, spancollect.ProcessSpans{Process: exp.Process, Spans: exp.Spans})
		}
	}
	if len(procs) == 0 {
		return fmt.Errorf("no spans for trace %s in this bundle (evicted, or never seen by this daemon)", traceID)
	}
	st := spancollect.Stitch(traceID, procs)
	st.WriteWaterfall(os.Stdout)
	fmt.Println()
	st.CriticalPath().Write(os.Stdout)
	return nil
}

// listBundles enumerates the postmortem bundles under dir with their
// trigger, oldest first (the names embed a fixed-width timestamp, so
// lexical order is chronological). A non-empty traceID keeps only
// bundles whose captured span index saw that trace — "which postmortem
// has my slow job" without opening each one.
func listBundles(dir, traceID string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "postmortem-") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	shown := 0
	for _, name := range names {
		b, err := recorder.LoadBundle(filepath.Join(dir, name))
		if err != nil {
			if traceID == "" {
				fmt.Printf("%s  (unreadable: %v)\n", name, err)
				shown++
			}
			continue
		}
		if traceID != "" && !bundleHasTrace(b, traceID) {
			continue
		}
		shown++
		tr := b.Manifest.Trigger
		fmt.Printf("%s  trigger=%s", name, tr.Reason)
		if tr.Detail != "" {
			fmt.Printf(" (%s)", tr.Detail)
		}
		fmt.Printf("  samples=%d\n", len(b.Ring))
	}
	if shown == 0 {
		if traceID != "" {
			fmt.Printf("no bundles under %s contain trace %s\n", dir, traceID)
		} else {
			fmt.Printf("no postmortem bundles under %s\n", dir)
		}
	}
	return nil
}

// bundleHasTrace reports whether the bundle's span capture includes
// the trace.
func bundleHasTrace(b *recorder.Bundle, traceID string) bool {
	if !b.HasSpans {
		return false
	}
	for _, exp := range b.Spans.Traces {
		if exp.TraceID == traceID {
			return true
		}
	}
	return false
}
