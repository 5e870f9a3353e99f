package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"msrnet/internal/buslib"
	"msrnet/internal/core"
	"msrnet/internal/obs"
	"msrnet/internal/obs/trace"
	"msrnet/internal/solveprof"
)

// table4PassSeconds is one pass over the Table IV corpus at the commit
// that defined the benchmark, on a 2-core x86-64 box. It converts
// -seconds into a whole number of passes.
const table4PassSeconds = 6.5

// table4Warmup is how many warm-up 10-pin nets each set-up solves.
const table4Warmup = 6

func table4Passes(seconds int) int {
	return max(2, int(math.Round(float64(seconds)/table4PassSeconds)))
}

// table4Setup builds the rooted corpus and solves the warm-up list,
// setupRepeats times, and reports the median as setup_s.
func (r *run) table4Setup() ([]*baseNet, error) {
	var nets []*baseNet
	var times []float64
	for range setupRepeats {
		t0 := time.Now()
		var err error
		if nets, err = table4Corpus(r.corpusSeed); err != nil {
			return nil, err
		}
		warm, err := genNets(10, r.corpusSeed+warmSeedOffset, table4Warmup)
		if err != nil {
			return nil, err
		}
		recs, failed := r.solvePass(warm)
		times = append(times, time.Since(t0).Seconds())
		r.account(fmt.Sprintf("warm-up %d", len(times)), len(recs), failed, 0)
	}
	r.logf("  set-up %d times: %.4f s median (%v)", setupRepeats, median(times), times)
	r.set("setup_s", "s", median(times))
	return nets, nil
}

// solveRecord is one timed core.Optimize call.
type solveRecord struct {
	net     *baseNet
	ms      float64
	cpuMs   float64
	mallocs uint64
	bytes   uint64
	res     *core.Result
}

// solveVariant selects how a pass calls core.Optimize.
type solveVariant int

const (
	bare    solveVariant = iota // repeaterOptions, nothing else
	hooks                       // the daemon's Obs registry and ring tracer
	profile                     // Options.Profile on
)

func (v solveVariant) String() string {
	return [...]string{"bare", "hooks", "profile"}[v]
}

// solver calls core.Optimize one way, timing each call and checking
// each answer outside the timed interval. With spans non-nil it records
// one span per call; with allocs it reads the allocation counters
// around each call.
type solver struct {
	r      *run
	v      solveVariant
	opt    core.Options
	spans  *spanLog
	allocs bool
	calls  int
}

func (r *run) newSolver(v solveVariant, spans *spanLog, allocs bool) *solver {
	s := &solver{r: r, v: v, opt: repeaterOptions, spans: spans, allocs: allocs}
	switch v {
	case hooks:
		// As msrnetd wires every job: a shared registry and ring tracer.
		s.opt.Obs = obs.New()
		s.opt.Trace = trace.New(0)
	case profile:
		s.opt.Profile = true
	}
	return s
}

// solve times one call; a failed or wrong answer reads as +Inf ms.
func (s *solver) solve(b *baseNet) solveRecord {
	s.calls++
	if s.v == hooks {
		// Tag the job's events with its identity, as msrnetd does.
		s.opt.TraceArgs = []trace.Arg{trace.S("trace_id", b.key), trace.S("job", fmt.Sprintf("j%d", s.calls))}
	}
	// Every call starts from a collected heap, so GC debt left by the
	// previous net, which depends on the seed's order, stays out of its
	// time.
	runtime.GC()
	var m0, m1 runtime.MemStats
	var ru0, ru1 syscall.Rusage
	if s.allocs {
		runtime.ReadMemStats(&m0)
	}
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0)
	t0 := time.Now()
	res, err := core.Optimize(b.rt, buslib.Default(), s.opt)
	t1 := time.Now()
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	if s.allocs {
		runtime.ReadMemStats(&m1)
	}
	s.spans.add(0, b.key, "core.Optimize/"+s.v.String(), t0, t1)
	rec := solveRecord{net: b, ms: ms(t1.Sub(t0)), cpuMs: cpuMs(&ru0, &ru1)}
	if s.allocs {
		rec.mallocs = m1.Mallocs - m0.Mallocs
		rec.bytes = m1.TotalAlloc - m0.TotalAlloc
	}
	switch {
	case err != nil:
		s.r.problem("net %s: core.Optimize: %v", b.key, err)
		rec.ms = math.Inf(1)
	case !s.r.checkSolve(b, res):
		rec.ms = math.Inf(1)
	case s.v == profile:
		rec.res = res
	default:
		rec.res = &core.Result{Stats: res.Stats} // drop the suite early
	}
	return rec
}

// solvePass solves every net bare, in order, and counts failures.
func (r *run) solvePass(nets []*baseNet) ([]solveRecord, int) {
	s := r.newSolver(bare, nil, false)
	recs := make([]solveRecord, 0, len(nets))
	failed := 0
	for _, b := range nets {
		rec := s.solve(b)
		if rec.res == nil {
			failed++
		}
		recs = append(recs, rec)
	}
	return recs, failed
}

// checkSolve checks a Table IV answer: the suite against the committed
// digest, and every point's assignment recomputed with ard.Compute and
// Assignment.Cost.
func (r *run) checkSolve(b *baseNet, res *core.Result) bool {
	ok := r.checkSuiteDigest(b.key, coreSuiteDigest(res.Suite))
	for _, p := range res.Suite {
		if !r.recheck(b, p.Assignment(), p.Cost, p.ARD) {
			ok = false
		}
	}
	return ok
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func cpuMs(a, b *syscall.Rusage) float64 {
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(b.Utime) - tv(a.Utime) + tv(b.Stime) - tv(a.Stime)
}

// solveTable4 is the untraced solve-table4 run: whole passes over the
// Table IV corpus in seed order, one goroutine, instrumentation off.
// Throughput and CPU take each net's median over the passes, so a burst
// of machine noise during one call does not move them; latency
// percentiles are over every call. The answer checks between calls stay
// outside the timed calls.
func (r *run) solveTable4() error {
	nets, err := r.table4Setup()
	if err != nil {
		return err
	}
	passes := table4Passes(r.seconds)
	jobs := cycle(nets, passes, r.seed)
	s0, t0 := cpuSteal()
	recs, failed := r.solvePass(jobs)
	s1, t1 := cpuSteal()
	r.logf("  machine steal during the list: %.1f%%", 100*(s1-s0)/max(1, t1-t0))
	r.account("solve-table4 timed", len(jobs), failed, 0)
	var lat []float64
	times, cpus := map[*baseNet][]float64{}, map[*baseNet][]float64{}
	for _, rec := range recs {
		lat = append(lat, rec.ms)
		times[rec.net] = append(times[rec.net], rec.ms)
		cpus[rec.net] = append(cpus[rec.net], rec.cpuMs)
	}
	var wallMs, cpuMs float64
	var perNet []float64
	for _, b := range nets {
		perNet = append(perNet, median(times[b]))
		wallMs += median(times[b])
		cpuMs += median(cpus[b])
	}
	r.logf("  %d passes; per-net medians: %.1f ms per pass, %.1f ms CPU per pass", passes, wallMs, cpuMs)
	r.set("throughput_jobs_per_s", "jobs/s", float64(len(nets))/(wallMs/1e3))
	// p50 is over the nets' median call times; the tail is over every
	// call, since 20 nets support no tail with 10 samples beyond it.
	if err := r.percentile("latency_ms_p50", perNet, 0.5); err != nil {
		return err
	}
	q, err := tailQuantile(len(lat))
	if err != nil {
		return err
	}
	if err := r.percentile("latency_ms_tail", lat, q); err != nil {
		return err
	}
	r.set("cpu_ms_per_job", "ms", cpuMs/float64(len(nets)))
	hwm, err := procHWM("self")
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", "MB", hwm)
	return nil
}

// solveTable4Traced times one untraced pass and one traced pass over
// the corpus; the traced pass is the DP probe's bare pass.
func (r *run) solveTable4Traced(p *probes) (float64, float64, error) {
	nets, err := table4Corpus(r.corpusSeed)
	if err != nil {
		return 0, 0, err
	}
	jobs := cycle(nets, 1, r.seed)
	recs, failed := r.solvePass(jobs)
	r.account("solve-table4 untraced", len(jobs), failed, 0)
	untraced := throughput(recs)
	bareRecs, err := r.dpProbe(p, jobs)
	if err != nil {
		return 0, 0, err
	}
	return untraced, throughput(bareRecs), nil
}

func throughput(recs []solveRecord) float64 {
	var wall float64
	ok := 0
	for _, rec := range recs {
		if !math.IsInf(rec.ms, 1) {
			wall += rec.ms
			ok++
		}
	}
	return float64(ok) / (wall / 1e3)
}

// dpProbe solves the Table IV corpus three ways — bare (with allocation
// counts), with the daemon's hooks, and profiled — and reports the core,
// pwl-count and obs-overhead layer metrics plus the msri/20pin counter
// cross-check. It returns the bare pass.
func (r *run) dpProbe(p *probes, nets []*baseNet) ([]solveRecord, error) {
	if nets == nil {
		all, err := table4Corpus(r.corpusSeed)
		if err != nil {
			return nil, err
		}
		nets = all
	}
	// The three ways take turns on each net, rotating which goes first,
	// so heap growth and GC pacing do not favour one of them.
	ways := []*solver{r.newSolver(bare, p.spans, true), r.newSolver(hooks, p.spans, false), r.newSolver(profile, p.spans, false)}
	recs := make([][]solveRecord, len(ways))
	failed := 0
	for i, b := range nets {
		for k := range ways {
			w := (i + k) % len(ways)
			rec := ways[w].solve(b)
			if rec.res == nil {
				failed++
			}
			recs[w] = append(recs[w], rec)
		}
	}
	bareRecs, hookRecs, profRecs := recs[0], recs[1], recs[2]
	r.account("dp probe (3 ways)", 3*len(nets), failed, 0)

	var times []float64
	var created, dropped, mallocs, bytes, maxSet float64
	var bareSum, hookSum, profSum, segOps, wasted float64
	for i := range bareRecs {
		b, h, pr := bareRecs[i], hookRecs[i], profRecs[i]
		times = append(times, b.ms)
		bareSum += b.ms
		hookSum += h.ms
		profSum += pr.ms
		if b.res == nil {
			continue
		}
		st := b.res.Stats
		created += float64(st.SolutionsCreated)
		dropped += float64(st.Dropped)
		maxSet = math.Max(maxSet, float64(st.MaxSetSize))
		mallocs += float64(b.mallocs)
		bytes += float64(b.bytes)
		if pr.res != nil && pr.res.Profile != nil {
			segOps += float64(pr.res.Profile.TotalSegOps)
			wasted += float64(pr.res.Profile.WastedSegOps)
		}
	}
	n := float64(len(bareRecs))
	if err := r.percentile("core.solve_ms_p50", times, 0.5); err != nil {
		return nil, err
	}
	r.set("core.solutions_per_net", "count", created/n)
	r.set("core.dropped_per_mille", "permille", perMille(dropped, created))
	r.set("core.max_set_size", "count", maxSet)
	r.set("core.allocs_per_net", "count", mallocs/n)
	r.set("core.alloc_mb_per_net", "MB", bytes/n/(1<<20))
	r.set("core.waste_per_mille", "permille", perMille(wasted, segOps))
	r.set("pwl.seg_ops_per_net", "count", segOps/n)
	r.set("obs.dp_hook_overhead_pct", "%", 100*(hookSum/bareSum-1))
	r.set("obs.profile_overhead_pct", "%", 100*(profSum/bareSum-1))

	var ref *core.Result
	for _, rec := range profRecs {
		if rec.net.key == msri20Key {
			ref = rec.res
		}
	}
	if ref == nil {
		b, err := genNet(20, 1)
		if err != nil {
			return nil, err
		}
		opt := repeaterOptions
		opt.Profile = true
		if ref, err = core.Optimize(b.rt, buslib.Default(), opt); err != nil {
			return nil, err
		}
	}
	return bareRecs, r.crossCheckMSRI20(ref)
}

// msri20Key is the Table IV net BENCH_msrnet.json baselines as
// msri/20pin: 20 pins, netgen seed 1.
const msri20Key = "20/1"

// crossCheckMSRI20 compares the DP counters of the msri/20pin net with
// the committed counter gate in BENCH_msrnet.json, so both harnesses
// are shown to measure the same DP.
func (r *run) crossCheckMSRI20(res *core.Result) error {
	raw, err := os.ReadFile(filepath.Join(r.root, "BENCH_msrnet.json"))
	if err != nil {
		return err
	}
	var rep struct {
		Workloads []struct {
			Name     string           `json:"name"`
			Counters map[string]int64 `json:"counters"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		return fmt.Errorf("BENCH_msrnet.json: %w", err)
	}
	var want map[string]int64
	for _, w := range rep.Workloads {
		if w.Name == "msri/20pin" {
			want = w.Counters
		}
	}
	if want == nil {
		return fmt.Errorf("BENCH_msrnet.json has no msri/20pin workload")
	}
	p := res.Profile
	got := map[string]int64{
		"solutions_created": int64(res.Stats.SolutionsCreated),
		"dropped":           int64(res.Stats.Dropped),
		"max_set_size":      int64(res.Stats.MaxSetSize),
		"total_seg_ops":     p.TotalSegOps,
		"waste_per_mille":   solveprof.PerMille(p.WastedSegOps, p.TotalSegOps),
	}
	match := 1.0
	for _, k := range []string{"solutions_created", "dropped", "max_set_size", "total_seg_ops", "waste_per_mille"} {
		r.logf("  msri/20pin %-18s perfbench=%d BENCH_msrnet.json=%d", k, got[k], want[k])
		if got[k] != want[k] {
			match = 0
			r.problem("msri/20pin %s: %d here, %d in BENCH_msrnet.json", k, got[k], want[k])
		}
	}
	r.set("core.msri20pin_counters_match", "count", match)
	return nil
}
