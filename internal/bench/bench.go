// Package bench is the measurement half of the perf-regression
// observatory behind cmd/benchreport: a fixed set of paper-derived
// workloads (ARD characterization on §VI-style random nets, MSRI
// dynamic-program sweeps), each run under its own obs.Registry so the
// report carries per-phase span timings next to the DP's deterministic
// work counters.
//
// Reports are schema-versioned JSON. Regression detection compares the
// deterministic counters (solutions created, prune calls, set sizes…)
// by default — those are machine-independent, so a committed baseline
// stays meaningful on any CI runner — and treats wall-clock as opt-in,
// since it only means something against a baseline from the same
// machine.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"msrnet/internal/ard"
	"msrnet/internal/atomicfile"
	"msrnet/internal/buslib"
	"msrnet/internal/core"
	"msrnet/internal/netgen"
	"msrnet/internal/obs"
	"msrnet/internal/rctree"
	"msrnet/internal/solveprof"
)

// Schema identifies the report layout for downstream tooling.
const Schema = "msrnet-bench/v1"

// Report is one observatory run: every workload of a suite, measured.
type Report struct {
	Schema    string     `json:"schema"`
	Suite     string     `json:"suite"`
	Repeats   int        `json:"repeats"`
	Workloads []Workload `json:"workloads"`
}

// Workload is one measured workload. Counters are deterministic work
// measures (identical across repeats, enforced by Run); Phases are the
// obs span tree of the best repeat, flattened to '/'-joined paths;
// WallSeconds is the best-of-repeats wall time.
type Workload struct {
	Name        string           `json:"name"`
	Counters    map[string]int64 `json:"counters"`
	Phases      []Phase          `json:"phases,omitempty"`
	WallSeconds float64          `json:"wall_seconds"`
}

// Phase is one flattened span-tree node.
type Phase struct {
	Path    string  `json:"path"`
	Count   int64   `json:"count"`
	Seconds float64 `json:"seconds"`
}

// Config selects the workload suite and measurement effort.
type Config struct {
	Suite   string // "quick" (CI-sized) or "full"; default "quick"
	Repeats int    // wall-time repeats, best-of; default 3
}

// workload pairs a stable name with a body that does the work and
// returns its deterministic counters. The registry collects phase spans
// (and the library counters of the runs it is passed to).
type workload struct {
	name string
	run  func(reg *obs.Registry) (map[string]int64, error)
}

// ardWorkload measures the linear-time Fig. 2 ARD pass: the per-call
// cost is microseconds, so it is iterated to get a measurable wall
// time. Counters pin the input shape so a silent netgen change shows up
// as a counter diff rather than a mystery slowdown.
func ardWorkload(pins int, seed int64, iters int) workload {
	return workload{
		name: fmt.Sprintf("ard/%dpin", pins),
		run: func(reg *obs.Registry) (map[string]int64, error) {
			tr, err := netgen.Generate(seed, netgen.Defaults(pins))
			if err != nil {
				return nil, err
			}
			rt := tr.RootAt(tr.Terminals()[0])
			net := rctree.NewNet(rt, buslib.Default(), rctree.Assignment{})
			for i := 0; i < iters; i++ {
				ard.Compute(net, ard.Options{Obs: reg})
			}
			return map[string]int64{
				"nodes":      int64(tr.NumNodes()),
				"sources":    int64(len(tr.Sources())),
				"sinks":      int64(len(tr.Sinks())),
				"iterations": int64(iters),
			}, nil
		},
	}
}

// msriParams maps each committed MSRI workload to its netgen seed —
// the single source of truth shared by the suites and ProfileMSRI.
var msriParams = map[int]int64{10: 1, 12: 3, 16: 7, 20: 1, 32: 7}

// MSRIWorkloadName returns the canonical workload name for a pin count.
func MSRIWorkloadName(pins int) string { return fmt.Sprintf("msri/%dpin", pins) }

// msriRun executes one committed MSRI workload with lifecycle profiling
// on. Profiling is pure observation (asserted by the core tests), so
// the Stats counters are identical to an unprofiled run — the committed
// baseline stays valid.
func msriRun(pins int, reg *obs.Registry) (*core.Result, error) {
	seed, ok := msriParams[pins]
	if !ok {
		return nil, fmt.Errorf("bench: no committed msri workload for %d pins", pins)
	}
	tr, err := netgen.Generate(seed, netgen.Defaults(pins))
	if err != nil {
		return nil, err
	}
	rt := tr.RootAt(tr.Terminals()[0])
	return core.Optimize(rt, buslib.Default(), core.Options{Repeaters: true, Obs: reg, Profile: true})
}

// ProfileMSRI runs one committed MSRI workload ("msri/12pin" form) and
// returns its result with the lifecycle profile attached — the entry
// point cmd/msrnetprof uses to profile a bench workload in place.
func ProfileMSRI(name string) (*core.Result, error) {
	var pins int
	if _, err := fmt.Sscanf(name, "msri/%dpin", &pins); err != nil {
		return nil, fmt.Errorf("bench: workload %q is not an msri workload (want msri/<N>pin)", name)
	}
	return msriRun(pins, nil)
}

// msriWorkload measures one optimal repeater-insertion run (§IV DP).
// The Stats counters are the DP's work profile: any algorithmic
// regression — weaker pruning, set blow-up, PWL segment growth — moves
// them, on every machine identically. The lifecycle profile adds the
// waste counters the CI waste gate baselines: total/wasted PWL segment
// ops and the integer waste ratio.
func msriWorkload(pins int) workload {
	return workload{
		name: MSRIWorkloadName(pins),
		run: func(reg *obs.Registry) (map[string]int64, error) {
			sp := reg.StartSpan("msri/optimize")
			res, err := msriRun(pins, reg)
			if err != nil {
				return nil, err
			}
			sp.End()
			p := res.Profile
			return map[string]int64{
				"solutions_created": int64(res.Stats.SolutionsCreated),
				"max_set_size":      int64(res.Stats.MaxSetSize),
				"max_pwl_segs":      int64(res.Stats.MaxSegs),
				"prune_calls":       int64(res.Stats.PruneCalls),
				"dropped":           int64(res.Stats.Dropped),
				"suite_points":      int64(len(res.Suite)),
				"total_seg_ops":     p.TotalSegOps,
				"wasted_seg_ops":    p.WastedSegOps,
				"waste_per_mille":   solveprof.PerMille(p.WastedSegOps, p.TotalSegOps),
			}, nil
		},
	}
}

// suiteWorkloads resolves a suite name. The quick suite is sized for a
// CI smoke job (a few seconds end to end); full adds the 16-pin DP,
// which dominates the runtime.
func suiteWorkloads(suite string) ([]workload, error) {
	switch suite {
	case "", "quick":
		return []workload{
			ardWorkload(16, 7, 256),
			msriWorkload(10),
			msriWorkload(12),
			msriWorkload(20),
		}, nil
	case "full":
		return []workload{
			ardWorkload(16, 7, 256),
			ardWorkload(24, 11, 256),
			msriWorkload(10),
			msriWorkload(12),
			msriWorkload(16),
			msriWorkload(20),
			msriWorkload(32),
		}, nil
	default:
		return nil, fmt.Errorf("bench: unknown suite %q (want quick or full)", suite)
	}
}

// Run executes the configured suite and returns the report. Each
// workload is repeated Config.Repeats times; wall time and phases come
// from the fastest repeat, and the deterministic counters must agree
// across repeats — a mismatch means the workload is nondeterministic
// and the report would be meaningless as a baseline, so Run fails.
func Run(cfg Config) (Report, error) {
	if cfg.Repeats <= 0 {
		cfg.Repeats = 3
	}
	if cfg.Suite == "" {
		cfg.Suite = "quick"
	}
	wls, err := suiteWorkloads(cfg.Suite)
	if err != nil {
		return Report{}, err
	}
	rep := Report{Schema: Schema, Suite: cfg.Suite, Repeats: cfg.Repeats}
	for _, wl := range wls {
		var (
			best     time.Duration
			counters map[string]int64
			phases   []Phase
		)
		for i := 0; i < cfg.Repeats; i++ {
			reg := obs.New()
			start := time.Now()
			c, err := wl.run(reg)
			elapsed := time.Since(start)
			if err != nil {
				return Report{}, fmt.Errorf("bench: workload %s: %w", wl.name, err)
			}
			if counters != nil && !sameCounters(counters, c) {
				return Report{}, fmt.Errorf("bench: workload %s: counters differ across repeats (%v vs %v)",
					wl.name, counters, c)
			}
			if i == 0 || elapsed < best {
				best = elapsed
				phases = flattenSpans(reg.Snapshot().Spans, "")
			}
			counters = c
		}
		rep.Workloads = append(rep.Workloads, Workload{
			Name:        wl.name,
			Counters:    counters,
			Phases:      phases,
			WallSeconds: best.Seconds(),
		})
	}
	return rep, nil
}

func sameCounters(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func flattenSpans(spans []obs.SpanSnapshot, prefix string) []Phase {
	var out []Phase
	for _, sp := range spans {
		path := sp.Name
		if prefix != "" {
			path = prefix + "/" + sp.Name
		}
		out = append(out, Phase{Path: path, Count: sp.Count, Seconds: sp.Seconds})
		out = append(out, flattenSpans(sp.Children, path)...)
	}
	return out
}

// Regression is one metric that got worse past its threshold.
type Regression struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Base     float64 `json:"base"`
	Current  float64 `json:"current"`
}

func (r Regression) String() string {
	return fmt.Sprintf("%s %s: %g -> %g (%+.1f%%)",
		r.Workload, r.Metric, r.Base, r.Current, 100*(r.Current-r.Base)/nonzero(r.Base))
}

func nonzero(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}

// Compare checks cur against base. A counter that grew beyond
// base·(1+counterTol) is a regression (shrinking is an improvement and
// passes); with timeTol > 0, wall time is checked the same way. A
// workload present in base but missing from cur is always a
// regression — a silently dropped workload must not read as green.
func Compare(base, cur Report, counterTol, timeTol float64) ([]Regression, error) {
	if base.Schema != Schema {
		return nil, fmt.Errorf("bench: baseline schema %q, want %q", base.Schema, Schema)
	}
	if base.Suite != cur.Suite {
		return nil, fmt.Errorf("bench: suite mismatch: baseline %q vs current %q", base.Suite, cur.Suite)
	}
	curByName := make(map[string]Workload, len(cur.Workloads))
	for _, wl := range cur.Workloads {
		curByName[wl.Name] = wl
	}
	var regs []Regression
	for _, bw := range base.Workloads {
		cw, ok := curByName[bw.Name]
		if !ok {
			regs = append(regs, Regression{Workload: bw.Name, Metric: "(missing workload)"})
			continue
		}
		names := make([]string, 0, len(bw.Counters))
		for name := range bw.Counters {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			b, c := float64(bw.Counters[name]), float64(cw.Counters[name])
			if c > b*(1+counterTol) {
				regs = append(regs, Regression{Workload: bw.Name, Metric: name, Base: b, Current: c})
			}
		}
		if timeTol > 0 && cw.WallSeconds > bw.WallSeconds*(1+timeTol) {
			regs = append(regs, Regression{
				Workload: bw.Name, Metric: "wall_seconds",
				Base: bw.WallSeconds, Current: cw.WallSeconds,
			})
		}
	}
	return regs, nil
}

// WasteRegressions is the CI waste-budget gate: for every baselined
// workload carrying a waste_per_mille counter, the current ratio may
// not exceed the baseline by more than slackPerMille (an absolute
// deadband in per-mille points, so a 46.1% → 46.3% wobble passes at
// slack 5 while a structural regression fails). This is deliberately
// tighter than the generic Compare tolerance: the waste ratio is a
// ratio of two deterministic counters, so any genuine movement is a
// solver change, not measurement noise.
func WasteRegressions(base, cur Report, slackPerMille int64) ([]Regression, error) {
	if base.Schema != Schema {
		return nil, fmt.Errorf("bench: baseline schema %q, want %q", base.Schema, Schema)
	}
	curByName := make(map[string]Workload, len(cur.Workloads))
	for _, wl := range cur.Workloads {
		curByName[wl.Name] = wl
	}
	var regs []Regression
	for _, bw := range base.Workloads {
		b, ok := bw.Counters["waste_per_mille"]
		if !ok {
			continue
		}
		cw, found := curByName[bw.Name]
		if !found {
			regs = append(regs, Regression{Workload: bw.Name, Metric: "(missing workload)"})
			continue
		}
		c, ok := cw.Counters["waste_per_mille"]
		if !ok {
			regs = append(regs, Regression{Workload: bw.Name, Metric: "waste_per_mille", Base: float64(b)})
			continue
		}
		if c > b+slackPerMille {
			regs = append(regs, Regression{
				Workload: bw.Name, Metric: "waste_per_mille",
				Base: float64(b), Current: float64(c),
			})
		}
	}
	return regs, nil
}

// WriteFile atomically writes the report as indented JSON.
func (r Report) WriteFile(path string) error {
	err := atomicfile.Write(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(r)
	})
	if err != nil {
		return fmt.Errorf("bench: writing %s: %w", path, err)
	}
	return nil
}

// Load reads a report and validates its schema.
func Load(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return Report{}, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	if r.Schema != Schema {
		return Report{}, fmt.Errorf("bench: %s has schema %q, want %q", path, r.Schema, Schema)
	}
	return r, nil
}
