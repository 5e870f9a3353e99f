package core_test

import (
	"reflect"
	"testing"

	"msrnet/internal/buslib"
	"msrnet/internal/core"
	"msrnet/internal/netgen"
	"msrnet/internal/obs"
)

// TestOptimizeRecordsMetrics is the end-to-end instrumentation check:
// a 16-terminal net run with a live registry must produce
// non-zero prune counters, solution-set-size histograms and PWL-segment
// histograms, the "msri/solve" span, and a snapshot consistent with the
// returned Stats.
func TestOptimizeRecordsMetrics(t *testing.T) {
	tr, err := netgen.Generate(7, netgen.Defaults(16))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tr.Terminals()); got != 16 {
		t.Fatalf("terminals = %d, want 16", got)
	}
	rt := tr.RootAt(tr.Terminals()[0])
	tech := buslib.Default()
	reg := obs.New()
	res, err := core.Optimize(rt, tech, core.Options{Repeaters: true, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	// Prune behavior (the Fig. 4 MFS): calls and drops must be observed.
	if got := snap.Counters["core/prune/divide/calls"]; got != int64(res.Stats.PruneCalls) {
		t.Errorf("prune calls counter = %d, stats say %d", got, res.Stats.PruneCalls)
	}
	if got := snap.Counters["core/prune/divide/drops"]; got != int64(res.Stats.Dropped) {
		t.Errorf("prune drops counter = %d, stats say %d", got, res.Stats.Dropped)
	}
	if res.Stats.PruneCalls == 0 || res.Stats.Dropped == 0 {
		t.Errorf("expected non-zero prune activity on a 16-terminal net: %+v", res.Stats)
	}
	if got := snap.Counters["core/solutions_created"]; got != int64(res.Stats.SolutionsCreated) {
		t.Errorf("solutions counter = %d, stats say %d", got, res.Stats.SolutionsCreated)
	}
	// |S(v)| histograms before and after pruning.
	for _, name := range []string{"core/set_size/pre_prune", "core/set_size/post_prune"} {
		h, ok := snap.Histograms[name]
		if !ok || h.Count == 0 {
			t.Errorf("histogram %q missing or empty", name)
		}
	}
	post := snap.Histograms["core/set_size/post_prune"]
	if post.Max == nil || int(*post.Max) != res.Stats.MaxSetSize {
		t.Errorf("post-prune max = %v, stats MaxSetSize = %d", post.Max, res.Stats.MaxSetSize)
	}
	if got := snap.Gauges["core/max_set_size"]; got != int64(res.Stats.MaxSetSize) {
		t.Errorf("max set gauge = %d, stats say %d", got, res.Stats.MaxSetSize)
	}
	// PWL segment counts: non-empty and max consistent with Stats.
	segs, ok := snap.Histograms["core/pwl_segments"]
	if !ok || segs.Count == 0 {
		t.Fatalf("pwl_segments histogram missing or empty")
	}
	if segs.Max == nil || int(*segs.Max) != res.Stats.MaxSegs {
		t.Errorf("segment max = %v, stats MaxSegs = %d", segs.Max, res.Stats.MaxSegs)
	}
}

// TestOptimizeStatsConsistentAcrossPruners: every pruner path must
// populate MaxSetSize and PruneCalls, and the two real pruners must
// report drops; serial stats must also match a nil-recorder run.
func TestOptimizeStatsConsistentAcrossPruners(t *testing.T) {
	tr, err := netgen.Generate(3, netgen.Defaults(8))
	if err != nil {
		t.Fatal(err)
	}
	rt := tr.RootAt(tr.Terminals()[0])
	tech := buslib.Default()
	for _, p := range []core.Pruner{core.PruneDivide, core.PruneNaive} {
		res, err := core.Optimize(rt, tech, core.Options{Repeaters: true, Pruner: p})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		s := res.Stats
		if s.MaxSetSize == 0 || s.PruneCalls == 0 || s.Dropped == 0 || s.SolutionsCreated == 0 {
			t.Errorf("pruner %v: stats under-reported: %+v", p, s)
		}
		// A recorded run must not change the result or the stats.
		reg := obs.New()
		res2, err := core.Optimize(rt, tech, core.Options{Repeaters: true, Pruner: p, Obs: reg})
		if err != nil {
			t.Fatalf("%v with recorder: %v", p, err)
		}
		if !reflect.DeepEqual(res2.Stats, s) {
			t.Errorf("pruner %v: stats differ with recorder: %+v vs %+v", p, res2.Stats, s)
		}
		if len(res2.Suite) != len(res.Suite) {
			t.Errorf("pruner %v: suite changed under instrumentation", p)
		}
	}
	// PruneOff still counts calls and set sizes (drops are zero by
	// construction — nothing is pruned). Use a small net so the
	// exponential path stays tractable.
	trS, err := netgen.Generate(3, netgen.Defaults(4))
	if err != nil {
		t.Fatal(err)
	}
	rtS := trS.RootAt(trS.Terminals()[0])
	res, err := core.Optimize(rtS, tech, core.Options{Repeaters: true, Pruner: core.PruneOff})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PruneCalls == 0 || res.Stats.MaxSetSize == 0 {
		t.Errorf("PruneOff stats under-reported: %+v", res.Stats)
	}
	if res.Stats.Dropped != 0 {
		t.Errorf("PruneOff dropped %d solutions", res.Stats.Dropped)
	}
}

// TestAbortedRunPublishesPartialCounts: the core/* counters are read off
// Stats when the run ends, and an aborted run must still publish the
// work it did before the abort.
func TestAbortedRunPublishesPartialCounts(t *testing.T) {
	tr, err := netgen.Generate(1, netgen.Defaults(10))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	_, err = core.Optimize(tr.RootAt(tr.Terminals()[0]), buslib.Default(),
		core.Options{Repeaters: true, MaxSolutions: 8, Obs: reg})
	if err == nil {
		t.Fatal("MaxSolutions 8 did not abort the 10-pin run")
	}
	snap := reg.Snapshot()
	for _, name := range []string{"core/solutions_created", "core/prune/divide/calls", "core/prune/divide/drops"} {
		if snap.Counters[name] == 0 {
			t.Errorf("aborted run published no %s", name)
		}
	}
	if got := snap.Gauges["core/max_set_size"]; got <= 8 {
		t.Errorf("max set gauge = %d, want the over-limit set size", got)
	}
}
