package core_test

import (
	"reflect"
	"testing"

	"msrnet/internal/buslib"
	"msrnet/internal/core"
	"msrnet/internal/netgen"
	"msrnet/internal/obs"
	"msrnet/internal/obs/trace"
)

// TestOptimizeRecordsMetrics is the end-to-end instrumentation check:
// a 16-terminal run with a live registry must publish every core/*
// series as a view of the returned Stats, with non-zero prune activity.
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
	st := res.Stats
	if st.PruneCalls == 0 || st.Dropped == 0 || st.MaxSegs == 0 {
		t.Errorf("expected non-zero prune activity on a 16-terminal net: %+v", st)
	}
	snap := reg.Snapshot()
	for name, want := range map[string]int{
		"core/solutions_created":  st.SolutionsCreated,
		"core/prune/divide/calls": st.PruneCalls,
		"core/prune/divide/drops": st.Dropped,
		"core/nodes_visited":      st.NodesVisited,
		"core/set_size_sum":       st.SetSizeSum,
	} {
		if got := snap.Counters[name]; got != int64(want) {
			t.Errorf("counter %s = %d, Stats say %d", name, got, want)
		}
	}
	for name, want := range map[string]int{
		"core/max_set_size":     st.MaxSetSize,
		"core/max_pwl_segments": st.MaxSegs,
	} {
		if got := snap.Gauges[name]; got != int64(want) {
			t.Errorf("gauge %s = %d, Stats say %d", name, got, want)
		}
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

// TestAbortedRunPublishesPartialCounts: the core/* series are read off
// Stats when the run ends, and an aborted run must still publish the
// work it did before the abort. The aborted run returns no Stats, so
// the node series are checked against the ring tracer's per-node
// slices, which close at the same report that counts a node.
func TestAbortedRunPublishesPartialCounts(t *testing.T) {
	tr, err := netgen.Generate(1, netgen.Defaults(10))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	tcr := trace.New(0)
	_, err = core.Optimize(tr.RootAt(tr.Terminals()[0]), buslib.Default(),
		core.Options{Repeaters: true, MaxSolutions: 8, Obs: reg, Trace: tcr})
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
	var nodes, setSum, maxSegs int64
	for _, ev := range tcr.Events() {
		switch ev.Name {
		case "dp/leaf", "dp/steiner", "dp/insertion":
			nodes++
			for _, a := range ev.Args[:ev.NArgs] {
				switch a.Key {
				case "set":
					setSum += a.Val
				case "segs":
					maxSegs = max(maxSegs, a.Val)
				}
			}
		}
	}
	if nodes == 0 {
		t.Fatal("aborted run traced no DP node")
	}
	if got := snap.Counters["core/nodes_visited"]; got != nodes {
		t.Errorf("nodes visited counter = %d, traced %d node slices", got, nodes)
	}
	if got := snap.Counters["core/set_size_sum"]; got != setSum {
		t.Errorf("set size sum counter = %d, traced set sizes sum to %d", got, setSum)
	}
	if got := snap.Gauges["core/max_pwl_segments"]; got < max(maxSegs, 1) {
		t.Errorf("max segments gauge = %d, below the traced maximum %d", got, maxSegs)
	}
}
