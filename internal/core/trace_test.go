package core

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"msrnet/internal/buslib"
	"msrnet/internal/netgen"
	"msrnet/internal/obs/trace"
	"msrnet/internal/pwl"
	"msrnet/internal/topo"
)

// TestOptimizeTracesPerNode is the tentpole acceptance check at the
// library level: a 16-terminal run with a live tracer must record one
// DP slice per non-root topology node, each carrying the set-size and
// segment-count args, plus prune slices — and tracing must not change
// the result.
func TestOptimizeTracesPerNode(t *testing.T) {
	tr, err := netgen.Generate(7, netgen.Defaults(16))
	if err != nil {
		t.Fatal(err)
	}
	rt := tr.RootAt(tr.Terminals()[0])
	tech := buslib.Default()

	base, err := Optimize(rt, tech, Options{Repeaters: true})
	if err != nil {
		t.Fatal(err)
	}
	tcr := trace.New(0)
	res, err := Optimize(rt, tech, Options{Repeaters: true, Trace: tcr})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Suite) != len(base.Suite) || !reflect.DeepEqual(res.Stats, base.Stats) {
		t.Errorf("tracing changed the run: %+v vs %+v", res.Stats, base.Stats)
	}

	nodeEvents := map[int]trace.Event{}
	prunes := 0
	for _, ev := range tcr.Events() {
		switch ev.Name {
		case "dp/leaf", "dp/steiner", "dp/insertion":
			if ev.Phase != 'X' {
				t.Fatalf("node event not a complete slice: %+v", ev)
			}
			args := map[string]int64{}
			for i := 0; i < int(ev.NArgs); i++ {
				args[ev.Args[i].Key] = ev.Args[i].Val
			}
			for _, key := range []string{"node", "set", "segs"} {
				if _, ok := args[key]; !ok {
					t.Fatalf("node event missing %q arg: %+v", key, ev)
				}
			}
			nodeEvents[int(args["node"])] = ev
		case "dp/prune":
			prunes++
		}
	}
	// Every node except the root (a leaf handled by rootSolutions) is
	// solved exactly once.
	want := tr.NumNodes() - 1
	if len(nodeEvents) != want {
		t.Errorf("traced %d distinct DP nodes, want %d", len(nodeEvents), want)
	}
	if prunes != res.Stats.PruneCalls {
		t.Errorf("traced %d prune slices, stats say %d calls", prunes, res.Stats.PruneCalls)
	}
	// The traced set sizes must be plausible: max equals Stats.MaxSetSize
	// somewhere in the walk is too strong (the max can occur pre-root-
	// augment), but no traced set may exceed it.
	for node, ev := range nodeEvents {
		var set int64
		for i := 0; i < int(ev.NArgs); i++ {
			if ev.Args[i].Key == "set" {
				set = ev.Args[i].Val
			}
		}
		if set > int64(res.Stats.MaxSetSize) {
			t.Errorf("node %d traced set size %d > Stats.MaxSetSize %d", node, set, res.Stats.MaxSetSize)
		}
	}
}

// TestOptimizeTraceParallelRace exercises one tracer from Optimize runs
// on parallel goroutines, as msrnetd's workers share its ring (meaningful
// under -race), and checks every run is still deterministic.
func TestOptimizeTraceParallelRace(t *testing.T) {
	tr, err := netgen.Generate(3, netgen.Defaults(12))
	if err != nil {
		t.Fatal(err)
	}
	rt := tr.RootAt(tr.Terminals()[0])
	tech := buslib.Default()
	serial, err := Optimize(rt, tech, Options{Repeaters: true})
	if err != nil {
		t.Fatal(err)
	}
	tcr := trace.New(1 << 12)
	par := make([]*Result, 3)
	errs := make([]error, len(par))
	var wg sync.WaitGroup
	for i := range par {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			par[i], errs[i] = Optimize(rt, tech, Options{Repeaters: true, Trace: tcr, TraceArgs: []trace.Arg{trace.I("job", i)}})
		}(i)
	}
	wg.Wait()
	for i, res := range par {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(res.Stats, serial.Stats) || len(res.Suite) != len(serial.Suite) {
			t.Errorf("run %d traced on a shared ring diverged: %+v vs %+v", i, res.Stats, serial.Stats)
		}
	}
	if tcr.Total() == 0 {
		t.Error("parallel runs recorded no events")
	}
}

// TestWavefrontReconcilesWithMaxSetSize: with Profile and Trace both
// on, the "dp/wavefront" instants sample the per-node set size at
// exactly the sites that feed Stats.MaxSetSize, so the max over the
// timeline equals the stat exactly — the reconciliation the solveprof
// wavefront summary depends on.
func TestWavefrontReconcilesWithMaxSetSize(t *testing.T) {
	tr, err := netgen.Generate(3, netgen.Defaults(12))
	if err != nil {
		t.Fatal(err)
	}
	rt := tr.RootAt(tr.Terminals()[0])
	tcr := trace.New(0)
	res, err := Optimize(rt, buslib.Default(), Options{Repeaters: true, Profile: true, Trace: tcr})
	if err != nil {
		t.Fatal(err)
	}
	maxSet, events := int64(0), 0
	for _, ev := range tcr.Events() {
		if ev.Name != "dp/wavefront" {
			continue
		}
		if ev.Phase != 'i' {
			t.Fatalf("wavefront event not an instant: %+v", ev)
		}
		events++
		var set int64 = -1
		var node int64 = -1
		for i := 0; i < int(ev.NArgs); i++ {
			switch ev.Args[i].Key {
			case "set":
				set = ev.Args[i].Val
			case "node":
				node = ev.Args[i].Val
			}
		}
		if set < 0 || node < 0 {
			t.Fatalf("wavefront event missing node/set args: %+v", ev)
		}
		if set > maxSet {
			maxSet = set
		}
	}
	if events == 0 {
		t.Fatal("profiled traced run emitted no dp/wavefront instants")
	}
	if maxSet != int64(res.Stats.MaxSetSize) {
		t.Errorf("wavefront max set %d != Stats.MaxSetSize %d", maxSet, res.Stats.MaxSetSize)
	}
	// Without Profile the wavefront channel stays silent.
	tcr2 := trace.New(0)
	if _, err := Optimize(rt, buslib.Default(), Options{Repeaters: true, Trace: tcr2}); err != nil {
		t.Fatal(err)
	}
	for _, ev := range tcr2.Events() {
		if ev.Name == "dp/wavefront" {
			t.Fatal("dp/wavefront emitted without Options.Profile")
		}
	}
}

// TestInstrumentationZeroAllocWhenOff is the fast-path guard, stated
// over the merged hooks: with Options.Obs, Options.Trace and
// Options.Profile all off, the per-batch and per-set reports and the
// nil trace region must not allocate. AllocsPerRun compiles the same
// code paths Optimize runs per node.
func TestInstrumentationZeroAllocWhenOff(t *testing.T) {
	d := &dp{opt: Options{}}
	sols := []*Solution{{
		Cost: 1, Cap: 0.5, Q: math.Inf(-1),
		A: pwl.Linear(1, 2), D: pwl.NegInf(), Dom: pwl.Full(),
	}}
	if n := testing.AllocsPerRun(1000, func() {
		d.built(sols, 0, ClassJoin, 1)
		d.formed(1, len(sols))
		d.noteNode(1, sols, d.tr.Begin(nodeEventName(topo.Terminal), "core"))
		d.ins.preSize.ObserveInt(2)
	}); n != 0 {
		t.Errorf("uninstrumented hooks allocate %.2f per node, want 0", n)
	}
}

// BenchmarkInstrumentationOff is the benchmark form of the same guard,
// so `go test -bench Instrumentation -benchmem` shows 0 B/op.
func BenchmarkInstrumentationOff(b *testing.B) {
	d := &dp{opt: Options{}}
	sols := []*Solution{{
		Cost: 1, Cap: 0.5, Q: math.Inf(-1),
		A: pwl.Linear(1, 2), D: pwl.NegInf(), Dom: pwl.Full(),
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.built(sols, 0, ClassJoin, 1)
		d.formed(1, len(sols))
		d.noteNode(1, sols, d.tr.Begin(nodeEventName(topo.Terminal), "core"))
	}
}
