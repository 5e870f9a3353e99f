package ard_test

import (
	"math"
	"math/rand"
	"testing"

	"msrnet/internal/ard"
	"msrnet/internal/buslib"
	"msrnet/internal/geom"
	"msrnet/internal/obs"
	"msrnet/internal/rctree"
	"msrnet/internal/testnet"
	"msrnet/internal/topo"
)

// TestLinearMatchesNaive is the central equivalence check of §III: the
// single-pass Fig. 2 algorithm must produce exactly the same ARD as one
// Elmore propagation per source, across random topologies, random
// electrical parameters and random repeater assignments.
func TestLinearMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	for trial := 0; trial < 400; trial++ {
		cfg := testnet.DefaultConfig()
		cfg.Backbone = 1 + r.Intn(12)
		cfg.ZeroLenEdges = trial%4 == 0
		cfg.AllRoles = trial%5 == 0
		tr := testnet.RandTree(r, cfg)
		tech := testnet.RandTech(r, 2, 0)
		rt := tr.RootAt(testnet.RootTerminal(tr))
		asg := testnet.RandAssignment(r, rt, tech, 0.5)
		n := rctree.NewNet(rt, tech, asg)
		for _, includeSelf := range []bool{false, true} {
			want, wantSrc, wantSink := n.NaiveARD(includeSelf)
			got := ard.Compute(n, ard.Options{IncludeSelf: includeSelf})
			if math.Abs(got.ARD-want) > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("trial %d (self=%v): linear ARD %.12g != naive %.12g",
					trial, includeSelf, got.ARD, want)
			}
			// The critical pair must achieve the ARD (ties may differ).
			if got.CritSrc >= 0 {
				aat := tr.Node(got.CritSrc).Term.AAT
				q := tr.Node(got.CritSink).Term.Q
				pd := n.PathDelay(got.CritSrc, got.CritSink)
				if math.Abs(aat+pd+q-want) > 1e-9*(1+math.Abs(want)) {
					t.Fatalf("trial %d: reported pair (%d,%d) achieves %.12g, ARD is %.12g (naive pair %d,%d)",
						trial, got.CritSrc, got.CritSink, aat+pd+q, want, wantSrc, wantSink)
				}
			}
		}
	}
}

// TestLinearMatchesNaiveWithDriverOverrides exercises driver-sizing
// assignments too.
func TestLinearMatchesNaiveWithDriverOverrides(t *testing.T) {
	r := rand.New(rand.NewSource(202))
	for trial := 0; trial < 100; trial++ {
		tr := testnet.RandTree(r, testnet.DefaultConfig())
		tech := testnet.RandTech(r, 1, 4)
		rt := tr.RootAt(testnet.RootTerminal(tr))
		asg := testnet.RandAssignment(r, rt, tech, 0.3)
		asg.Drivers = map[int]buslib.Driver{}
		for _, s := range tr.Sources() {
			if r.Intn(2) == 0 {
				asg.Drivers[s] = tech.Drivers[r.Intn(len(tech.Drivers))]
			}
		}
		n := rctree.NewNet(rt, tech, asg)
		want, _, _ := n.NaiveARD(false)
		got := ard.Compute(n, ard.Options{})
		if math.Abs(got.ARD-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("trial %d: %.12g != %.12g", trial, got.ARD, want)
		}
	}
}

// TestRootChoiceInvariance: the ARD is a property of the net, not of the
// rooting. Re-rooting at every terminal must give the same value for a
// fixed physical repeater placement. (Orientations are expressed in the
// rooted frame, so we fix them in a root-independent way: A side faces
// the lower-id neighbor.)
func TestRootChoiceInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(303))
	for trial := 0; trial < 50; trial++ {
		tr := testnet.RandTree(r, testnet.DefaultConfig())
		tech := testnet.RandTech(r, 1, 0)
		// Physical placement: repeater at each insertion point w.p. 1/2,
		// A side toward the lower-id neighbor.
		type phys struct{ rep buslib.Repeater }
		placedAt := map[int]phys{}
		for _, id := range tr.Insertions() {
			if r.Intn(2) == 0 {
				placedAt[id] = phys{rep: tech.Repeaters[0]}
			}
		}
		var ref float64
		for i, root := range tr.Terminals() {
			rt := tr.RootAt(root)
			asg := rctree.Assignment{Repeaters: map[int]rctree.Placed{}}
			for id, ph := range placedAt {
				// Lower-id neighbor = A side. In the rooted frame the A
				// side faces the parent iff parent has the lower id of
				// the two neighbors.
				nb := neighbors(tr, id)
				low := nb[0]
				if nb[1] < low {
					low = nb[1]
				}
				asg.Repeaters[id] = rctree.Placed{Rep: ph.rep, ASideUp: rt.Parent[id] == low}
			}
			n := rctree.NewNet(rt, tech, asg)
			got := ard.Compute(n, ard.Options{}).ARD
			if i == 0 {
				ref = got
				continue
			}
			if math.Abs(got-ref) > 1e-9*(1+math.Abs(ref)) {
				t.Fatalf("trial %d: rooting at %d gives %.12g, rooting at %d gives %.12g",
					trial, root, got, tr.Terminals()[0], ref)
			}
		}
	}
}

func neighbors(tr *topo.Tree, v int) [2]int {
	inc := tr.Incident(v)
	return [2]int{tr.Edge(inc[0]).Other(v), tr.Edge(inc[1]).Other(v)}
}

// TestTwoPinClosedForm checks the ARD of a 2-pin net against a closed
// form.
func TestTwoPinClosedForm(t *testing.T) {
	tr := topo.New()
	ta := buslib.Terminal{Name: "a", IsSource: true, IsSink: true,
		AAT: 1.0, Q: 0.5, Cin: 0.05, Rout: 0.4, DriverIntrinsic: 0.1}
	tb := buslib.Terminal{Name: "b", IsSource: true, IsSink: true,
		AAT: 0.2, Q: 2.0, Cin: 0.08, Rout: 0.3, DriverIntrinsic: 0.15}
	a := tr.AddTerminal(geom.Pt(0, 0), ta)
	b := tr.AddTerminal(geom.Pt(1000, 0), tb)
	tr.AddEdge(a, b, 1000)
	tech := buslib.Tech{Wire: buslib.Wire{ResPerUm: 1e-4, CapPerUm: 2e-4}}
	n := rctree.NewNet(tr.RootAt(a), tech, rctree.Assignment{})
	const rw, cw = 0.1, 0.2
	stage := 0.05 + cw + 0.08
	ab := 1.0 + (0.1 + 0.4*stage + rw*(cw/2+0.08)) + 2.0
	ba := 0.2 + (0.15 + 0.3*stage + rw*(cw/2+0.05)) + 0.5
	want := math.Max(ab, ba)
	got := ard.Compute(n, ard.Options{})
	if math.Abs(got.ARD-want) > 1e-12 {
		t.Errorf("ARD = %.12g, want %.12g", got.ARD, want)
	}
	if got.CritSrc != a || got.CritSink != b {
		t.Errorf("critical pair (%d,%d), want (%d,%d)", got.CritSrc, got.CritSink, a, b)
	}
}

// TestSingleSourceReducesToRadius: with one source, ARD = AAT + max
// augmented sink delay, i.e. the classical single-source measure.
func TestSingleSourceReducesToRadius(t *testing.T) {
	r := rand.New(rand.NewSource(404))
	for trial := 0; trial < 50; trial++ {
		tr := testnet.RandTree(r, testnet.DefaultConfig())
		// Demote all but one source.
		srcs := tr.Sources()
		keep := srcs[r.Intn(len(srcs))]
		for _, s := range srcs {
			term := tr.Node(s).Term
			term.IsSource = s == keep
			if s == keep {
				term.IsSink = false // ensure at least src; self excluded anyway
			} else {
				term.IsSink = true
			}
			tr.SetTerminal(s, term)
		}
		if len(tr.Sinks()) == 0 {
			continue
		}
		tech := testnet.RandTech(r, 1, 0)
		rt := tr.RootAt(testnet.RootTerminal(tr))
		asg := testnet.RandAssignment(r, rt, tech, 0.5)
		n := rctree.NewNet(rt, tech, asg)
		dist := n.DelaysFrom(keep)
		want := math.Inf(-1)
		for _, v := range tr.Sinks() {
			if v == keep {
				continue
			}
			d := tr.Node(keep).Term.AAT + dist[v] + tr.Node(v).Term.Q
			if d > want {
				want = d
			}
		}
		got := ard.Compute(n, ard.Options{})
		if math.Abs(got.ARD-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("trial %d: %.12g != %.12g", trial, got.ARD, want)
		}
		if got.CritSrc != keep {
			t.Fatalf("trial %d: critical source %d, want %d", trial, got.CritSrc, keep)
		}
	}
}

// TestMonotoneInAAT: raising a source's arrival time can only raise the
// ARD.
func TestMonotoneInAAT(t *testing.T) {
	r := rand.New(rand.NewSource(505))
	for trial := 0; trial < 50; trial++ {
		tr := testnet.RandTree(r, testnet.DefaultConfig())
		tech := testnet.RandTech(r, 1, 0)
		rt := tr.RootAt(testnet.RootTerminal(tr))
		asg := testnet.RandAssignment(r, rt, tech, 0.5)
		n := rctree.NewNet(rt, tech, asg)
		before := ard.Compute(n, ard.Options{}).ARD
		s := tr.Sources()[r.Intn(len(tr.Sources()))]
		term := tr.Node(s).Term
		term.AAT += 5
		tr.SetTerminal(s, term)
		n2 := rctree.NewNet(rt, tech, asg)
		after := ard.Compute(n2, ard.Options{}).ARD
		if after < before-1e-9 {
			t.Fatalf("trial %d: ARD decreased after raising AAT: %g -> %g", trial, before, after)
		}
	}
}

func BenchmarkARDLinear(b *testing.B) {
	benchARD(b, func(n *rctree.Net) {
		ard.Compute(n, ard.Options{})
	})
}

func BenchmarkARDNaive(b *testing.B) {
	benchARD(b, func(n *rctree.Net) {
		n.NaiveARD(false)
	})
}

func benchARD(b *testing.B, f func(n *rctree.Net)) {
	r := rand.New(rand.NewSource(9))
	cfg := testnet.DefaultConfig()
	cfg.Backbone = 200
	cfg.AllRoles = true
	tr := testnet.RandTree(r, cfg)
	tech := testnet.RandTech(r, 1, 0)
	rt := tr.RootAt(testnet.RootTerminal(tr))
	n := rctree.NewNet(rt, tech, testnet.RandAssignment(r, rt, tech, 0.3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(n)
	}
}

// TestComputeRecordsObs: the linear-time pass must record its node
// counters, the measured side of the §III claim.
func TestComputeRecordsObs(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	cfg := testnet.DefaultConfig()
	cfg.AllRoles = true
	tr := testnet.RandTree(r, cfg)
	tech := testnet.RandTech(r, 1, 0)
	rt := tr.RootAt(testnet.RootTerminal(tr))
	n := rctree.NewNet(rt, tech, rctree.Assignment{})

	reg := obs.New()
	plain := ard.Compute(n, ard.Options{})
	rec := ard.Compute(n, ard.Options{Obs: reg})
	if plain.ARD != rec.ARD {
		t.Fatalf("instrumentation changed the result: %g vs %g", plain.ARD, rec.ARD)
	}
	snap := reg.Snapshot()
	if snap.Counters["ard/runs"] != 1 {
		t.Errorf("runs = %d, want 1", snap.Counters["ard/runs"])
	}
	if snap.Counters["ard/nodes"] == 0 || snap.Counters["ard/sources"] == 0 || snap.Counters["ard/sinks"] == 0 {
		t.Errorf("node/source/sink counters empty: %+v", snap.Counters)
	}
}
