package core_test

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"msrnet/internal/ard"
	"msrnet/internal/buslib"
	"msrnet/internal/core"
	"msrnet/internal/geom"
	"msrnet/internal/rctree"
	"msrnet/internal/testnet"
	"msrnet/internal/topo"
)

// smallNet builds a random net with at most maxIns insertion points so
// brute force stays tractable.
func smallNet(r *rand.Rand, maxIns int) *topo.Tree {
	cfg := testnet.DefaultConfig()
	cfg.Backbone = 1 + r.Intn(4)
	cfg.InsSpacing = 0 // no automatic insertion points
	tr := testnet.RandTree(r, cfg)
	nEdges := tr.NumEdges()
	k := 1 + r.Intn(maxIns)
	for i := 0; i < k && i < nEdges; i++ {
		eid := r.Intn(nEdges)
		if tr.Edge(eid).Length <= 0 {
			continue
		}
		tr.SplitEdge(eid, 0.2+0.6*r.Float64(), topo.Insertion)
	}
	return tr
}

func frontiersEqual(t *testing.T, tag string, got core.Suite, want []core.CostARD) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: frontier size %d, want %d\n got: %v\nwant: %v",
			tag, len(got), len(want), points(got), want)
	}
	for i := range want {
		if math.Abs(got[i].Cost-want[i].Cost) > 1e-6 ||
			math.Abs(got[i].ARD-want[i].ARD) > 1e-6*(1+math.Abs(want[i].ARD)) {
			t.Fatalf("%s: frontier point %d: got (%.9g, %.9g), want (%.9g, %.9g)",
				tag, i, got[i].Cost, got[i].ARD, want[i].Cost, want[i].ARD)
		}
	}
}

func points(s core.Suite) []core.CostARD {
	out := make([]core.CostARD, len(s))
	for i, r := range s {
		out[i] = core.CostARD{Cost: r.Cost, ARD: r.ARD}
	}
	return out
}

// TestOptimalityAgainstBruteForce is the Theorem 4.1 verification: the DP
// suite must equal the exhaustive-enumeration Pareto frontier.
func TestOptimalityAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(1001))
	opt := core.Options{Repeaters: true}
	for trial := 0; trial < 60; trial++ {
		tr := smallNet(r, 5)
		tech := testnet.RandTech(r, 1+r.Intn(2), 0)
		rt := tr.RootAt(testnet.RootTerminal(tr))
		res, err := core.Optimize(rt, tech, opt)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := core.BruteForce(rt, tech, opt)
		frontiersEqual(t, "repeater", res.Suite, want)
	}
}

// TestOptimalityWithSelfPairs repeats the check with u==v pairs counted.
func TestOptimalityWithSelfPairs(t *testing.T) {
	r := rand.New(rand.NewSource(1002))
	opt := core.Options{Repeaters: true, IncludeSelf: true}
	for trial := 0; trial < 30; trial++ {
		tr := smallNet(r, 4)
		tech := testnet.RandTech(r, 1, 0)
		rt := tr.RootAt(testnet.RootTerminal(tr))
		res, err := core.Optimize(rt, tech, opt)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := core.BruteForce(rt, tech, opt)
		frontiersEqual(t, "self", res.Suite, want)
	}
}

// TestDriverSizingAgainstBruteForce verifies the sizing mode of §V.
func TestDriverSizingAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(1003))
	opt := core.Options{SizeDrivers: true}
	for trial := 0; trial < 30; trial++ {
		tr := smallNet(r, 2)
		if len(tr.Sources()) > 4 {
			continue // keep brute force small
		}
		tech := testnet.RandTech(r, 0, 3)
		rt := tr.RootAt(testnet.RootTerminal(tr))
		res, err := core.Optimize(rt, tech, opt)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := core.BruteForce(rt, tech, opt)
		frontiersEqual(t, "sizing", res.Suite, want)
	}
}

// TestCombinedSizingAndRepeaters exercises both dimensions at once.
func TestCombinedSizingAndRepeaters(t *testing.T) {
	r := rand.New(rand.NewSource(1004))
	opt := core.Options{Repeaters: true, SizeDrivers: true}
	for trial := 0; trial < 15; trial++ {
		tr := smallNet(r, 2)
		if len(tr.Sources()) > 3 {
			continue
		}
		tech := testnet.RandTech(r, 1, 2)
		rt := tr.RootAt(testnet.RootTerminal(tr))
		res, err := core.Optimize(rt, tech, opt)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := core.BruteForce(rt, tech, opt)
		frontiersEqual(t, "combined", res.Suite, want)
	}
}

// TestReconstructionConsistency: every suite entry's reconstructed
// assignment, evaluated by the independent ARD module, must reproduce the
// reported ARD and cost.
func TestReconstructionConsistency(t *testing.T) {
	r := rand.New(rand.NewSource(1005))
	for trial := 0; trial < 40; trial++ {
		cfg := testnet.DefaultConfig()
		cfg.Backbone = 2 + r.Intn(6)
		tr := testnet.RandTree(r, cfg)
		tech := testnet.RandTech(r, 2, 3)
		rt := tr.RootAt(testnet.RootTerminal(tr))
		opt := core.Options{Repeaters: true, SizeDrivers: trial%2 == 0}
		res, err := core.Optimize(rt, tech, opt)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, rs := range res.Suite {
			asg := rs.Assignment()
			n := rctree.NewNet(rt, tech, asg)
			check := ard.Compute(n, ard.Options{})
			if math.Abs(check.ARD-rs.ARD) > 1e-6*(1+math.Abs(rs.ARD)) {
				t.Fatalf("trial %d: reported ARD %.9g, reconstruction gives %.9g (cost %.3g, %d repeaters)",
					trial, rs.ARD, check.ARD, rs.Cost, rs.Repeaters())
			}
			wantCost := asg.Cost()
			if math.Abs(wantCost-rs.Cost) > 1e-9 {
				t.Fatalf("trial %d: reported cost %.9g, assignment cost %.9g", trial, rs.Cost, wantCost)
			}
		}
	}
}

// TestPrunerEquivalence: naive and divide-and-conquer MFS must yield the
// same Pareto suite.
func TestPrunerEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(1006))
	for trial := 0; trial < 25; trial++ {
		cfg := testnet.DefaultConfig()
		cfg.Backbone = 2 + r.Intn(5)
		tr := testnet.RandTree(r, cfg)
		tech := testnet.RandTech(r, 2, 0)
		rt := tr.RootAt(testnet.RootTerminal(tr))
		a, err := core.Optimize(rt, tech, core.Options{Repeaters: true, Pruner: core.PruneDivide})
		if err != nil {
			t.Fatal(err)
		}
		b, err := core.Optimize(rt, tech, core.Options{Repeaters: true, Pruner: core.PruneNaive})
		if err != nil {
			t.Fatal(err)
		}
		frontiersEqual(t, "pruners", a.Suite, points(b.Suite))
	}
}

// TestSuiteIsParetoSorted checks the structural contract of a suite.
func TestSuiteIsParetoSorted(t *testing.T) {
	r := rand.New(rand.NewSource(1007))
	tr := testnet.RandTree(r, testnet.DefaultConfig())
	tech := testnet.RandTech(r, 2, 0)
	rt := tr.RootAt(testnet.RootTerminal(tr))
	res, err := core.Optimize(rt, tech, core.Options{Repeaters: true})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Suite
	for i := 1; i < len(s); i++ {
		if s[i].Cost <= s[i-1].Cost {
			t.Errorf("suite not strictly increasing in cost at %d", i)
		}
		if s[i].ARD >= s[i-1].ARD {
			t.Errorf("suite not strictly decreasing in ARD at %d", i)
		}
	}
	// MinCost against the worst ARD must return the cheapest point.
	if got, ok := s.MinCost(s[0].ARD + 1); !ok || got.Cost != s[0].Cost {
		t.Error("MinCost(loose spec) should return cheapest")
	}
	// MinCost with an impossible spec fails.
	if _, ok := s.MinCost(mustMinARD(t, s).ARD - 1); ok {
		t.Error("MinCost(impossible spec) should fail")
	}
	if mustMinARD(t, s).ARD > s[0].ARD {
		t.Error("MinARD worse than cheapest solution")
	}
	cheapest, err := s.MinCostSolution()
	if err != nil {
		t.Fatal(err)
	}
	if cheapest.Cost != s[0].Cost {
		t.Error("MinCostSolution mismatch")
	}
	// The empty suite is a typed error, not a panic.
	if _, err := core.Suite(nil).MinARD(); !errors.Is(err, core.ErrEmptySuite) {
		t.Errorf("empty MinARD error = %v, want ErrEmptySuite", err)
	}
	if _, err := core.Suite(nil).MinCostSolution(); !errors.Is(err, core.ErrEmptySuite) {
		t.Errorf("empty MinCostSolution error = %v, want ErrEmptySuite", err)
	}
}

// mustMinARD unwraps Suite.MinARD for suites the test knows are
// non-empty.
func mustMinARD(t testing.TB, s core.Suite) core.RootSolution {
	t.Helper()
	sol, err := s.MinARD()
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

// TestRepeatersNeverHurt: enabling repeaters can only improve (or match)
// the best achievable ARD, and the zero-cost point matches the
// no-repeater baseline.
func TestRepeatersNeverHurt(t *testing.T) {
	r := rand.New(rand.NewSource(1008))
	for trial := 0; trial < 20; trial++ {
		tr := testnet.RandTree(r, testnet.DefaultConfig())
		tech := testnet.RandTech(r, 1, 0)
		rt := tr.RootAt(testnet.RootTerminal(tr))
		base := rctree.NewNet(rt, tech, rctree.Assignment{})
		baseARD := ard.Compute(base, ard.Options{}).ARD
		res, err := core.Optimize(rt, tech, core.Options{Repeaters: true})
		if err != nil {
			t.Fatal(err)
		}
		if best := mustMinARD(t, res.Suite); best.ARD > baseARD+1e-9 {
			t.Fatalf("trial %d: best ARD %.9g worse than unbuffered %.9g",
				trial, best.ARD, baseARD)
		}
		// The cheapest point must be the unbuffered solution.
		if math.Abs(res.Suite[0].Cost) > 1e-12 {
			t.Fatalf("trial %d: cheapest solution has cost %g, want 0", trial, res.Suite[0].Cost)
		}
		if math.Abs(res.Suite[0].ARD-baseARD) > 1e-9*(1+math.Abs(baseARD)) {
			t.Fatalf("trial %d: zero-cost ARD %.9g != unbuffered %.9g",
				trial, res.Suite[0].ARD, baseARD)
		}
	}
}

// TestInvertingRepeaters: with an inverting-only library the DP must
// respect polarity feasibility and still match brute force.
func TestInvertingRepeaters(t *testing.T) {
	r := rand.New(rand.NewSource(1009))
	for trial := 0; trial < 20; trial++ {
		tr := smallNet(r, 4)
		tech := testnet.RandTech(r, 1, 0)
		inv := tech.Repeaters[0]
		inv.Inverting = true
		inv.Name = "inv"
		inv.Cost = 1
		tech.Repeaters = []buslib.Repeater{inv}
		rt := tr.RootAt(testnet.RootTerminal(tr))
		opt := core.Options{Repeaters: true, AllowInverting: true}
		res, err := core.Optimize(rt, tech, opt)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := core.BruteForce(rt, tech, opt)
		frontiersEqual(t, "inverting", res.Suite, want)
		// Every solution must place an even number of inverters on each
		// root-to-terminal path; check via the parity rule on the
		// reconstructed assignment.
		for _, rs := range res.Suite {
			asg := rs.Assignment()
			if !parityOK(rt, asg) {
				t.Fatalf("trial %d: suite entry with infeasible polarity", trial)
			}
		}
	}
}

func parityOK(rt *topo.Rooted, asg rctree.Assignment) bool {
	parity := make([]int, rt.Tree.NumNodes())
	for i := len(rt.PostOrder) - 1; i >= 0; i-- {
		v := rt.PostOrder[i]
		if v == rt.Root {
			continue
		}
		p := parity[rt.Parent[v]]
		if pl, ok := asg.Repeaters[v]; ok && pl.Rep.Inverting {
			p ^= 1
		}
		parity[v] = p
	}
	for _, v := range rt.Tree.Terminals() {
		if parity[v] != 0 {
			return false
		}
	}
	return true
}

// TestWireSizingExtension: free extra width must not hurt, and must be
// exploited when it helps.
func TestWireSizingExtension(t *testing.T) {
	r := rand.New(rand.NewSource(1010))
	for trial := 0; trial < 10; trial++ {
		tr := smallNet(r, 4)
		tech := testnet.RandTech(r, 1, 0)
		rt := tr.RootAt(testnet.RootTerminal(tr))
		plain, err := core.Optimize(rt, tech, core.Options{Repeaters: true})
		if err != nil {
			t.Fatal(err)
		}
		sized, err := core.Optimize(rt, tech, core.Options{
			Repeaters:  true,
			WireWidths: []float64{1, 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		sizedBest, plainBest := mustMinARD(t, sized.Suite), mustMinARD(t, plain.Suite)
		if sizedBest.ARD > plainBest.ARD+1e-9 {
			t.Fatalf("trial %d: wire sizing hurt: %.9g vs %.9g",
				trial, sizedBest.ARD, plainBest.ARD)
		}
	}
}

// TestWireSizingReconstruction: a width-using solution must evaluate
// consistently when reconstructed.
func TestWireSizingReconstruction(t *testing.T) {
	r := rand.New(rand.NewSource(1011))
	tr := smallNet(r, 4)
	tech := testnet.RandTech(r, 1, 0)
	rt := tr.RootAt(testnet.RootTerminal(tr))
	res, err := core.Optimize(rt, tech, core.Options{
		Repeaters:     true,
		WireWidths:    []float64{1, 2},
		WireCostPerUm: 1e-4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rs := range res.Suite {
		asg := rs.Assignment()
		n := rctree.NewNet(rt, tech, asg)
		check := ard.Compute(n, ard.Options{})
		if math.Abs(check.ARD-rs.ARD) > 1e-6*(1+math.Abs(rs.ARD)) {
			t.Fatalf("wire-sized reconstruction: %.9g vs %.9g", check.ARD, rs.ARD)
		}
	}
}

// TestWireWidthsRejectBadValues: a width that is not finite and
// positive is a configuration error. Left through, a negative width
// panics in the PWL shift and a zero width makes every wire free of
// resistance, so the DP runs until its deadline.
func TestWireWidthsRejectBadValues(t *testing.T) {
	r := rand.New(rand.NewSource(1012))
	tr := smallNet(r, 4)
	tech := testnet.RandTech(r, 1, 0)
	rt := tr.RootAt(testnet.RootTerminal(tr))
	for _, widths := range [][]float64{{0}, {-1}, {math.Inf(1)}, {math.NaN()}, {1, 0}, {1, -2}} {
		if _, err := core.Optimize(rt, tech, core.Options{Repeaters: true, WireWidths: widths}); err == nil {
			t.Errorf("WireWidths %v accepted", widths)
		}
	}
}

// TestErrorCases verifies input validation.
func TestErrorCases(t *testing.T) {
	tech := buslib.Default()
	// Root not a terminal.
	tr := topo.New()
	s := tr.AddSteiner(geom.Pt(0, 0))
	a := tr.AddTerminal(geom.Pt(0, 1), buslib.DefaultTerminal("a"))
	b := tr.AddTerminal(geom.Pt(1, 0), buslib.DefaultTerminal("b"))
	tr.AddEdge(s, a, 100)
	tr.AddEdge(s, b, 100)
	if _, err := core.Optimize(tr.RootAt(s), tech, core.Options{Repeaters: true}); err == nil {
		t.Error("expected error for steiner root")
	}
	// No sinks.
	tr2 := topo.New()
	ta := buslib.DefaultTerminal("a")
	ta.IsSink = false
	tb := buslib.DefaultTerminal("b")
	tb.IsSink = false
	x := tr2.AddTerminal(geom.Pt(0, 0), ta)
	y := tr2.AddTerminal(geom.Pt(1, 0), tb)
	tr2.AddEdge(x, y, 100)
	if _, err := core.Optimize(tr2.RootAt(x), tech, core.Options{Repeaters: true}); err == nil {
		t.Error("expected error for sinkless net")
	}
	// Empty repeater library with Repeaters set.
	tr3 := topo.New()
	x3 := tr3.AddTerminal(geom.Pt(0, 0), buslib.DefaultTerminal("a"))
	y3 := tr3.AddTerminal(geom.Pt(1, 0), buslib.DefaultTerminal("b"))
	tr3.AddEdge(x3, y3, 100)
	badTech := tech
	badTech.Repeaters = nil
	if _, err := core.Optimize(tr3.RootAt(x3), badTech, core.Options{Repeaters: true}); err == nil {
		t.Error("expected error for empty repeater library")
	}
	badTech2 := tech
	badTech2.Drivers = nil
	if _, err := core.Optimize(tr3.RootAt(x3), badTech2, core.Options{SizeDrivers: true}); err == nil {
		t.Error("expected error for empty driver library")
	}
}

// TestStatsPopulated sanity-checks the run statistics.
func TestStatsPopulated(t *testing.T) {
	r := rand.New(rand.NewSource(1012))
	tr := testnet.RandTree(r, testnet.DefaultConfig())
	tech := testnet.RandTech(r, 1, 0)
	rt := tr.RootAt(testnet.RootTerminal(tr))
	res, err := core.Optimize(rt, tech, core.Options{Repeaters: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SolutionsCreated == 0 || res.Stats.MaxSetSize == 0 || res.Stats.PruneCalls == 0 {
		t.Errorf("stats look empty: %+v", res.Stats)
	}
}

// TestMaxSolutionsGuard: a tiny limit must trip on a net that needs more
// solutions, with a descriptive error; a generous limit must not.
func TestMaxSolutionsGuard(t *testing.T) {
	r := rand.New(rand.NewSource(1013))
	tr := testnet.RandTree(r, testnet.DefaultConfig())
	tech := testnet.RandTech(r, 2, 0)
	rt := tr.RootAt(testnet.RootTerminal(tr))
	_, err := core.Optimize(rt, tech, core.Options{Repeaters: true, MaxSolutions: 1})
	if err == nil {
		t.Fatal("limit 1 did not trip")
	}
	res, err := core.Optimize(rt, tech, core.Options{Repeaters: true, MaxSolutions: 1 << 20})
	if err != nil {
		t.Fatalf("generous limit tripped: %v", err)
	}
	if len(res.Suite) == 0 {
		t.Fatal("empty suite")
	}
}

// TestPruneOffStillOptimal: with pruning disabled on a small instance the
// suite must match the pruned runs (pruning only removes provably
// dominated candidates).
func TestPruneOffStillOptimal(t *testing.T) {
	r := rand.New(rand.NewSource(1014))
	for trial := 0; trial < 10; trial++ {
		tr := smallNet(r, 4)
		tech := testnet.RandTech(r, 1, 0)
		rt := tr.RootAt(testnet.RootTerminal(tr))
		a, err := core.Optimize(rt, tech, core.Options{Repeaters: true, Pruner: core.PruneOff})
		if err != nil {
			t.Fatal(err)
		}
		b, err := core.Optimize(rt, tech, core.Options{Repeaters: true})
		if err != nil {
			t.Fatal(err)
		}
		frontiersEqual(t, "pruneoff", a.Suite, points(b.Suite))
	}
}

// TestParallelMatchesSerial: profiled Optimize runs on parallel
// goroutines — the shape of msrnetd's worker pool — must each reproduce
// the serial run exactly: suite, full Stats (including the per-site
// PruneSites breakdown) and lifecycle profile. Every run owns its
// counter block and profile, so under -race this also proves the runs
// share no mutable state.
func TestParallelMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(1015))
	for trial := 0; trial < 15; trial++ {
		cfg := testnet.DefaultConfig()
		cfg.Backbone = 3 + r.Intn(6)
		tr := testnet.RandTree(r, cfg)
		tech := testnet.RandTech(r, 2, 0)
		rt := tr.RootAt(testnet.RootTerminal(tr))
		opt := core.Options{Repeaters: true, Profile: true}
		serial, err := core.Optimize(rt, tech, opt)
		if err != nil {
			t.Fatal(err)
		}
		par := make([]*core.Result, 2)
		errs := make([]error, len(par))
		var wg sync.WaitGroup
		for i := range par {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				par[i], errs[i] = core.Optimize(rt, tech, opt)
			}(i)
		}
		wg.Wait()
		for i, res := range par {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if len(serial.Suite) != len(res.Suite) {
				t.Fatalf("trial %d run %d: suite sizes differ: %d vs %d", trial, i, len(serial.Suite), len(res.Suite))
			}
			for k := range serial.Suite {
				if serial.Suite[k].Cost != res.Suite[k].Cost || serial.Suite[k].ARD != res.Suite[k].ARD {
					t.Fatalf("trial %d run %d: point %d differs: (%g,%g) vs (%g,%g)", trial, i, k,
						serial.Suite[k].Cost, serial.Suite[k].ARD, res.Suite[k].Cost, res.Suite[k].ARD)
				}
			}
			if !reflect.DeepEqual(serial.Stats, res.Stats) {
				t.Fatalf("trial %d run %d: stats differ: %+v vs %+v", trial, i, serial.Stats, res.Stats)
			}
			if !reflect.DeepEqual(serial.Profile, res.Profile) {
				t.Fatalf("trial %d run %d: lifecycle profiles differ:\nserial: %+v\nrun:    %+v",
					trial, i, serial.Profile, res.Profile)
			}
		}
	}
}

// TestQuickSuiteProperties: randomized checks of suite semantics —
// MinCost is monotone in the spec (looser specs never cost more) and
// always returns a point meeting the spec.
func TestQuickSuiteProperties(t *testing.T) {
	r := rand.New(rand.NewSource(1016))
	for trial := 0; trial < 10; trial++ {
		tr := testnet.RandTree(r, testnet.DefaultConfig())
		tech := testnet.RandTech(r, 1, 0)
		rt := tr.RootAt(testnet.RootTerminal(tr))
		res, err := core.Optimize(rt, tech, core.Options{Repeaters: true})
		if err != nil {
			t.Fatal(err)
		}
		s := res.Suite
		lo, hi := mustMinARD(t, s).ARD, s[0].ARD
		prevCost := math.Inf(1)
		for k := 0; k <= 20; k++ {
			spec := hi - (hi-lo)*float64(k)/20
			sol, ok := s.MinCost(spec)
			if !ok {
				t.Fatalf("trial %d: spec %g in achievable range infeasible", trial, spec)
			}
			if sol.ARD > spec+1e-9 {
				t.Fatalf("trial %d: returned ARD %g above spec %g", trial, sol.ARD, spec)
			}
			// Tighter spec (k increasing) must cost at least as much as
			// looser ones; we iterate tightening so cost must be
			// non-decreasing.
			if sol.Cost > prevCost && k == 0 {
				t.Fatalf("impossible")
			}
			if k > 0 && sol.Cost < prevCost-1e-9 && prevCost != math.Inf(1) {
				// cost decreased while tightening: contradiction
				t.Fatalf("trial %d: cost decreased from %g to %g while tightening", trial, prevCost, sol.Cost)
			}
			prevCost = sol.Cost
		}
	}
}
