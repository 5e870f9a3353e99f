package core_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"msrnet/internal/ard"
	"msrnet/internal/buslib"
	"msrnet/internal/core"
	"msrnet/internal/netgen"
	"msrnet/internal/rctree"
	"msrnet/internal/testnet"
)

// TestCoarseEpsBound: the ε-relaxed dominance of the degraded mode may
// lose accuracy, but only within the documented bound — the coarse
// minimum ARD exceeds the exact one by at most ε per prune call. The
// returned solutions must still be self-consistent: each claimed ARD is
// reproduced by evaluating its reconstructed assignment.
func TestCoarseEpsBound(t *testing.T) {
	const eps = 0.05
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		tr := testnet.RandTree(r, testnet.DefaultConfig())
		tech := testnet.RandTech(r, 1, 0)
		rt := tr.RootAt(testnet.RootTerminal(tr))

		exact, err := core.Optimize(rt, tech, core.Options{Repeaters: true})
		if err != nil {
			t.Fatal(err)
		}
		coarse, err := core.Optimize(rt, tech, core.Options{Repeaters: true, CoarseEps: eps})
		if err != nil {
			t.Fatal(err)
		}
		exactBest := mustMinARD(t, exact.Suite)
		coarseBest := mustMinARD(t, coarse.Suite)

		bound := exactBest.ARD + eps*float64(coarse.Stats.PruneCalls) + 1e-9
		if coarseBest.ARD > bound {
			t.Errorf("trial %d: coarse ARD %.9g exceeds bound %.9g (exact %.9g, %d prunes)",
				trial, coarseBest.ARD, bound, exactBest.ARD, coarse.Stats.PruneCalls)
		}
		// Coarser pruning never finds something better than exact.
		if coarseBest.ARD < exactBest.ARD-1e-9 {
			t.Errorf("trial %d: coarse ARD %.9g beats exact %.9g", trial, coarseBest.ARD, exactBest.ARD)
		}
		// Degraded solutions are still real solutions: re-evaluating the
		// reconstructed assignment reproduces the claimed ARD.
		net := rctree.NewNet(rt, tech, coarseBest.Assignment())
		got := ard.Compute(net, ard.Options{}).ARD
		if math.Abs(got-coarseBest.ARD) > 1e-6*(1+coarseBest.ARD) {
			t.Errorf("trial %d: coarse assignment evaluates to %.9g, suite says %.9g",
				trial, got, coarseBest.ARD)
		}
		// The relaxation may only shrink the search: never more work.
		if coarse.Stats.SolutionsCreated > exact.Stats.SolutionsCreated {
			t.Errorf("trial %d: coarse created %d solutions, exact %d",
				trial, coarse.Stats.SolutionsCreated, exact.Stats.SolutionsCreated)
		}
	}
}

// TestCoarseEpsRejectsBadValues: NaN/Inf/negative ε are configuration
// errors, not silently-exact runs.
func TestCoarseEpsRejectsBadValues(t *testing.T) {
	r := rand.New(rand.NewSource(78))
	tr := testnet.RandTree(r, testnet.DefaultConfig())
	tech := testnet.RandTech(r, 1, 0)
	rt := tr.RootAt(testnet.RootTerminal(tr))
	for _, eps := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := core.Optimize(rt, tech, core.Options{Repeaters: true, CoarseEps: eps}); err == nil {
			t.Errorf("CoarseEps %v accepted", eps)
		}
	}
}

// TestOptimizeHonorsContext: the DP polls Options.Context and unwinds
// with a typed error instead of returning a truncated suite.
func TestOptimizeHonorsContext(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	tr := testnet.RandTree(r, testnet.DefaultConfig())
	tech := testnet.RandTech(r, 1, 0)
	rt := tr.RootAt(testnet.RootTerminal(tr))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := core.Optimize(rt, tech, core.Options{Repeaters: true, Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled context: res=%v err=%v, want context.Canceled", res, err)
	}

	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	res, err = core.Optimize(rt, tech, core.Options{Repeaters: true, Context: expired})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: res=%v err=%v, want context.DeadlineExceeded", res, err)
	}

	// A live context changes nothing.
	res, err = core.Optimize(rt, tech, core.Options{Repeaters: true, Context: context.Background()})
	if err != nil || len(res.Suite) == 0 {
		t.Fatalf("live context: err=%v", err)
	}
}

// pollContext is a live context whose Err starts failing with
// DeadlineExceeded at the failAt-th poll (never when failAt is 0), and
// which counts the polls.
type pollContext struct {
	context.Context
	failAt, polls int
}

func (c *pollContext) Err() error {
	c.polls++
	if c.failAt > 0 && c.polls >= c.failAt {
		return context.DeadlineExceeded
	}
	return nil
}

// TestOptimizeDeadlineAtEveryPoll: wherever in the walk the deadline
// hits, Optimize reports it as the context's error — including at the
// last poll, inside the root edge's wire-width augment, where a prune
// that unwinds leaves nothing for the suite.
func TestOptimizeDeadlineAtEveryPoll(t *testing.T) {
	tr, err := netgen.Generate(1, netgen.Defaults(3))
	if err != nil {
		t.Fatal(err)
	}
	rt := tr.RootAt(tr.Terminals()[0])
	opt := core.Options{Repeaters: true, WireWidths: []float64{1, 2}}
	live := &pollContext{Context: context.Background()}
	opt.Context = live
	if _, err := core.Optimize(rt, buslib.Default(), opt); err != nil {
		t.Fatal(err)
	}
	if live.polls < 2 {
		t.Fatalf("a full run polled %d times; the test needs a walk that polls", live.polls)
	}
	for failAt := 1; failAt <= live.polls; failAt++ {
		opt.Context = &pollContext{Context: context.Background(), failAt: failAt}
		if _, err := core.Optimize(rt, buslib.Default(), opt); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("deadline from poll %d of %d: err=%v, want context.DeadlineExceeded", failAt, live.polls, err)
		}
	}
}
