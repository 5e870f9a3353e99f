package core

import (
	"context"
	"errors"
	"testing"

	"msrnet/internal/buslib"
	"msrnet/internal/netgen"
	"msrnet/internal/pwl"
)

// pollHook is a context whose Err calls onPoll at every poll and
// returns its error.
type pollHook struct {
	context.Context
	onPoll func() error
}

func (c pollHook) Err() error { return c.onPoll() }

// TestPruneTestsBetweenPolls: the DP polls its context at least once
// every pollEvery dominance tests, inside a prune as well as between
// them, so a deadline stops a large MFS within bounded work instead of
// at the end of the prune. The test reads the run's test count at each
// poll and bounds every gap, the one after the last poll included.
func TestPruneTestsBetweenPolls(t *testing.T) {
	tr, err := netgen.Generate(1, netgen.Defaults(10))
	if err != nil {
		t.Fatal(err)
	}
	rt := tr.RootAt(tr.Terminals()[0])
	d := &dp{rt: rt, tech: buslib.Default(), opt: Options{Repeaters: true}}
	var last, widest uint
	d.ctx = pollHook{Context: context.Background(), onPoll: func() error {
		widest = max(widest, d.tests-last)
		last = d.tests
		return nil
	}}
	d.solve(rt.Children[rt.Root][0])
	if d.err != nil {
		t.Fatal(d.err)
	}
	widest = max(widest, d.tests-last)
	if d.tests < 20*pollEvery {
		t.Fatalf("the walk ran %d dominance tests; the test needs prunes much longer than %d", d.tests, pollEvery)
	}
	if widest > pollEvery {
		t.Errorf("%d dominance tests ran between two polls, want at most %d", widest, pollEvery)
	}
}

// TestJoinPollsEveryRow: a join polls the run's context once per row of
// its |s1|·|s2| product, and a join the deadline stops returns nil at
// once, so a deadline waits for at most one row of a large join instead
// of the whole product and its sort.
func TestJoinPollsEveryRow(t *testing.T) {
	set := func(n int) []*Solution {
		out := make([]*Solution, n)
		for i := range out {
			out[i] = &Solution{Cost: float64(i), Cap: 1, A: pwl.Linear(0, 1), D: pwl.NegInf(), Dom: pwl.Full()}
		}
		return out
	}
	s1, s2 := set(5), set(7)
	polls, failAt := 0, 0
	d := &dp{ctx: pollHook{Context: context.Background(), onPoll: func() error {
		if polls++; polls == failAt {
			return context.DeadlineExceeded
		}
		return nil
	}}}
	if out := d.joinSets(s1, s2, 0); len(out) != len(s1)*len(s2) || polls != len(s1) {
		t.Fatalf("a %d×%d join built %d candidates over %d polls, want %d over one poll per row",
			len(s1), len(s2), len(out), polls, len(s1)*len(s2))
	}
	polls, failAt = 0, 3
	if out := d.joinSets(s1, s2, 0); out != nil || !errors.Is(d.err, context.DeadlineExceeded) || polls != failAt {
		t.Fatalf("deadline at row %d: %d candidates, err=%v after %d polls; want nil and the deadline at that row",
			failAt, len(out), d.err, polls)
	}
}
