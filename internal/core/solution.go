// Package core implements the paper's primary contribution: optimal
// repeater insertion for multisource nets (MSRI — Lillis & Cheng,
// TCAD'99, §IV). Given a routing topology with prescribed degree-two
// insertion points, a repeater library and a performance target, the
// bottom-up dynamic program of Fig. 5 computes the full suite of
// Pareto-optimal (cost, ARD) solutions; the min-cost solution meeting any
// ARD spec — Problem 2.1 — is then a lookup, as is the minimum-diameter
// solution (the cost-oblivious formulation the paper notes is subsumed).
//
// Each candidate subtree solution is characterized by three scalars and
// two piecewise-linear functions of the external capacitance c_E (§IV-B):
//
//	cost  — resources spent in the subtree
//	cap   — capacitance the subtree presents to its parent
//	Q     — max augmented delay from the subtree root to internal sinks
//	A(c_E) — max augmented arrival at the subtree root from internal sources
//	D(c_E) — max internal augmented RC-diameter
//
// Pruning uses the minimal functional subset (Definition 4.3): a
// solution's validity domain (an interval set over c_E) shrinks wherever
// another solution dominates it in all five coordinates.
//
// The same machinery solves discrete driver sizing (§V) by enumerating
// driver options at source leaves, and two documented extensions: wire
// sizing during Augment and inverting repeaters with polarity
// feasibility.
package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"msrnet/internal/buslib"
	"msrnet/internal/pwl"
	"msrnet/internal/rctree"
)

// Solution characterizes one candidate repeater/driver assignment for a
// subtree (§IV-B). Solutions are immutable once created; derivation links
// allow the concrete assignment to be reconstructed at the root.
type Solution struct {
	Cost float64
	Cap  float64
	// Q is the maximum augmented delay from the subtree root down to any
	// internal sink; −Inf when the subtree contains no sinks.
	Q float64
	// A gives the maximum augmented arrival time at the subtree root from
	// internal sources as a function of the external capacitance c_E;
	// constant −Inf when the subtree contains no sources.
	A pwl.Func
	// D gives the maximum augmented RC-diameter over source/sink pairs
	// both internal to the subtree, as a function of c_E; constant −Inf
	// when no such pair exists.
	D pwl.Func
	// Dom is the validity domain: the c_E values for which this solution
	// is not (yet known to be) dominated.
	Dom pwl.IntervalSet
	// Parity is the polarity of the subtree's terminals relative to the
	// subtree root signal (0 = non-inverted). Only meaningful when
	// inverting repeaters are in play; solutions of differing parity are
	// incomparable and at the root parity must be 0. A subtree without
	// terminals (a dangling Steiner stub) has no polarity: it stays 0
	// under an inverter and joins a sibling of either parity.
	Parity int

	// Derivation for assignment reconstruction.
	from1, from2 *Solution
	place        *placedRec
	drv          *drvRec
	width        *widthRec

	// lc is the candidate-lifecycle stamp (birth site, survival depth,
	// construction work). Nil unless Options.Profile; the pruners'
	// shrunk-domain copies share it, since a copy is the same logical
	// candidate.
	lc *lifeRec
}

// noTerminals reports whether the subtree holds no terminal: no sink
// (Q = −Inf) and no source (A ≡ −Inf). Only parity decisions ask.
func (s *Solution) noTerminals() bool {
	return math.IsInf(s.Q, -1) && math.IsInf(s.A.Eval(0), -1)
}

type placedRec struct {
	node int
	rep  buslib.Repeater
	aUp  bool
}

type drvRec struct {
	node   int
	driver buslib.Driver
}

type widthRec struct {
	edge  int
	width float64
}

// Assignment reconstructs the concrete placement decisions along this
// solution's derivation chain.
func (s *Solution) Assignment() rctree.Assignment {
	asg := rctree.Assignment{
		Repeaters: map[int]rctree.Placed{},
		Drivers:   map[int]buslib.Driver{},
		Widths:    map[int]float64{},
	}
	s.collect(&asg)
	if len(asg.Widths) == 0 {
		asg.Widths = nil
	}
	if len(asg.Drivers) == 0 {
		asg.Drivers = nil
	}
	return asg
}

func (s *Solution) collect(asg *rctree.Assignment) {
	for cur := s; cur != nil; {
		if cur.place != nil {
			asg.Repeaters[cur.place.node] = rctree.Placed{Rep: cur.place.rep, ASideUp: cur.place.aUp}
		}
		if cur.drv != nil {
			asg.Drivers[cur.drv.node] = cur.drv.driver
		}
		if cur.width != nil {
			asg.Widths[cur.width.edge] = cur.width.width
		}
		if cur.from2 != nil {
			cur.from2.collect(asg)
		}
		cur = cur.from1
	}
}

// RepeaterCount returns the number of repeaters in the derivation.
func (s *Solution) RepeaterCount() int {
	n := 0
	for cur := s; cur != nil; {
		if cur.place != nil {
			n++
		}
		if cur.from2 != nil {
			n += cur.from2.RepeaterCount()
		}
		cur = cur.from1
	}
	return n
}

// String summarizes the solution for debugging.
func (s *Solution) String() string {
	return fmt.Sprintf("sol{cost=%.3g cap=%.4g q=%.4g |A|=%d |D|=%d dom=%v}",
		s.Cost, s.Cap, s.Q, s.A.NumSegs(), s.D.NumSegs(), s.Dom)
}

// domTol is the tolerance for dominance comparisons: tiny slack so that
// floating-point noise does not keep provably equal solutions alive.
const domTol = 1e-12

// dominatedRegion returns the subset of t.Dom on which s dominates t:
// s's scalars are all ≤ t's, and on the returned c_E region (within
// s.Dom) s's A and D do not exceed t's. Parities must match; mismatched
// parity never dominates.
//
// eps relaxes the comparison on the delay coordinates only (Q, A, D): a
// solution whose delays are within eps of a cheaper one is treated as
// dominated. Cost and Cap stay at the strict tolerance, so eps trades
// timing accuracy — never resource accounting — for smaller sets. The
// induced ARD error is additive per prune pass: at most eps per call,
// hence ≤ eps·Stats.PruneCalls for the whole run.
func dominatedRegion(s, t *Solution, eps float64) pwl.IntervalSet {
	if s.Parity != t.Parity {
		return nil
	}
	if s.Cost > t.Cost+domTol || s.Cap > t.Cap+domTol || !scalarLeq(s.Q, t.Q, domTol+eps) {
		return nil
	}
	reg := s.Dom.Intersect(t.Dom)
	if reg.IsEmpty() {
		return nil
	}
	reg = reg.Intersect(s.A.LeqRegions(t.A, domTol+eps))
	if reg.IsEmpty() {
		return nil
	}
	reg = reg.Intersect(s.D.LeqRegions(t.D, domTol+eps))
	return reg
}

func scalarLeq(a, b, tol float64) bool {
	if math.IsInf(a, -1) {
		return true
	}
	if math.IsInf(b, -1) {
		return false
	}
	return a <= b+tol
}

// pollEvery is the number of dominance tests a prune pass runs between
// two polls of the run's context. One prune of a large set can run
// millions of tests, so polling only at prune entry would let it
// overrun a deadline by its whole length.
const pollEvery = 1024

// poll counts one dominance test of a prune pass and polls the run's
// context after every pollEvery of them. It reports whether the walk
// unwinds; the pass then returns nil at once, as prune does. The
// passes call it only when a context is installed, so without one it
// adds no work.
func (d *dp) poll() bool {
	d.tests++
	if d.tests%pollEvery == 0 {
		d.aborted()
	}
	return d.err != nil
}

// pruneNaive computes the minimal functional subset of work by pairwise
// comparison (O(k²) pairs). work must be in sortedCopy's order; it is
// pruned in place, and the survivors, still in that order, are returned
// as a prefix of it. Solutions whose domain becomes empty are removed;
// surviving solutions may carry reduced domains. The lifecycle
// profile, when on, receives one death attribution per candidate at
// the subtraction that empties its domain.
func (d *dp) pruneNaive(work []*Solution) []*Solution {
	for i := range work {
		if work[i].Dom.IsEmpty() {
			continue
		}
		for j := range work {
			if i == j || work[j].Dom.IsEmpty() {
				continue
			}
			if d.ctx != nil && d.poll() {
				return nil
			}
			reg := dominatedRegion(work[i], work[j], d.opt.CoarseEps)
			if reg.IsEmpty() {
				continue
			}
			cp := *work[j]
			cp.Dom = work[j].Dom.Subtract(reg)
			if d.lp != nil {
				if cp.Dom.IsEmpty() {
					d.lp.kill(work[i], work[j], d.opt.CoarseEps)
				} else if cp.lc != nil {
					cp.lc.domCut = true
				}
			}
			work[j] = &cp
		}
	}
	out := work[:0]
	for _, s := range work {
		if !s.Dom.IsEmpty() {
			out = append(out, s)
		}
	}
	return out
}

// pruneDivide computes the minimal functional subset by the divide and
// conquer scheme of Fig. 4: recursively prune each half, then prune each
// half against the other. Suboptimal solutions discarded deep in the
// recursion never participate in higher-level comparisons, which is the
// source of the speedup in practice. work must be in sortedCopy's order;
// the survivors keep that order, because every pass below keeps a
// subsequence of its sorted input.
func (d *dp) pruneDivide(work []*Solution) []*Solution {
	out := d.mfsRec(work)
	final := out[:0]
	for _, s := range out {
		if !s.Dom.IsEmpty() {
			final = append(final, s)
		}
	}
	return final
}

// mfsRec returns the survivors of the sorted slice sols in their input
// order, so its output is sorted too; nil once the walk unwinds.
func (d *dp) mfsRec(sols []*Solution) []*Solution {
	if len(sols) <= 1 {
		return sols
	}
	if len(sols) <= 4 {
		// Prune a copy: in place, every domain-cut copy pruneNaive makes
		// would stay reachable from the caller's array until the whole
		// prune returns, instead of dying with this level's cross-prune.
		return d.pruneNaive(slices.Clone(sols))
	}
	mid := len(sols) / 2
	left := d.mfsRec(sols[:mid])
	right := d.mfsRec(sols[mid:])
	// Cross-prune: right against left, then left against the surviving
	// right.
	right = d.pruneAgainst(right, left)
	left = d.pruneAgainst(left, right)
	if d.err != nil {
		return nil
	}
	return append(left, right...)
}

// pruneAgainst shrinks the domains of targets using the members of
// pruners, returning the surviving targets; nil once the walk unwinds.
func (d *dp) pruneAgainst(targets, prunners []*Solution) []*Solution {
	out := make([]*Solution, 0, len(targets))
	for _, t := range targets {
		cur := t
		for _, s := range prunners {
			if s.Dom.IsEmpty() || cur.Dom.IsEmpty() {
				continue
			}
			if d.ctx != nil && d.poll() {
				return nil
			}
			reg := dominatedRegion(s, cur, d.opt.CoarseEps)
			if reg.IsEmpty() {
				continue
			}
			nd := cur.Dom.Subtract(reg)
			cp := *cur
			cp.Dom = nd
			if d.lp != nil {
				if nd.IsEmpty() {
					d.lp.kill(s, cur, d.opt.CoarseEps)
				} else if cp.lc != nil {
					cp.lc.domCut = true
				}
			}
			cur = &cp
		}
		if !cur.Dom.IsEmpty() {
			out = append(out, cur)
		}
	}
	return out
}

// sortedCopy returns sols copied and stably ordered by (cost, cap, Q) —
// the organizational convention of §V that keeps comparisons cheap and
// output deterministic. It is the one sort of a prune call.
func sortedCopy(sols []*Solution) []*Solution {
	work := slices.Clone(sols)
	slices.SortStableFunc(work, func(a, b *Solution) int {
		if c := cmp.Compare(a.Cost, b.Cost); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Cap, b.Cap); c != 0 {
			return c
		}
		return cmp.Compare(a.Q, b.Q)
	})
	return work
}
