package core

import (
	"math"
	"sort"

	"msrnet/internal/ard"
	"msrnet/internal/buslib"
	"msrnet/internal/rctree"
	"msrnet/internal/topo"
)

// CostARD is one point of a cost/performance tradeoff.
type CostARD struct {
	Cost float64
	ARD  float64
}

// ParetoPoints sorts points by cost and keeps those that strictly improve
// the ARD — the same frontier rule used by Suite.
func ParetoPoints(pts []CostARD) []CostARD {
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Cost != pts[j].Cost {
			return pts[i].Cost < pts[j].Cost
		}
		return pts[i].ARD < pts[j].ARD
	})
	out := pts[:0]
	best := math.Inf(1)
	for _, p := range pts {
		if p.ARD < best-domTol {
			out = append(out, p)
			best = p.ARD
		}
	}
	return out
}

// BruteForce exhaustively enumerates every repeater assignment (in
// sizing mode, every driver assignment, and with WireWidths, every
// width on every edge of positive length), evaluates each with the
// independent linear-time ARD algorithm, and returns the exact Pareto
// frontier. It is exponential and exists to verify Theorem 4.1 on small
// instances; keep the number of insertion points below ~8.
func BruteForce(rt *topo.Rooted, tech buslib.Tech, opt Options) []CostARD {
	type choice struct {
		placed *rctree.Placed
		cost   float64
	}
	// Choices per insertion point.
	var repChoices []choice
	repChoices = append(repChoices, choice{})
	if opt.Repeaters {
		for _, rep := range tech.Repeaters {
			if rep.Inverting && !opt.AllowInverting {
				continue
			}
			orientations := []bool{true}
			if !rep.Symmetric() {
				orientations = []bool{true, false}
			}
			for _, aUp := range orientations {
				r := rep
				repChoices = append(repChoices, choice{
					placed: &rctree.Placed{Rep: r, ASideUp: aUp},
					cost:   rep.Cost,
				})
			}
		}
	}
	ins := rt.Tree.Insertions()
	var srcs []int
	if opt.SizeDrivers {
		srcs = rt.Tree.Sources()
	}
	// A width on a zero-length edge changes nothing, so only edges of
	// positive length are enumerated.
	var edges []int
	if len(opt.WireWidths) > 0 {
		for e := 0; e < rt.Tree.NumEdges(); e++ {
			if rt.Tree.Edge(e).Length > 0 {
				edges = append(edges, e)
			}
		}
	}

	var pts []CostARD
	var evalWidths func(k int, asg rctree.Assignment, cost float64)
	evalWidths = func(k int, asg rctree.Assignment, cost float64) {
		if k == len(edges) {
			pts = append(pts, evalOne(rt, tech, asg, cost, opt))
			return
		}
		length := rt.Tree.Edge(edges[k]).Length
		for _, w := range opt.WireWidths {
			na := asg.Clone()
			if na.Widths == nil {
				na.Widths = map[int]float64{}
			}
			na.Widths[edges[k]] = w
			evalWidths(k+1, na, cost+(w-1)*length*opt.WireCostPerUm)
		}
	}
	var recurse func(i int, asg rctree.Assignment, cost float64)
	evalDrivers := func(asg rctree.Assignment, cost float64) {
		if !opt.SizeDrivers {
			evalWidths(0, asg, cost)
			return
		}
		var rec func(j int, asg rctree.Assignment, cost float64)
		rec = func(j int, asg rctree.Assignment, cost float64) {
			if j == len(srcs) {
				evalWidths(0, asg, cost)
				return
			}
			for _, drv := range tech.Drivers {
				na := asg.Clone()
				if na.Drivers == nil {
					na.Drivers = map[int]buslib.Driver{}
				}
				na.Drivers[srcs[j]] = drv
				rec(j+1, na, cost+drv.Cost)
			}
		}
		rec(0, asg, cost)
	}
	recurse = func(i int, asg rctree.Assignment, cost float64) {
		if i == len(ins) {
			if !parityFeasible(rt, asg) {
				return
			}
			evalDrivers(asg, cost)
			return
		}
		for _, ch := range repChoices {
			na := asg.Clone()
			if ch.placed != nil {
				if na.Repeaters == nil {
					na.Repeaters = map[int]rctree.Placed{}
				}
				na.Repeaters[ins[i]] = *ch.placed
			}
			recurse(i+1, na, cost+ch.cost)
		}
	}
	recurse(0, rctree.Assignment{}, 0)
	return ParetoPoints(pts)
}

func evalOne(rt *topo.Rooted, tech buslib.Tech, asg rctree.Assignment, cost float64, opt Options) CostARD {
	n := rctree.NewNet(rt, tech, asg)
	res := ard.Compute(n, ard.Options{IncludeSelf: opt.IncludeSelf})
	return CostARD{Cost: cost, ARD: res.ARD}
}

// parityFeasible checks the inverting-repeater polarity constraint: every
// terminal must observe an even number of inversions from every other
// terminal, which holds iff all terminals have equal inversion parity to
// the root.
func parityFeasible(rt *topo.Rooted, asg rctree.Assignment) bool {
	t := rt.Tree
	parity := make([]int, t.NumNodes())
	// Pre-order walk from root.
	for i := len(rt.PostOrder) - 1; i >= 0; i-- {
		v := rt.PostOrder[i]
		if v == rt.Root {
			parity[v] = 0
			continue
		}
		p := parity[rt.Parent[v]]
		if pl, ok := asg.Repeaters[v]; ok && pl.Rep.Inverting {
			p ^= 1
		}
		parity[v] = p
	}
	// A repeater AT node v flips signals passing through v; terminals are
	// leaves so the parity of the terminal is the parity accumulated
	// along its root path (inverters at the terminal itself cannot occur).
	ref := -1
	for _, v := range t.Terminals() {
		if ref == -1 {
			ref = parity[v]
		} else if parity[v] != ref {
			return false
		}
	}
	return true
}
