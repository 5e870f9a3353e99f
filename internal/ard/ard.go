// Package ard implements the linear-time computation of the augmented
// RC-diameter (ARD) of a multisource net under the Elmore delay model —
// the algorithm of Fig. 2 of Lillis & Cheng (TCAD'99, §III).
//
// The ARD of a topology T is
//
//	ARD(T) = max over sources u, sinks v of  AAT(u) + PD(u,v) + Q(v),
//
// the worst augmented delay across the net. The naive method runs one
// single-source Elmore propagation per source, O(s·n); this package
// computes the same value in a single O(n) depth-first pass after the two
// capacitance passes of eqs. (1)–(2), maintaining for every subtree three
// values: the maximum augmented arrival time a at the subtree root via
// internal sources, the maximum augmented delay q from the root to
// internal sinks, and the maximum internal augmented diameter d.
package ard

import (
	"math"

	"msrnet/internal/obs"
	"msrnet/internal/obs/trace"
	"msrnet/internal/rctree"
	"msrnet/internal/topo"
)

// Options tunes the ARD computation.
type Options struct {
	// IncludeSelf counts u==v source/sink pairs (a terminal observing its
	// own launch). The bus-timing interpretation excludes them, matching
	// the experiments in §VI; enable for the fully general diameter.
	IncludeSelf bool
	// Obs, when non-nil, records per-run node counters, the observable
	// side of the §III linear-time claim. Nil is free.
	Obs *obs.Registry
	// Trace, when non-nil, records the timeline of the three Fig. 2
	// passes — "ard/stage_cap" (the eqs. 1–2 capacitance pass),
	// "ard/dfs" (the post-order (a, q, d) walk) and "ard/root" (the root
	// combination) — nested under one "ard/compute" slice whose args
	// carry the input sizes (nodes, sources, sinks) the O(n) claim is
	// stated over. Nil is free.
	Trace *trace.Tracer
	// TraceArgs are appended to every trace event this run emits —
	// request-scoped identity (trace_id, job seq) in the serving layer,
	// so a shared ring can be filtered per job. Ignored without Trace.
	TraceArgs []trace.Arg
}

// targs appends the run's identity tags to an event's own args.
func (o *Options) targs(args ...trace.Arg) []trace.Arg {
	return append(args, o.TraceArgs...)
}

// Result carries the ARD value and the witnessing critical pair.
type Result struct {
	ARD      float64
	CritSrc  int // terminal node id of the critical source (-1 if none)
	CritSink int // terminal node id of the critical sink (-1 if none)
}

// valued pairs a scalar with the terminal that witnesses it, so the
// critical pair can be reported (Fig. 11 of the paper annotates solutions
// with their critical source and sink).
type valued struct {
	v    float64
	node int
}

func negInfV() valued { return valued{v: math.Inf(-1), node: -1} }

func maxV(a, b valued) valued {
	if b.v > a.v {
		return b
	}
	return a
}

// pairVal is a diameter candidate with its witnessing pair.
type pairVal struct {
	v         float64
	src, sink int
}

func negInfP() pairVal { return pairVal{v: math.Inf(-1), src: -1, sink: -1} }

func maxP(a, b pairVal) pairVal {
	if b.v > a.v {
		return b
	}
	return a
}

// subtree holds the (a, q, d) triple of Fig. 2 for one subtree.
type subtree struct {
	a valued  // max augmented arrival at the subtree root from internal sources
	q valued  // max augmented delay from the subtree root to internal sinks
	d pairVal // max internal augmented diameter
}

// lifted is a child's (a, q) after crossing the wire to its parent.
type lifted struct {
	a, q valued
}

// Compute returns the ARD of the assigned net in linear time.
func Compute(n *rctree.Net, opt Options) Result {
	t := n.R.Tree
	trTotal := opt.Trace.Begin("ard/compute", "ard")
	defer func() {
		trTotal.End(opt.targs(trace.I("nodes", t.NumNodes()),
			trace.I("sources", len(t.Sources())), trace.I("sinks", len(t.Sinks())))...)
	}()
	if opt.Obs != nil {
		opt.Obs.Counter("ard/runs").Inc()
		opt.Obs.Counter("ard/nodes").Add(int64(t.NumNodes()))
		opt.Obs.Counter("ard/sources").Add(int64(len(t.Sources())))
		opt.Obs.Counter("ard/sinks").Add(int64(len(t.Sinks())))
	}
	// Per-node total stage capacitance for O(1) "stage cap away from
	// child c" queries at branch points: stageCap[v] − wireCap(c) −
	// CapBelow[c]. Undefined at repeater nodes, whose sides decouple.
	trCap := opt.Trace.Begin("ard/stage_cap", "ard")
	stageCap := make([]float64, t.NumNodes())
	for _, v := range n.R.PostOrder {
		if _, ok := n.Assign.Repeaters[v]; ok {
			stageCap[v] = math.NaN()
			continue
		}
		stageCap[v] = n.StageCapAt(v)
	}
	trCap.End(opt.targs(trace.I("nodes", t.NumNodes()))...)

	trDFS := opt.Trace.Begin("ard/dfs", "ard")
	sub := make([]subtree, t.NumNodes())
	for _, v := range n.R.PostOrder {
		if v == n.R.Root {
			break // root is last in post-order; handled below
		}
		nd := t.Node(v)
		if nd.Kind == topo.Terminal {
			sub[v] = leafTriple(n, v, opt)
			continue
		}
		cur := subtree{a: negInfV(), q: negInfV(), d: negInfP()}
		lifts := make([]lifted, 0, len(n.R.Children[v]))
		_, hasRep := n.Assign.Repeaters[v]
		for _, c := range n.R.Children[v] {
			e := n.R.ParentEdge[c]
			re, ce := n.EdgeRes(e), n.EdgeCap(e)
			la := sub[c].a
			if !math.IsInf(la.v, -1) {
				var away float64
				if hasRep {
					away = n.Assign.Repeaters[v].CapDownSide()
				} else {
					away = stageCap[v] - ce - n.CapBelow[c]
				}
				la.v += re * (ce/2 + away)
			}
			lq := sub[c].q
			if !math.IsInf(lq.v, -1) {
				lq.v += re * (ce/2 + n.CapBelow[c])
			}
			lifts = append(lifts, lifted{a: la, q: lq})
			cur.a = maxV(cur.a, la)
			cur.q = maxV(cur.q, lq)
			cur.d = maxP(cur.d, sub[c].d)
		}
		// Cross-branch diameter pairs: max over i ≠ j of a_i' + q_j'.
		if len(lifts) >= 2 {
			cur.d = maxP(cur.d, crossMax(lifts))
		}
		// Crossing a repeater at v rebases a and q to the parent side.
		if pl, ok := n.Assign.Repeaters[v]; ok {
			if !math.IsInf(cur.a.v, -1) {
				du, ru := pl.UpDelay()
				e := n.R.ParentEdge[v]
				cur.a.v += du + ru*(n.EdgeCap(e)+n.CapAboveFrom[v])
			}
			if !math.IsInf(cur.q.v, -1) {
				dd, rd := pl.DownDelay()
				var below float64
				for _, c := range n.R.Children[v] {
					below += n.EdgeCap(n.R.ParentEdge[c]) + n.CapBelow[c]
				}
				cur.q.v = dd + rd*below + cur.q.v
			}
		}
		sub[v] = cur
	}
	trDFS.End(opt.targs(trace.I("nodes", len(n.R.PostOrder)))...)

	// Root combination. The paper roots the tree at an arbitrary terminal;
	// the root acts as one more leaf joined to its (single) child branch.
	trRoot := opt.Trace.Begin("ard/root", "ard")
	root := n.R.Root
	rootNd := t.Node(root)
	rootLeaf := leafTriple(n, root, opt)
	best := negInfP()
	if opt.IncludeSelf && !math.IsInf(rootLeaf.a.v, -1) && !math.IsInf(rootLeaf.q.v, -1) {
		best = maxP(best, pairVal{v: rootLeaf.a.v + rootLeaf.q.v, src: root, sink: root})
	}
	var rootLifts []lifted
	for _, c := range n.R.Children[root] {
		e := n.R.ParentEdge[c]
		re, ce := n.EdgeRes(e), n.EdgeCap(e)
		la := sub[c].a
		if !math.IsInf(la.v, -1) {
			la.v += re * (ce/2 + stageCap[root] - ce - n.CapBelow[c])
		}
		lq := sub[c].q
		if !math.IsInf(lq.v, -1) {
			lq.v += re * (ce/2 + n.CapBelow[c])
		}
		rootLifts = append(rootLifts, lifted{a: la, q: lq})
		best = maxP(best, sub[c].d)
		if rootNd.Kind == topo.Terminal && rootNd.Term.IsSink && !math.IsInf(la.v, -1) {
			best = maxP(best, pairVal{v: la.v + rootNd.Term.Q, src: la.node, sink: root})
		}
		if !math.IsInf(rootLeaf.a.v, -1) && !math.IsInf(lq.v, -1) {
			best = maxP(best, pairVal{v: rootLeaf.a.v + lq.v, src: root, sink: lq.node})
		}
	}
	// Cross pairs between distinct root branches (only if the root is not
	// a leaf, e.g. before EnsureTerminalLeaves or when rooted at a Steiner
	// node in tests).
	if len(rootLifts) >= 2 {
		best = maxP(best, crossMax(rootLifts))
	}
	trRoot.End(opt.targs(trace.I("branches", len(rootLifts)))...)
	return Result{ARD: best.v, CritSrc: best.src, CritSink: best.sink}
}

// leafTriple builds the (a, q, d) triple for a leaf terminal (or the root
// terminal acting as a leaf).
func leafTriple(n *rctree.Net, v int, opt Options) subtree {
	nd := n.R.Tree.Node(v)
	out := subtree{a: negInfV(), q: negInfV(), d: negInfP()}
	if nd.Kind != topo.Terminal {
		return out
	}
	term := nd.Term
	if term.IsSource {
		rout, intr := driverOf(n, v)
		out.a = valued{v: term.AAT + intr + rout*n.StageCapAt(v), node: v}
	}
	if term.IsSink {
		out.q = valued{v: term.Q, node: v}
	}
	if opt.IncludeSelf && term.IsSource && term.IsSink {
		out.d = pairVal{v: out.a.v + out.q.v, src: v, sink: v}
	}
	return out
}

// crossMax returns the maximum a_i + q_j over i ≠ j, with witnesses.
func crossMax(lifts []lifted) pairVal {
	best := negInfP()
	// Best and second-best arrival with owner index.
	bi, si := -1, -1
	for i, l := range lifts {
		if bi == -1 || l.a.v > lifts[bi].a.v {
			si, bi = bi, i
		} else if si == -1 || l.a.v > lifts[si].a.v {
			si = i
		}
	}
	for j, l := range lifts {
		if math.IsInf(l.q.v, -1) {
			continue
		}
		ai := bi
		if j == bi {
			ai = si
		}
		if ai == -1 || math.IsInf(lifts[ai].a.v, -1) {
			continue
		}
		best = maxP(best, pairVal{
			v:    lifts[ai].a.v + l.q.v,
			src:  lifts[ai].a.node,
			sink: l.q.node,
		})
	}
	return best
}

func driverOf(n *rctree.Net, s int) (rout, intrinsic float64) {
	term := n.R.Tree.Node(s).Term
	if d, ok := n.Assign.Drivers[s]; ok {
		return d.Rout, d.Intrinsic
	}
	return term.Rout, term.DriverIntrinsic
}
