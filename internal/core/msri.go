package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"msrnet/internal/buslib"
	"msrnet/internal/obs"
	"msrnet/internal/obs/trace"
	"msrnet/internal/pwl"
	"msrnet/internal/rctree"
	"msrnet/internal/topo"
)

// Pruner selects the minimal-functional-subset implementation.
type Pruner int

const (
	// PruneDivide is the divide-and-conquer scheme of Fig. 4 (default).
	PruneDivide Pruner = iota
	// PruneNaive is the quadratic pairwise scheme, kept as a baseline and
	// cross-check.
	PruneNaive
	// PruneOff disables pruning entirely (exponential; only for tiny
	// ablation experiments).
	PruneOff
)

// String names the pruner for metrics and diagnostics.
func (p Pruner) String() string {
	switch p {
	case PruneNaive:
		return "naive"
	case PruneOff:
		return "off"
	default:
		return "divide"
	}
}

// Options configures an optimization run.
type Options struct {
	// Repeaters enables repeater insertion at the topology's insertion
	// points using Tech.Repeaters.
	Repeaters bool
	// SizeDrivers enables discrete driver sizing: every source terminal
	// chooses a driver from Tech.Drivers (cost included) instead of its
	// fixed built-in driver.
	SizeDrivers bool
	// IncludeSelf counts u==v source/sink pairs in the ARD.
	IncludeSelf bool
	// AllowInverting permits repeaters marked Inverting, enforcing global
	// polarity feasibility (all terminals must see even inversion parity,
	// §V extension).
	AllowInverting bool
	// WireWidths, when non-empty, lets Augment choose a width factor for
	// every wire (wire-sizing extension; width w scales R by 1/w and C by
	// w). Width 1 should normally be included.
	WireWidths []float64
	// WireCostPerUm is the cost of one µm of wire at one unit of extra
	// width: a wire of length L at width w adds (w−1)·L·WireCostPerUm.
	WireCostPerUm float64
	// Pruner selects the MFS implementation.
	Pruner Pruner
	// MaxSolutions, when positive, aborts the run with an error if any
	// pruned per-node solution set exceeds this size — a guard against
	// the (rare, but possible; see the paper's footnote 13) exponential
	// growth of the PWL solution space on adversarial inputs.
	MaxSolutions int
	// Obs, when non-nil, receives the run's Stats as core/* series —
	// solutions created, prune calls and drops keyed by pruner kind,
	// nodes visited and the sum of their final set sizes (counters), the
	// largest set and the largest PWL segment count (max gauges) — added
	// once when the run ends or aborts. A nil Obs keeps the hot paths
	// allocation-free.
	Obs *obs.Registry
	// Context, when non-nil, is polled at every node visit and prune
	// call; once it is canceled or past its deadline the run unwinds and
	// Optimize returns an error wrapping ctx.Err() (test with
	// errors.Is(err, context.DeadlineExceeded) etc.). Partial work is
	// discarded — the suite is never silently truncated.
	Context context.Context
	// CoarseEps relaxes dominance on the delay coordinates (Q, A, D) by
	// the given amount while keeping Cost and Cap exact, shrinking
	// solution sets at a bounded accuracy price: the returned minimum
	// ARD exceeds the exact one by at most CoarseEps·Stats.PruneCalls.
	// Zero (the default) is the exact algorithm; this is the degraded
	// mode the serving layer falls back to under deadline pressure.
	CoarseEps float64
	// Trace, when non-nil, records the per-node timeline of the bottom-up
	// walk into the ring tracer: one "dp/leaf"/"dp/steiner"/"dp/insertion"
	// slice per node (args: node id, final set size, max PWL segment
	// count) and one "dp/prune" slice per prune call (args: pre/post
	// sizes, drops). Export with Tracer.WriteJSON and load in Perfetto.
	// Orthogonal to Obs; a nil Trace costs one nil check per event site.
	Trace *trace.Tracer
	// TraceArgs are appended to every trace event this run emits. The
	// serving layer sets the request-scoped identity here (trace_id and
	// job seq), so many jobs sharing one ring tracer stay separable in
	// a Perfetto view. Ignored without Trace.
	TraceArgs []trace.Arg
	// Profile enables candidate-lifecycle profiling: every solution is
	// stamped with its birth site, deaths are attributed to a cause, and
	// the wasted construction work is aggregated into Result.Profile
	// (the raw material of the msrnet-solveprof/v1 artifact). With a
	// Trace also installed, each set-forming step additionally emits a
	// "dp/wavefront" instant carrying the live set size. Profiling never
	// changes the computation — suites and Stats are identical with it
	// on or off — and costs nothing when false (one nil check per hook,
	// no allocations).
	Profile bool
}

// Stats reports work done by the dynamic program: the one counter block
// every step reports into, read by the core/* metrics, the explain
// reports and the bench gates. All counters are deterministic.
type Stats struct {
	// SolutionsCreated counts the candidates of every constructed batch.
	// An insertion point's unbuffered pass-through set enters its
	// repeater batch again, so it is counted twice — once at its own
	// construction, once at the insertion point — unlike
	// LifecycleProfile.TotalBorn, which counts each candidate once.
	SolutionsCreated int
	MaxSetSize       int // largest per-node solution set after pruning
	MaxSegs          int // largest PWL segment count observed
	PruneCalls       int // prune invocations (counted for every pruner, including PruneOff)
	Dropped          int // solutions removed by pruning (validity domain emptied)
	NodesVisited     int // DP subtree solves completed (one per topology node below the root)
	SetSizeSum       int // sum of final per-node set sizes; mean candidates/node = SetSizeSum/NodesVisited

	// PruneSites breaks PruneCalls/Dropped down by the dominance rule's
	// call site — "drivers" (leaf driver sizing), "wire_widths"
	// (augment over width options), "join" (Steiner branch merge),
	// "repeater" (insertion-point candidates) — the per-job shape the
	// explain reports surface.
	PruneSites map[string]PruneSiteStats `json:",omitempty"`
}

// PruneSiteStats is the per-site slice of the pruning work.
type PruneSiteStats struct {
	Calls int
	Drops int
}

// Result is the outcome of Optimize: the Pareto suite plus run statistics.
type Result struct {
	Suite Suite
	Stats Stats
	// Profile is the candidate-lifecycle profile; nil unless
	// Options.Profile was set.
	Profile *LifecycleProfile
}

// Optimize runs the MSRI dynamic program (Fig. 5) on the rooted topology
// and returns the suite of Pareto-optimal (cost, ARD) solutions. The root
// must be a leaf terminal and the net must contain at least one source
// and one sink.
func Optimize(rt *topo.Rooted, tech buslib.Tech, opt Options) (*Result, error) {
	t := rt.Tree
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if err := tech.Validate(); err != nil {
		return nil, err
	}
	rootNd := t.Node(rt.Root)
	if rootNd.Kind != topo.Terminal {
		return nil, fmt.Errorf("core: root node %d is %v, must be a terminal", rt.Root, rootNd.Kind)
	}
	if len(t.Sources()) == 0 || len(t.Sinks()) == 0 {
		return nil, fmt.Errorf("core: net needs at least one source and one sink")
	}
	if opt.SizeDrivers && len(tech.Drivers) == 0 {
		return nil, fmt.Errorf("core: SizeDrivers set but technology has no drivers")
	}
	if opt.Repeaters && len(tech.Repeaters) == 0 {
		return nil, fmt.Errorf("core: Repeaters set but technology has no repeaters")
	}
	if opt.CoarseEps < 0 || math.IsNaN(opt.CoarseEps) || math.IsInf(opt.CoarseEps, 0) {
		return nil, fmt.Errorf("core: CoarseEps %v must be a finite non-negative number", opt.CoarseEps)
	}
	for _, w := range opt.WireWidths {
		if !(w > 0) || math.IsInf(w, 1) {
			return nil, fmt.Errorf("core: wire width %v must be a finite positive number", w)
		}
	}
	d := &dp{rt: rt, tech: tech, opt: opt, ctx: opt.Context, tr: opt.Trace, tags: opt.TraceArgs}
	if opt.Profile {
		d.lp = NewLifecycleProfile()
	}
	if reg := opt.Obs; reg != nil {
		// The series are views of Stats, published once per run —
		// deferred, so an aborted run still reports its partial work.
		kind := opt.Pruner.String()
		defer func() {
			reg.Counter("core/solutions_created").Add(int64(d.stats.SolutionsCreated))
			reg.Counter("core/prune/" + kind + "/calls").Add(int64(d.stats.PruneCalls))
			reg.Counter("core/prune/" + kind + "/drops").Add(int64(d.stats.Dropped))
			reg.Counter("core/nodes_visited").Add(int64(d.stats.NodesVisited))
			reg.Counter("core/set_size_sum").Add(int64(d.stats.SetSizeSum))
			reg.Gauge("core/max_set_size").SetMax(int64(d.stats.MaxSetSize))
			reg.Gauge("core/max_pwl_segments").SetMax(int64(d.stats.MaxSegs))
		}()
	}
	// Root: single child (root is a leaf terminal).
	children := rt.Children[rt.Root]
	if len(children) != 1 {
		return nil, fmt.Errorf("core: root terminal has %d children, want 1", len(children))
	}
	c := children[0]
	childSet := d.solve(c)
	if d.err != nil {
		return nil, d.err
	}
	final := d.augment(childSet, rt.ParentEdge[c], rt.Root)
	if d.err != nil {
		return nil, d.err
	}
	suite := d.rootSolutions(final)
	if len(suite) == 0 {
		return nil, fmt.Errorf("core: no feasible solution (all domains pruned)")
	}
	if d.lp != nil {
		d.lp.Runs = 1
		d.lp.final(rt.Root, len(final))
		for _, rs := range suite {
			d.lp.survive(rs.sol)
		}
	}
	return &Result{Suite: suite, Stats: d.stats, Profile: d.lp}, nil
}

// solve computes the pruned solution set for the subtree rooted at v.
// With a tracer installed, the node's timeline slice opens here and
// closes in noteNode, so its duration covers the whole subtree and the
// trace nests like the recursion.
func (d *dp) solve(v int) []*Solution {
	rg := d.tr.Begin(nodeEventName(d.rt.Tree.Node(v).Kind), "core")
	out := d.solveNode(v)
	d.noteNode(v, out, rg)
	return out
}

// targs appends the run's identity tags (Options.TraceArgs) to an
// event's own args. Trace-only, so the append cost is paid only with a
// live tracer.
func (d *dp) targs(args ...trace.Arg) []trace.Arg {
	return append(args, d.tags...)
}

// noteNode is the one report of a completed subtree solve: its final
// set size feeds the per-node candidate-count profile the explain
// reports surface and the lifecycle wavefront, and closes the node's
// trace slice with the quantities Tables I–IV are governed by — the
// final set size and the largest PWL segment count in the set.
func (d *dp) noteNode(v int, out []*Solution, rg trace.Region) {
	d.stats.NodesVisited++
	d.stats.SetSizeSum += len(out)
	d.lp.final(v, len(out))
	if d.tr != nil {
		rg.End(d.targs(trace.I("node", v), trace.I("set", len(out)), trace.I("segs", maxSegsOf(out)))...)
	}
}

// nodeEventName maps a topology node kind to its trace slice name.
func nodeEventName(k topo.Kind) string {
	switch k {
	case topo.Terminal:
		return "dp/leaf"
	case topo.Insertion:
		return "dp/insertion"
	default:
		return "dp/steiner"
	}
}

// maxSegsOf returns the largest PWL segment count (over A and D) in the
// set — trace-only, so the cost is paid only with a live tracer.
func maxSegsOf(sols []*Solution) int {
	m := 0
	for _, s := range sols {
		if n := s.A.NumSegs(); n > m {
			m = n
		}
		if n := s.D.NumSegs(); n > m {
			m = n
		}
	}
	return m
}

func (d *dp) solveNode(v int) []*Solution {
	if d.aborted() {
		return nil
	}
	t := d.rt.Tree
	nd := t.Node(v)
	if nd.Kind == topo.Terminal {
		return d.leafSolutions(v)
	}
	children := d.rt.Children[v]
	if len(children) == 0 {
		// A dangling Steiner stub: contributes no sources, sinks or
		// capacitance of its own (its wire is added when the parent
		// augments).
		return []*Solution{{
			Cost: 0, Cap: 0, Q: math.Inf(-1),
			A: pwl.NegInf(), D: pwl.NegInf(), Dom: pwl.Full(),
		}}
	}
	lifted := make([][]*Solution, len(children))
	for i, c := range children {
		lifted[i] = d.augment(d.solve(c), d.rt.ParentEdge[c], v)
	}
	if d.err != nil {
		return nil
	}
	cur := lifted[0]
	for i := 1; i < len(lifted); i++ {
		cur = d.prune(d.joinSets(cur, lifted[i], v), "join", v)
	}
	if nd.Kind == topo.Insertion && d.opt.Repeaters {
		cur = d.prune(d.repeaterSolutions(cur, v), "repeater", v)
	}
	return cur
}

// dp carries per-run state. The walk is serial: one goroutine owns it.
type dp struct {
	rt   *topo.Rooted
	tech buslib.Tech
	opt  Options
	ctx  context.Context // nil disables deadline polling
	tr   *trace.Tracer
	tags []trace.Arg       // identity args appended to every trace event
	lp   *LifecycleProfile // candidate-lifecycle collector; nil unless Options.Profile

	stats Stats
	err   error // first error; once set the walk unwinds
}

// aborted polls the run's context (the periodic deadline check of the
// DP) and reports whether the walk should unwind. It is called at every
// node visit and every prune call — the two places where the remaining
// work between checks is bounded by a single set operation.
func (d *dp) aborted() bool {
	if d.err == nil && d.ctx != nil {
		if err := d.ctx.Err(); err != nil {
			d.err = fmt.Errorf("core: optimization aborted: %w", err)
		}
	}
	return d.err != nil
}

// built is the one report of a freshly constructed candidate batch for
// node v, scanned once: it feeds Stats.SolutionsCreated and MaxSegs
// and, under Options.Profile, the birth stamps. sols[:passed] is an
// already-stamped set carried unchanged into the batch (an insertion
// point's unbuffered candidates): it counts as created again but is not
// born again.
func (d *dp) built(sols []*Solution, passed int, class string, v int) {
	d.stats.SolutionsCreated += len(sols)
	var segSum int64
	for i, s := range sols {
		a, b := s.A.NumSegs(), s.D.NumSegs()
		d.stats.MaxSegs = max(d.stats.MaxSegs, a, b)
		if d.lp != nil && i >= passed {
			s.lc = &lifeRec{class: class, node: v, segs: int32(a + b), depth: lineageDepth(s)}
			segSum += int64(a + b)
		}
	}
	if d.lp != nil {
		d.lp.born(len(sols)-passed, segSum, class, v, waveKind(d.rt.Tree.Node(v).Kind))
	}
}

// formed is the one report of a finished candidate set of n solutions
// at node v — out of a prune, or straight from construction where no
// prune runs (a plain leaf, a width-1 Augment, whose transform keeps
// dominance). Every MaxSetSize update passes here, and so does every
// dp/wavefront instant, so the traced wavefront maxima reconcile with
// Stats.MaxSetSize.
func (d *dp) formed(v, n int) {
	d.stats.MaxSetSize = max(d.stats.MaxSetSize, n)
	if d.lp != nil && d.tr != nil {
		d.tr.Instant("dp/wavefront", "core", d.targs(trace.I("node", v), trace.I("set", n))...)
	}
}

// waveKind names a node kind for the wavefront summary.
func waveKind(k topo.Kind) string {
	switch k {
	case topo.Terminal:
		return "leaf"
	case topo.Insertion:
		return "insertion"
	default:
		return "steiner"
	}
}

// prune runs the configured MFS pruner over sols. The site labels the
// dominance rule's call point ("drivers", "wire_widths", "join",
// "repeater") for the Stats.PruneSites breakdown and the dp/prune
// trace slice; v is the topology node being pruned, for the profiling
// wavefront.
func (d *dp) prune(sols []*Solution, site string, v int) []*Solution {
	if d.aborted() {
		return nil
	}
	rg := d.tr.Begin("dp/prune", "core")
	var out []*Solution
	switch d.opt.Pruner {
	case PruneNaive:
		out = pruneNaive(sortedCopy(sols), d.opt.CoarseEps, d.lp)
	case PruneOff:
		out = sols
	default:
		out = pruneDivide(sortedCopy(sols), d.opt.CoarseEps, d.lp)
	}
	drops := len(sols) - len(out)
	d.stats.PruneCalls++
	d.stats.Dropped += drops
	if d.stats.PruneSites == nil {
		d.stats.PruneSites = map[string]PruneSiteStats{}
	}
	ps := d.stats.PruneSites[site]
	ps.Calls++
	ps.Drops += drops
	d.stats.PruneSites[site] = ps
	d.lp.pruned(out, v, drops)
	d.formed(v, len(out))
	if d.opt.MaxSolutions > 0 && len(out) > d.opt.MaxSolutions && d.err == nil {
		d.err = fmt.Errorf("core: solution set grew to %d (limit %d); see Options.MaxSolutions",
			len(out), d.opt.MaxSolutions)
	}
	if d.tr != nil {
		rg.End(d.targs(trace.S("site", site), trace.I("pre", len(sols)),
			trace.I("post", len(out)), trace.I("drops", drops))...)
	}
	return out
}

// leafSolutions implements LeafSolutions (Fig. 6), extended with the
// driver-sizing option of §V.
func (d *dp) leafSolutions(v int) []*Solution {
	term := d.rt.Tree.Node(v).Term
	q := math.Inf(-1)
	if term.IsSink {
		q = term.Q
	}
	mk := func(cost, routDrv, intr float64, drv *drvRec) *Solution {
		a := pwl.NegInf()
		if term.IsSource {
			a = pwl.Linear(term.AAT+intr+routDrv*term.Cin, routDrv)
		}
		dd := pwl.NegInf()
		if d.opt.IncludeSelf && term.IsSource && term.IsSink {
			dd = a.AddConst(q)
		}
		return &Solution{
			Cost: cost, Cap: term.Cin, Q: q,
			A: a, D: dd, Dom: pwl.Full(), drv: drv,
		}
	}
	if !d.opt.SizeDrivers || !term.IsSource {
		out := []*Solution{mk(0, term.Rout, term.DriverIntrinsic, nil)}
		d.built(out, 0, ClassDrivers, v)
		d.formed(v, len(out))
		return out
	}
	out := make([]*Solution, 0, len(d.tech.Drivers))
	for _, drv := range d.tech.Drivers {
		out = append(out, mk(drv.Cost, drv.Rout, drv.Intrinsic, &drvRec{node: v, driver: drv}))
	}
	d.built(out, 0, ClassDrivers, v)
	return d.prune(out, "drivers", v)
}

// augment implements Augment (Fig. 10): extend every solution of a
// subtree across the wire to its parent. With the wire-sizing extension a
// solution is produced per width option. Dominance is preserved by the
// width-1 transform, so no pruning is needed in the plain case. v is
// the parent-side node the lifted set belongs to (the birth site of
// the new candidates).
func (d *dp) augment(sols []*Solution, eid, v int) []*Solution {
	length := d.rt.Tree.Edge(eid).Length
	widths := d.opt.WireWidths
	if len(widths) == 0 {
		widths = []float64{1}
	}
	out := make([]*Solution, 0, len(sols)*len(widths))
	for _, w := range widths {
		re := d.tech.Wire.Res(length) / w
		ce := d.tech.Wire.Cap(length) * w
		extraCost := (w - 1) * length * d.opt.WireCostPerUm
		for _, s := range sols {
			dom := s.Dom.Shift(ce)
			if dom.IsEmpty() {
				continue
			}
			ns := &Solution{
				Cost:   s.Cost + extraCost,
				Cap:    s.Cap + ce,
				Q:      s.Q + re*(ce/2+s.Cap),
				A:      s.A.Shift(ce).AddLinear(re*ce/2, re),
				D:      s.D.Shift(ce),
				Dom:    dom,
				Parity: s.Parity,
				from1:  s,
			}
			if w != 1 {
				ns.width = &widthRec{edge: eid, width: w}
			}
			out = append(out, ns)
		}
	}
	if len(widths) > 1 {
		d.built(out, 0, ClassWireWidths, v)
		return d.prune(out, "wire_widths", v)
	}
	d.built(out, 0, ClassWire, v)
	d.formed(v, len(out))
	return out
}

// joinSets implements JoinSets (Fig. 7): combine the solution sets of two
// branches meeting at a common (Steiner) node v. Each pairing sees the
// sibling's capacitance as additional external load.
func (d *dp) joinSets(s1, s2 []*Solution, v int) []*Solution {
	out := make([]*Solution, 0, len(s1)*len(s2))
	for _, a := range s1 {
		for _, b := range s2 {
			parity := a.Parity
			if a.Parity != b.Parity {
				// Only terminals observe polarity: a side without any
				// joins either parity and takes the other side's.
				switch {
				case a.noTerminals():
					parity = b.Parity
				case !b.noTerminals():
					continue
				}
			}
			dom := a.Dom.Shift(b.Cap).Intersect(b.Dom.Shift(a.Cap))
			if dom.IsEmpty() {
				continue
			}
			aShift := a.A.Shift(b.Cap)
			bShift := b.A.Shift(a.Cap)
			dParts := []pwl.Func{
				a.D.Shift(b.Cap),
				b.D.Shift(a.Cap),
			}
			if !math.IsInf(b.Q, -1) {
				dParts = append(dParts, aShift.AddConst(b.Q))
			}
			if !math.IsInf(a.Q, -1) {
				dParts = append(dParts, bShift.AddConst(a.Q))
			}
			out = append(out, &Solution{
				Cost:   a.Cost + b.Cost,
				Cap:    a.Cap + b.Cap,
				Q:      math.Max(a.Q, b.Q),
				A:      aShift.Max(bShift),
				D:      pwl.MaxOver(dParts...),
				Dom:    dom,
				Parity: parity,
				from1:  a,
				from2:  b,
			})
		}
	}
	d.built(out, 0, ClassJoin, v)
	d.lp.joins(int64(len(s1)) * int64(len(s2)))
	return out
}

// repeaterSolutions implements RepeaterSolutions (Fig. 8): at insertion
// point v, every unbuffered solution may additionally be capped with
// every repeater in each orientation. The repeater decouples the subtree:
// the external capacitance its child side presents is known exactly, so
// A collapses to a single line and D to a constant.
func (d *dp) repeaterSolutions(sols []*Solution, v int) []*Solution {
	out := make([]*Solution, 0, 2*len(sols))
	out = append(out, sols...)
	for _, rep := range d.tech.Repeaters {
		if rep.Inverting && !d.opt.AllowInverting {
			continue
		}
		orientations := []bool{true}
		if !rep.Symmetric() {
			orientations = []bool{true, false}
		}
		for _, aUp := range orientations {
			var capUp, capDown, dUp, rUp, dDown, rDown float64
			if aUp {
				capUp, capDown = rep.CapA, rep.CapB
				dUp, rUp = rep.DelayBA, rep.RoutBA
				dDown, rDown = rep.DelayAB, rep.RoutAB
			} else {
				capUp, capDown = rep.CapB, rep.CapA
				dUp, rUp = rep.DelayAB, rep.RoutAB
				dDown, rDown = rep.DelayBA, rep.RoutBA
			}
			for _, s := range sols {
				if !s.Dom.Contains(capDown) {
					continue
				}
				a0 := s.A.Eval(capDown)
				na := pwl.NegInf()
				if !math.IsInf(a0, -1) {
					na = pwl.Linear(a0+dUp, rUp)
				}
				parity := s.Parity
				if rep.Inverting && !s.noTerminals() {
					parity = 1 - parity
				}
				out = append(out, &Solution{
					Cost:   s.Cost + rep.Cost,
					Cap:    capUp,
					Q:      dDown + rDown*s.Cap + s.Q,
					A:      na,
					D:      pwl.Const(s.D.Eval(capDown)),
					Dom:    pwl.Full(),
					Parity: parity,
					from1:  s,
					place:  &placedRec{node: v, rep: rep, aUp: aUp},
				})
			}
		}
	}
	// Only the repeater-capped candidates are new births; out[:len(sols)]
	// passes the already-stamped unbuffered set through to the prune.
	d.built(out, len(sols), ClassRepeater, v)
	return out
}

// rootSolutions implements RootSolutions (Fig. 9): close every surviving
// solution against the root terminal, producing concrete (cost, ARD)
// outcomes, then keep the Pareto frontier.
func (d *dp) rootSolutions(sols []*Solution) Suite {
	term := d.rt.Tree.Node(d.rt.Root).Term
	cE := term.Cin

	type rootDrv struct {
		rout, intr, cost float64
		rec              *drvRec
	}
	var drivers []rootDrv
	if d.opt.SizeDrivers && term.IsSource {
		for _, drv := range d.tech.Drivers {
			drivers = append(drivers, rootDrv{
				rout: drv.Rout, intr: drv.Intrinsic, cost: drv.Cost,
				rec: &drvRec{node: d.rt.Root, driver: drv},
			})
		}
	} else {
		drivers = []rootDrv{{rout: term.Rout, intr: term.DriverIntrinsic}}
	}

	var all Suite
	for _, s := range sols {
		if s.Parity != 0 || !s.Dom.Contains(cE) {
			continue
		}
		for _, drv := range drivers {
			ardVal := s.D.Eval(cE)
			critNote := "internal"
			if term.IsSink {
				if v := s.A.Eval(cE) + term.Q; v > ardVal {
					ardVal = v
					critNote = "to-root"
				}
			}
			if term.IsSource && !math.IsInf(s.Q, -1) {
				if v := term.AAT + drv.intr + drv.rout*(cE+s.Cap) + s.Q; v > ardVal {
					ardVal = v
					critNote = "from-root"
				}
			}
			if d.opt.IncludeSelf && term.IsSource && term.IsSink {
				if v := term.AAT + drv.intr + drv.rout*(cE+s.Cap) + term.Q; v > ardVal {
					ardVal = v
					critNote = "root-self"
				}
			}
			if math.IsInf(ardVal, -1) {
				continue
			}
			rs := RootSolution{
				Cost:    s.Cost + drv.cost,
				ARD:     ardVal,
				sol:     s,
				rootDrv: drv.rec,
				note:    critNote,
			}
			all = append(all, rs)
		}
	}
	return all.pareto()
}

// RootSolution is one point of the cost/performance tradeoff suite.
type RootSolution struct {
	Cost float64
	ARD  float64

	sol     *Solution
	rootDrv *drvRec
	note    string
}

// Assignment reconstructs the full concrete assignment of the solution.
func (r RootSolution) Assignment() rctree.Assignment {
	asg := r.sol.Assignment()
	if r.rootDrv != nil {
		if asg.Drivers == nil {
			asg.Drivers = map[int]buslib.Driver{}
		}
		asg.Drivers[r.rootDrv.node] = r.rootDrv.driver
	}
	return asg
}

// Repeaters returns the number of repeaters placed.
func (r RootSolution) Repeaters() int { return r.sol.RepeaterCount() }

// Suite is a set of root solutions sorted by increasing cost and strictly
// decreasing ARD (a Pareto frontier).
type Suite []RootSolution

// pareto sorts and filters to the strict frontier.
func (s Suite) pareto() Suite {
	if len(s) == 0 {
		return s
	}
	sort.Slice(s, func(i, j int) bool {
		if s[i].Cost != s[j].Cost {
			return s[i].Cost < s[j].Cost
		}
		return s[i].ARD < s[j].ARD
	})
	out := s[:0]
	best := math.Inf(1)
	for _, r := range s {
		if r.ARD < best-domTol {
			out = append(out, r)
			best = r.ARD
		}
	}
	return out
}

// MinCost returns the cheapest solution meeting ARD ≤ spec — Problem 2.1.
func (s Suite) MinCost(spec float64) (RootSolution, bool) {
	for _, r := range s {
		if r.ARD <= spec+domTol {
			return r, true
		}
	}
	return RootSolution{}, false
}

// ErrEmptySuite reports a frontier lookup on an empty suite. Suites
// built by Optimize are never empty (it errors instead), so hitting
// this means the suite was constructed or filtered by hand.
var ErrEmptySuite = errors.New("core: empty suite")

// MinARD returns the best-performance solution regardless of cost (the
// cost-oblivious formulation the paper notes is subsumed by Problem 2.1).
func (s Suite) MinARD() (RootSolution, error) {
	if len(s) == 0 {
		return RootSolution{}, ErrEmptySuite
	}
	return s[len(s)-1], nil
}

// MinCostSolution returns the cheapest solution overall.
func (s Suite) MinCostSolution() (RootSolution, error) {
	if len(s) == 0 {
		return RootSolution{}, ErrEmptySuite
	}
	return s[0], nil
}
