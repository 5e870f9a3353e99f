package core

// Candidate-lifecycle profiling (Options.Profile): every solution the
// DP constructs is stamped with a birth site — the topology node it was
// built for plus the candidate class of the construction rule — and its
// fate is recorded when it dies under pruning (with a cause) or reaches
// the root suite. The aggregate is the raw material of the
// msrnet-solveprof/v1 artifact (internal/solveprof): it says which
// construction rules, at which nodes, burn work on candidates that
// never contribute to the answer — the measuring stick for predictive
// pruning (Li & Shi's buffer insertion, PAPERS.md).
//
// The accounting is deterministic: every field is an order-independent
// sum, so repeated runs of the same input produce identical profiles
// and byte-identical artifacts.

// Candidate classes: the construction rule that created a solution.
// They deliberately match the Stats.PruneSites keys where a prune
// exists; ClassWire is the width-1 Augment, which creates solutions but
// never prunes (dominance is preserved by the transform), so its
// candidates die later, at an ancestor's join or repeater prune.
const (
	// ClassDrivers marks leaf solutions (one per driver option under
	// SizeDrivers; exactly one for a fixed-driver leaf).
	ClassDrivers = "drivers"
	// ClassWire marks plain width-1 Augment lifts across a wire.
	ClassWire = "wire"
	// ClassWireWidths marks Augment lifts under wire sizing (>1 width).
	ClassWireWidths = "wire_widths"
	// ClassJoin marks Steiner branch merges (JoinSets pairings).
	ClassJoin = "join"
	// ClassRepeater marks repeater-capped candidates at insertion points.
	ClassRepeater = "repeater"
)

// Death causes: why a candidate's validity domain became empty. The
// classification looks at the final dominating subtraction — the one
// that emptied the domain — and applies the first matching rule, in
// this order:
const (
	// CauseEps: the kill needed the CoarseEps relaxation — re-checking
	// the same dominator at eps=0 would have left the candidate alive.
	// Only possible on degraded (CoarseEps > 0) runs.
	CauseEps = "eps_coarse"
	// CauseCost: the dominator is strictly cheaper; the candidate paid
	// for resources a cheaper solution made unnecessary.
	CauseCost = "cost_dominated"
	// CauseDomain: no single dominator covered the candidate — its
	// domain was whittled down by earlier subtractions (possibly at
	// earlier prune sites) before this one emptied the remainder.
	CauseDomain = "domain_emptied"
	// CauseDelay: an equal-cost dominator beat the candidate on the
	// delay coordinates (Q, A, D) over its whole remaining domain.
	CauseDelay = "delay_dominated"
)

// DeathCauses lists every cause, in classification order.
var DeathCauses = []string{CauseEps, CauseCost, CauseDomain, CauseDelay}

// DepthBuckets bounds the survival-depth histogram. Depth is the
// number of prune calls the candidate's lineage survived: inherited at
// construction (the max over the parents a candidate derives from) and
// bumped on every prune survived. A death at depth k means k prune
// passes already invested work in the candidate's ancestry before the
// waste was discovered — deep deaths are the expensive ones predictive
// pruning should target first. Buckets are power-of-two ranges
// (0, 1, 2, 3–4, 5–8, 9–16, 17–32, 33–64, 65+) so the histogram stays
// readable on deep trees.
const DepthBuckets = 9

// depthBucket maps a lineage depth to its histogram bucket.
func depthBucket(depth int) int {
	switch {
	case depth <= 2:
		return depth
	case depth <= 4:
		return 3
	case depth <= 8:
		return 4
	case depth <= 16:
		return 5
	case depth <= 32:
		return 6
	case depth <= 64:
		return 7
	default:
		return 8
	}
}

// depthBucketLabels names the histogram buckets, index-aligned with
// LifecycleProfile.Depth.
var depthBucketLabels = [DepthBuckets]string{
	"0", "1", "2", "3-4", "5-8", "9-16", "17-32", "33-64", "65+",
}

// DepthBucketLabel returns the human-readable range of histogram
// bucket i ("0", "1", "2", "3-4", …, "65+").
func DepthBucketLabel(i int) string {
	if i < 0 || i >= DepthBuckets {
		return "?"
	}
	return depthBucketLabels[i]
}

// SiteKey identifies a birth site: the construction rule and the
// topology node it ran for.
type SiteKey struct {
	Class string
	Node  int
}

// WasteCell is the work charged to a group of dead candidates: their
// count, the PWL segments materialized to build them (A plus D), and
// the allocations (one candidate tuple each). The charge is the direct
// construction cost of the dead candidate itself — a lower bound on
// the transitive waste, since work spent on its ancestors may also have
// fed survivors.
type WasteCell struct {
	Deaths int
	SegOps int64
	Allocs int64
}

func (c *WasteCell) add(o WasteCell) {
	c.Deaths += o.Deaths
	c.SegOps += o.SegOps
	c.Allocs += o.Allocs
}

// SiteStats is the full lifecycle ledger of one birth site.
type SiteStats struct {
	// Born counts candidates constructed here; SegOps/Allocs are their
	// total construction work (dead or alive).
	Born   int
	SegOps int64
	Allocs int64
	// Survived counts root-suite points whose closing solution was born
	// here (one per suite point, so survivors sum to len(Suite)).
	Survived int
	// Deaths buckets the candidates pruned to death, by cause.
	Deaths map[string]WasteCell
}

// WaveStats is one node's slice of the wavefront timeline: how many
// candidates were born for the node, how many died in its prunes, and
// the set size its subtree solve finished with.
type WaveStats struct {
	Kind  string // "leaf", "steiner" or "insertion"
	Born  int
	Died  int
	Final int
}

// LifecycleProfile is the aggregate of one (or, after Merge, several)
// profiled Optimize runs.
type LifecycleProfile struct {
	// Runs counts the Optimize runs merged into this profile.
	Runs int
	// Sites is the per-birth-site ledger.
	Sites map[SiteKey]*SiteStats
	// Depth is the survival-depth histogram of deaths, bucketed by the
	// prune calls the dying candidate's lineage survived (see
	// DepthBucketLabel for the ranges).
	Depth [DepthBuckets]WasteCell
	// Wave is the per-node wavefront summary, keyed by topology node.
	Wave map[int]*WaveStats
	// JoinPairings counts candidate pairings JoinSets examined,
	// including those skipped before construction (parity mismatch,
	// empty domain intersection) — the hidden quadratic work no born
	// candidate accounts for.
	JoinPairings int64
	// Totals and the dead-candidate share of them. The waste ratio
	// WastedSegOps/TotalSegOps is the headline number the CI waste gate
	// baselines.
	TotalSegOps  int64
	WastedSegOps int64
	TotalAllocs  int64
	WastedAllocs int64
}

// NewLifecycleProfile returns an empty profile ready to merge into.
func NewLifecycleProfile() *LifecycleProfile {
	return &LifecycleProfile{Sites: map[SiteKey]*SiteStats{}, Wave: map[int]*WaveStats{}}
}

func (p *LifecycleProfile) site(k SiteKey) *SiteStats {
	st := p.Sites[k]
	if st == nil {
		st = &SiteStats{Deaths: map[string]WasteCell{}}
		p.Sites[k] = st
	}
	return st
}

func (p *LifecycleProfile) waveAt(node int) *WaveStats {
	w := p.Wave[node]
	if w == nil {
		w = &WaveStats{}
		p.Wave[node] = w
	}
	return w
}

// TotalBorn sums candidates constructed across all sites, each counted
// once. It is below Stats.SolutionsCreated whenever repeaters are on:
// that counter takes an insertion point's unbuffered pass-through set a
// second time, at the insertion point, where TotalBorn does not.
func (p *LifecycleProfile) TotalBorn() int {
	n := 0
	for _, st := range p.Sites {
		n += st.Born
	}
	return n
}

// TotalDeaths sums attributed deaths across all sites and causes; on a
// single-run profile it equals Stats.Dropped.
func (p *LifecycleProfile) TotalDeaths() int {
	n := 0
	for _, st := range p.Sites {
		for _, c := range st.Deaths {
			n += c.Deaths
		}
	}
	return n
}

// TotalSurvived sums survivors across all sites; on a single-run
// profile it equals len(Result.Suite).
func (p *LifecycleProfile) TotalSurvived() int {
	n := 0
	for _, st := range p.Sites {
		n += st.Survived
	}
	return n
}

// Merge folds o into p (for aggregating a study session's runs). Both
// profiles are left usable; o is not modified.
func (p *LifecycleProfile) Merge(o *LifecycleProfile) {
	if o == nil {
		return
	}
	p.Runs += o.Runs
	for k, st := range o.Sites {
		dst := p.site(k)
		dst.Born += st.Born
		dst.SegOps += st.SegOps
		dst.Allocs += st.Allocs
		dst.Survived += st.Survived
		for cause, c := range st.Deaths {
			dc := dst.Deaths[cause]
			dc.add(c)
			dst.Deaths[cause] = dc
		}
	}
	for i := range o.Depth {
		p.Depth[i].add(o.Depth[i])
	}
	for node, w := range o.Wave {
		dst := p.waveAt(node)
		if dst.Kind == "" {
			dst.Kind = w.Kind
		}
		dst.Born += w.Born
		dst.Died += w.Died
		dst.Final += w.Final
	}
	p.JoinPairings += o.JoinPairings
	p.TotalSegOps += o.TotalSegOps
	p.WastedSegOps += o.WastedSegOps
	p.TotalAllocs += o.TotalAllocs
	p.WastedAllocs += o.WastedAllocs
}

// lifeRec is the per-solution birth stamp, allocated only under
// Options.Profile and shared by the shrunk-domain copies the pruners
// make (the copies are the same logical candidate).
type lifeRec struct {
	class string
	node  int
	depth int32 // prune calls survived by the candidate's lineage
	segs  int32 // PWL segments materialized at construction (A + D)
	// domCut marks that some earlier dominator shrank (without
	// emptying) this candidate's domain — the signal for CauseDomain.
	domCut bool
}

// The collector methods below feed a run's profile from the DP's
// hooks. A nil *LifecycleProfile (profiling off) costs one pointer
// check per hook.

// born charges a freshly stamped batch of n candidates and their
// construction work (segs PWL segments) to the site ledger and the
// node's wavefront.
func (p *LifecycleProfile) born(n int, segs int64, class string, node int, kind string) {
	if p == nil || n == 0 {
		return
	}
	st := p.site(SiteKey{Class: class, Node: node})
	st.Born += n
	st.SegOps += segs
	st.Allocs += int64(n)
	p.TotalSegOps += segs
	p.TotalAllocs += int64(n)
	w := p.waveAt(node)
	if w.Kind == "" {
		w.Kind = kind
	}
	w.Born += n
}

// lineageDepth is the survival depth a freshly constructed candidate
// inherits: the max over the stamped parents it derives from. Parents
// without a stamp (profiling re-entry, synthetic stubs) contribute 0.
func lineageDepth(s *Solution) int32 {
	var d int32
	if s.from1 != nil && s.from1.lc != nil && s.from1.lc.depth > d {
		d = s.from1.lc.depth
	}
	if s.from2 != nil && s.from2.lc != nil && s.from2.lc.depth > d {
		d = s.from2.lc.depth
	}
	return d
}

// kill attributes one death: dominator s emptied t's remaining domain.
// t still carries its pre-subtraction domain, so the eps=0 re-check
// sees exactly the state the relaxed kill saw.
func (p *LifecycleProfile) kill(s, t *Solution, eps float64) {
	lc := t.lc
	cause := CauseDelay
	switch {
	case eps > 0 && !killsExactly(s, t):
		cause = CauseEps
	case s.Cost < t.Cost-domTol:
		cause = CauseCost
	case lc != nil && lc.domCut:
		cause = CauseDomain
	}
	cell := WasteCell{Deaths: 1, Allocs: 1}
	k := SiteKey{}
	depth := 0
	if lc != nil {
		cell.SegOps = int64(lc.segs)
		k = SiteKey{Class: lc.class, Node: lc.node}
		depth = int(lc.depth)
	}
	st := p.site(k)
	dc := st.Deaths[cause]
	dc.add(cell)
	st.Deaths[cause] = dc
	p.Depth[depthBucket(depth)].add(cell)
	p.WastedSegOps += cell.SegOps
	p.WastedAllocs += cell.Allocs
}

// killsExactly reports whether s still empties t's remaining domain
// under exact (eps=0) dominance — the discriminator between a real
// death and one bought by the CoarseEps relaxation.
func killsExactly(s, t *Solution) bool {
	reg := dominatedRegion(s, t, 0)
	if reg.IsEmpty() {
		return false
	}
	return t.Dom.Subtract(reg).IsEmpty()
}

// pruned records one prune at node: every candidate that came out
// alive gains a survival-depth level, and the drop count is charged to
// the node's wavefront "died here" axis (the per-candidate attribution
// happened in kill).
func (p *LifecycleProfile) pruned(out []*Solution, node, drops int) {
	if p == nil {
		return
	}
	for _, s := range out {
		if s.lc != nil {
			s.lc.depth++
		}
	}
	if drops != 0 {
		p.waveAt(node).Died += drops
	}
}

// final records a node's finished set size on the wavefront.
func (p *LifecycleProfile) final(node int, size int) {
	if p == nil {
		return
	}
	p.waveAt(node).Final = size
}

// joins counts JoinSets pairings examined (built or skipped).
func (p *LifecycleProfile) joins(n int64) {
	if p == nil {
		return
	}
	p.JoinPairings += n
}

// survive credits one suite point to the closing solution's birth site.
func (p *LifecycleProfile) survive(s *Solution) {
	k := SiteKey{}
	if s.lc != nil {
		k = SiteKey{Class: s.lc.class, Node: s.lc.node}
	}
	p.site(k).Survived++
}
