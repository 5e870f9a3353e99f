// Package solveprof defines the msrnet-solveprof/v1 artifact: the
// serialized, diffable form of the solver's candidate-lifecycle profile
// (core.LifecycleProfile). Where BENCH_msrnet.json answers "did the
// solver get slower?", a solveprof answers "where does the solver waste
// work?" — which construction rules at which topology nodes burn PWL
// segment operations and allocations on candidates that die, how deep
// those candidates survive before dying, and what the per-node
// wavefront looked like. It is the measuring stick for the predictive
// pruning work of ROADMAP open item 1.
//
// The artifact is deterministic by construction: every list is sorted
// on a total key order, counters are order-independent sums, and no
// wall-clock timing is recorded, so the same input produces a
// byte-identical file across runs, machines and GOMAXPROCS settings.
package solveprof

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"msrnet/internal/atomicfile"
	"msrnet/internal/core"
)

// Schema identifies the artifact format.
const Schema = "msrnet-solveprof/v1"

// Profile is the root of a msrnet-solveprof/v1 document.
type Profile struct {
	Schema string `json:"schema"`
	// Source says who produced the profile ("msri", "bench", "msrnetd",
	// "experiments"); Workload names the input ("msri/12pin", a job id,
	// a study name).
	Source   string `json:"source"`
	Workload string `json:"workload,omitempty"`
	// Runs counts the Optimize runs aggregated into this profile (>1
	// for experiment sessions that merge many solves).
	Runs int `json:"runs"`

	Totals Totals `json:"totals"`
	Waste  Waste  `json:"waste"`

	// Matrix is the site×cause waste matrix: one row per birth site,
	// sorted by (class, node); each row carries its per-cause death
	// cells. Matrix rows cover every site that ever bore a candidate.
	Matrix []SiteRow `json:"matrix"`

	// Depth is the survival-depth histogram of deaths: bucket k holds
	// candidates that survived exactly k prune calls before dying; the
	// last bucket collects 8 and deeper.
	Depth []DepthRow `json:"depth"`

	// Wavefront is the per-node timeline summary, sorted by node id.
	Wavefront []WaveRow `json:"wavefront"`

	// Phases is the per-candidate-class churn rollup (the "per-phase
	// alloc churn" view), sorted by class name.
	Phases []PhaseRow `json:"phases"`

	// Stats echoes the solver's run statistics when the profile covers
	// exactly one Optimize run (omitted for merged profiles, where no
	// single Stats applies).
	Stats *core.Stats `json:"stats,omitempty"`
	// SuitePoints is the root Pareto-suite size for single-run profiles.
	SuitePoints int `json:"suite_points,omitempty"`
}

// Totals are the whole-run construction counters.
type Totals struct {
	Born         int   `json:"born"`
	Deaths       int   `json:"deaths"`
	Survived     int   `json:"survived"`
	SegOps       int64 `json:"seg_ops"`
	Allocs       int64 `json:"allocs"`
	JoinPairings int64 `json:"join_pairings"`
}

// Waste is the dead-candidate share of the totals. PerMille ratios are
// integer to keep the artifact byte-stable (no float formatting).
type Waste struct {
	SegOps         int64 `json:"seg_ops"`
	Allocs         int64 `json:"allocs"`
	SegOpsPerMille int64 `json:"seg_ops_per_mille"`
	AllocsPerMille int64 `json:"allocs_per_mille"`
	DeathsPerMille int64 `json:"deaths_per_mille"`
}

// SiteRow is one birth site's lifecycle ledger.
type SiteRow struct {
	Class    string `json:"class"`
	Node     int    `json:"node"`
	Born     int    `json:"born"`
	Survived int    `json:"survived,omitempty"`
	SegOps   int64  `json:"seg_ops"`
	Allocs   int64  `json:"allocs"`
	// Deaths maps cause → waste cell; encoding/json emits map keys in
	// sorted order, so the encoding stays deterministic.
	Deaths map[string]core.WasteCell `json:"deaths,omitempty"`
}

// WastedSegOps sums the row's dead-candidate segment ops across causes.
func (r SiteRow) WastedSegOps() int64 {
	var n int64
	for _, c := range r.Deaths {
		n += c.SegOps
	}
	return n
}

// TotalDeaths sums the row's deaths across causes.
func (r SiteRow) TotalDeaths() int {
	n := 0
	for _, c := range r.Deaths {
		n += c.Deaths
	}
	return n
}

// DepthRow is one survival-depth bucket (power-of-two lineage-depth
// ranges; see core.DepthBucketLabel).
type DepthRow struct {
	Bucket string `json:"bucket"` // "0", "1", "2", "3-4", …, "65+"
	Deaths int    `json:"deaths"`
	SegOps int64  `json:"seg_ops"`
	Allocs int64  `json:"allocs"`
}

// WaveRow is one node's slice of the wavefront timeline.
type WaveRow struct {
	Node  int    `json:"node"`
	Kind  string `json:"kind"`
	Born  int    `json:"born"`
	Died  int    `json:"died"`
	Final int    `json:"final"`
}

// PhaseRow aggregates one candidate class across all nodes.
type PhaseRow struct {
	Class        string `json:"class"`
	Born         int    `json:"born"`
	Deaths       int    `json:"deaths"`
	Survived     int    `json:"survived"`
	SegOps       int64  `json:"seg_ops"`
	Allocs       int64  `json:"allocs"`
	WastedSegOps int64  `json:"wasted_seg_ops"`
	WastedAllocs int64  `json:"wasted_allocs"`
}

// PerMille returns round(1000·num/den), 0 when den is 0 — the integer
// ratio format used throughout the artifact and the bench waste gate.
func PerMille(num, den int64) int64 {
	if den == 0 {
		return 0
	}
	return (1000*num + den/2) / den
}

// FromProfile converts a collected lifecycle profile into the artifact
// form. The input is not modified.
func FromProfile(p *core.LifecycleProfile, source, workload string) *Profile {
	if p == nil {
		return nil
	}
	out := &Profile{
		Schema:   Schema,
		Source:   source,
		Workload: workload,
		Runs:     p.Runs,
		Totals: Totals{
			Born:         p.TotalBorn(),
			Deaths:       p.TotalDeaths(),
			Survived:     p.TotalSurvived(),
			SegOps:       p.TotalSegOps,
			Allocs:       p.TotalAllocs,
			JoinPairings: p.JoinPairings,
		},
		Waste: Waste{
			SegOps:         p.WastedSegOps,
			Allocs:         p.WastedAllocs,
			SegOpsPerMille: PerMille(p.WastedSegOps, p.TotalSegOps),
			AllocsPerMille: PerMille(p.WastedAllocs, p.TotalAllocs),
		},
	}
	out.Waste.DeathsPerMille = PerMille(int64(out.Totals.Deaths), int64(out.Totals.Born))

	phases := map[string]*PhaseRow{}
	phase := func(class string) *PhaseRow {
		ph := phases[class]
		if ph == nil {
			ph = &PhaseRow{Class: class}
			phases[class] = ph
		}
		return ph
	}
	for k, st := range p.Sites {
		row := SiteRow{
			Class:    k.Class,
			Node:     k.Node,
			Born:     st.Born,
			Survived: st.Survived,
			SegOps:   st.SegOps,
			Allocs:   st.Allocs,
		}
		if len(st.Deaths) > 0 {
			row.Deaths = make(map[string]core.WasteCell, len(st.Deaths))
			for cause, c := range st.Deaths {
				row.Deaths[cause] = c
			}
		}
		out.Matrix = append(out.Matrix, row)
		ph := phase(k.Class)
		ph.Born += st.Born
		ph.Survived += st.Survived
		ph.SegOps += st.SegOps
		ph.Allocs += st.Allocs
		for _, c := range st.Deaths {
			ph.Deaths += c.Deaths
			ph.WastedSegOps += c.SegOps
			ph.WastedAllocs += c.Allocs
		}
	}
	sort.Slice(out.Matrix, func(i, j int) bool {
		if out.Matrix[i].Class != out.Matrix[j].Class {
			return out.Matrix[i].Class < out.Matrix[j].Class
		}
		return out.Matrix[i].Node < out.Matrix[j].Node
	})

	for i, c := range p.Depth {
		out.Depth = append(out.Depth, DepthRow{
			Bucket: core.DepthBucketLabel(i), Deaths: c.Deaths, SegOps: c.SegOps, Allocs: c.Allocs,
		})
	}

	for node, w := range p.Wave {
		out.Wavefront = append(out.Wavefront, WaveRow{
			Node: node, Kind: w.Kind, Born: w.Born, Died: w.Died, Final: w.Final,
		})
	}
	sort.Slice(out.Wavefront, func(i, j int) bool { return out.Wavefront[i].Node < out.Wavefront[j].Node })

	for _, ph := range phases {
		out.Phases = append(out.Phases, *ph)
	}
	sort.Slice(out.Phases, func(i, j int) bool { return out.Phases[i].Class < out.Phases[j].Class })

	return out
}

// FromResult converts a single profiled Optimize result, echoing its
// run statistics. Returns nil when the run was not profiled.
func FromResult(res *core.Result, source, workload string) *Profile {
	if res == nil || res.Profile == nil {
		return nil
	}
	p := FromProfile(res.Profile, source, workload)
	stats := res.Stats
	p.Stats = &stats
	p.SuitePoints = len(res.Suite)
	return p
}

// Validate checks the schema tag and the internal reconciliation the
// acceptance criteria demand: matrix deaths sum to Totals.Deaths (and,
// when Stats are present, to Stats.Dropped), survivors to
// Totals.Survived (and SuitePoints).
func (p *Profile) Validate() error {
	if p.Schema != Schema {
		return fmt.Errorf("solveprof: schema %q, want %q", p.Schema, Schema)
	}
	deaths, survived := 0, 0
	for _, row := range p.Matrix {
		deaths += row.TotalDeaths()
		survived += row.Survived
	}
	if deaths != p.Totals.Deaths {
		return fmt.Errorf("solveprof: matrix deaths %d != totals.deaths %d", deaths, p.Totals.Deaths)
	}
	if survived != p.Totals.Survived {
		return fmt.Errorf("solveprof: matrix survivors %d != totals.survived %d", survived, p.Totals.Survived)
	}
	if p.Stats != nil {
		if deaths != p.Stats.Dropped {
			return fmt.Errorf("solveprof: matrix deaths %d != stats.Dropped %d", deaths, p.Stats.Dropped)
		}
		if p.SuitePoints != 0 && survived != p.SuitePoints {
			return fmt.Errorf("solveprof: matrix survivors %d != suite_points %d", survived, p.SuitePoints)
		}
	}
	depthDeaths := 0
	for _, d := range p.Depth {
		depthDeaths += d.Deaths
	}
	if depthDeaths != p.Totals.Deaths {
		return fmt.Errorf("solveprof: depth histogram deaths %d != totals.deaths %d", depthDeaths, p.Totals.Deaths)
	}
	return nil
}

// Encode marshals the artifact to deterministic indented JSON.
func (p *Profile) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteFile validates and atomically writes the artifact.
func (p *Profile) WriteFile(path string) error {
	if err := p.Validate(); err != nil {
		return err
	}
	b, err := p.Encode()
	if err != nil {
		return err
	}
	return atomicfile.Write(path, func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	})
}

// Load reads and validates a msrnet-solveprof/v1 file.
func Load(path string) (*Profile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(b)
}

// Decode parses and validates artifact bytes.
func Decode(b []byte) (*Profile, error) {
	var p Profile
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, fmt.Errorf("solveprof: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}
