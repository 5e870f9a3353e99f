// Package experiments regenerates the evaluation of Lillis & Cheng
// (TCAD'99, §VI): Table I (technology parameters), Table II (driver
// sizing vs repeater insertion on random 10/20-pin nets), Table III
// (fastest solutions on sample topologies), Table IV (run times) and
// Fig. 11 (solutions for an 8-pin net), plus the §VII asymmetric-roles
// probe and the §III ARD-scaling claim. The same entry points back the
// repository's top-level benchmarks and the cmd/experiments tool.
//
// Absolute delays depend on the substituted Table I values (see DESIGN.md
// §4); the reproduction targets the normalized shape of the results,
// which EXPERIMENTS.md records side by side with the paper's numbers.
package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"msrnet/internal/ard"
	"msrnet/internal/buslib"
	"msrnet/internal/core"
	"msrnet/internal/netgen"
	"msrnet/internal/rctree"
	"msrnet/internal/topo"
)

// NetResult bundles everything measured on one random net.
type NetResult struct {
	Seed      int64
	Pins      int
	Insertion int     // number of candidate insertion points
	WireUm    float64 // total wirelength
	BaseARD   float64 // unoptimized (min-cost) RC-diameter
	BaseCost  float64 // cost of the min-cost solution: Pins 1X drivers

	// Driver sizing results.
	SizingSuite core.Suite

	// Repeater insertion results.
	RepSuite core.Suite

	// Wall seconds of the two uninstrumented optimize calls: Table IV's
	// "driver sizing" and "repeater insertion" columns.
	SizingSec float64
	RepSec    float64
}

// DSMin returns the minimum diameter achievable by sizing and its cost
// (driver costs only; the min-cost baseline spends Pins units on 1X
// drivers). The error is core.ErrEmptySuite on a zero-value NetResult.
func (n NetResult) DSMin() (diam, cost float64, err error) {
	best, err := n.SizingSuite.MinARD()
	if err != nil {
		return 0, 0, err
	}
	return best.ARD, best.Cost, nil
}

// RepMin returns the minimum diameter achievable by repeater insertion
// and its total cost including the Pins fixed 1X drivers. The error is
// core.ErrEmptySuite on a zero-value NetResult.
func (n NetResult) RepMin() (diam, cost float64, err error) {
	best, err := n.RepSuite.MinARD()
	if err != nil {
		return 0, 0, err
	}
	return best.ARD, best.Cost + n.BaseCost, nil
}

// RepMatching returns the cheapest repeater solution whose diameter
// equals or betters the best driver-sizing diameter (column 5 of
// Table II), as total cost including fixed drivers.
func (n NetResult) RepMatching() (cost float64, ok bool) {
	dsDiam, _, err := n.DSMin()
	if err != nil {
		return 0, false
	}
	sol, ok := n.RepSuite.MinCost(dsDiam)
	if !ok {
		return 0, false
	}
	return sol.Cost + n.BaseCost, true
}

// RunNet generates the net for (seed, pins) with the paper's Table II
// setup and runs both optimization modes.
func RunNet(seed int64, pins int, tech buslib.Tech) (NetResult, error) {
	tr, err := netgen.Generate(seed, netgen.Defaults(pins))
	if err != nil {
		return NetResult{}, err
	}
	return RunTopology(tr, tech, seed, pins)
}

// RunTopology runs both optimization modes on an existing topology.
func RunTopology(tr *topo.Tree, tech buslib.Tech, seed int64, pins int) (NetResult, error) {
	rt := tr.RootAt(tr.Terminals()[0])
	res := NetResult{
		Seed:      seed,
		Pins:      pins,
		Insertion: len(tr.Insertions()),
		WireUm:    tr.TotalWireLength(),
		BaseCost:  float64(pins),
	}
	base := rctree.NewNet(rt, tech, rctree.Assignment{})
	res.BaseARD = ard.Compute(base, ard.Options{}).ARD

	start := time.Now()
	sz, err := optimize(rt, tech, core.Options{SizeDrivers: true})
	if err != nil {
		return res, fmt.Errorf("sizing: %w", err)
	}
	res.SizingSec = time.Since(start).Seconds()
	res.SizingSuite = sz.Suite

	start = time.Now()
	rep, err := optimize(rt, tech, core.Options{Repeaters: true})
	if err != nil {
		return res, fmt.Errorf("repeaters: %w", err)
	}
	res.RepSec = time.Since(start).Seconds()
	res.RepSuite = rep.Suite
	return res, nil
}

// Table2Row is one averaged row of Table II. All ratio columns are
// normalized to the min-cost (no sizing, no repeaters) solution, exactly
// as in the paper.
type Table2Row struct {
	Pins   int
	AvgIns float64 // column 2: average number of insertion points

	DSDiam   float64 // column 3: sizing min diameter / base diameter
	DSCost   float64 // column 4: sizing cost / base cost
	RIMatch  float64 // column 5: cheapest repeater cost matching sizing diameter / base cost
	RIDiam   float64 // column 6: repeater min diameter / base diameter
	RICost   float64 // column 7: repeater min-diameter cost / base cost
	AvgDSSec float64 // Table IV: average sizing CPU seconds
	AvgRISec float64 // Table IV: average repeater CPU seconds

	// Sample standard deviations of the normalized diameters, reported
	// alongside the paper-format averages.
	DSDiamStd float64
	RIDiamStd float64
}

// Table2 averages Nets random nets of the given size (seeds seed0,
// seed0+1, …), reproducing one row of Table II (and the matching cells of
// Table IV).
func Table2(pins, nets int, seed0 int64, tech buslib.Tech) (Table2Row, []NetResult, error) {
	results := make([]NetResult, nets)
	for i := 0; i < nets; i++ {
		nr, err := RunNet(seed0+int64(i), pins, tech)
		if err != nil {
			return Table2Row{}, nil, err
		}
		results[i] = nr
	}
	row, err := accumulateTable2(pins, results)
	return row, results, err
}

// accumulateTable2 folds per-net results into one Table II row, in input
// (seed) order so serial and parallel paths agree bit-for-bit.
func accumulateTable2(pins int, results []NetResult) (Table2Row, error) {
	row := Table2Row{Pins: pins}
	var dsDiams, riDiams []float64
	for _, nr := range results {
		dsD, dsC, err := nr.DSMin()
		if err != nil {
			return row, fmt.Errorf("seed %d: %w", nr.Seed, err)
		}
		riD, riC, err := nr.RepMin()
		if err != nil {
			return row, fmt.Errorf("seed %d: %w", nr.Seed, err)
		}
		match, ok := nr.RepMatching()
		if !ok {
			return row, fmt.Errorf("seed %d: no repeater solution matches sizing diameter", nr.Seed)
		}
		row.AvgIns += float64(nr.Insertion)
		row.DSDiam += dsD / nr.BaseARD
		row.DSCost += dsC / nr.BaseCost
		row.RIMatch += match / nr.BaseCost
		row.RIDiam += riD / nr.BaseARD
		row.RICost += riC / nr.BaseCost
		row.AvgDSSec += nr.SizingSec
		row.AvgRISec += nr.RepSec
		dsDiams = append(dsDiams, dsD/nr.BaseARD)
		riDiams = append(riDiams, riD/nr.BaseARD)
	}
	k := float64(len(results))
	row.AvgIns /= k
	row.DSDiam /= k
	row.DSCost /= k
	row.RIMatch /= k
	row.RIDiam /= k
	row.RICost /= k
	row.AvgDSSec /= k
	row.AvgRISec /= k
	row.DSDiamStd = stddev(dsDiams, row.DSDiam)
	row.RIDiamStd = stddev(riDiams, row.RIDiam)
	return row, nil
}

func stddev(xs []float64, mean float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// FormatTable1 renders the technology parameters (Table I).
func FormatTable1(tech buslib.Tech) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I: technology parameters (see DESIGN.md §4 for the substitution note)\n")
	fmt.Fprintf(&b, "  wire resistance   : %.4g Ω/µm\n", tech.Wire.ResPerUm*1000)
	fmt.Fprintf(&b, "  wire capacitance  : %.4g fF/µm\n", tech.Wire.CapPerUm*1000)
	for _, r := range tech.Repeaters {
		fmt.Fprintf(&b, "  repeater %-10s: delay %.3g ns, rout %.3g Ω, cin %.3g pF/side, cost %.3g\n",
			r.Name, r.DelayAB, r.RoutAB*1000, r.CapA, r.Cost)
	}
	for _, d := range tech.Drivers {
		fmt.Fprintf(&b, "  driver %-10s : intrinsic %.3g ns, rout %.3g Ω, cost %.3g\n",
			d.Name, d.Intrinsic, d.Rout*1000, d.Cost)
	}
	fmt.Fprintf(&b, "  previous-stage resistance: %.3g Ω\n", tech.PrevStageRes*1000)
	fmt.Fprintf(&b, "  next-stage capacitance   : %.3g pF\n", tech.NextStageCap)
	return b.String()
}

// FormatTable2 renders rows in the layout of Table II.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table II: normalized results (averages over random nets; 1.0 = min-cost solution)\n")
	b.WriteString("pins  ins.pts | DS diam (±σ)  DS cost | RI cost@DS-diam | RI diam (±σ)  RI cost\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%4d  %7.1f | %5.2f (±%.2f)  %7.2f | %15.2f | %5.2f (±%.2f)  %7.2f\n",
			r.Pins, r.AvgIns, r.DSDiam, r.DSDiamStd, r.DSCost, r.RIMatch, r.RIDiam, r.RIDiamStd, r.RICost)
	}
	return b.String()
}

// Table3Row is one sample topology's fastest-solution comparison.
type Table3Row struct {
	Name    string
	Pins    int
	DSDiam  float64 // ns
	DSCost  float64 // equivalent 1X buffers (drivers)
	RepDiam float64 // ns
	RepCost float64 // equivalent 1X buffers (drivers + repeaters)
	NumReps int
}

// Table3 compares the fastest driver-sizing and repeater-insertion
// solutions on sample topologies (three 10-pin and three 20-pin seeded
// instances, standing in for the paper's six unpublished samples).
func Table3(tech buslib.Tech) ([]Table3Row, error) {
	specs := []struct {
		pins int
		seed int64
	}{
		{10, 101}, {10, 102}, {10, 103},
		{20, 201}, {20, 202}, {20, 203},
	}
	var rows []Table3Row
	for i, sp := range specs {
		nr, err := RunNet(sp.seed, sp.pins, tech)
		if err != nil {
			return nil, err
		}
		dsBest, err := nr.SizingSuite.MinARD()
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", sp.seed, err)
		}
		repBest, err := nr.RepSuite.MinARD()
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", sp.seed, err)
		}
		rows = append(rows, Table3Row{
			Name:    fmt.Sprintf("net%d-%dpin", i+1, sp.pins),
			Pins:    sp.pins,
			DSDiam:  dsBest.ARD,
			DSCost:  dsBest.Cost,
			RepDiam: repBest.ARD,
			RepCost: repBest.Cost + nr.BaseCost,
			NumReps: repBest.Repeaters(),
		})
	}
	return rows, nil
}

// FormatTable3 renders Table III.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	b.WriteString("Table III: fastest driver-sizing vs repeater-insertion solutions\n")
	b.WriteString("net           | DS diam(ns) DS cost | RI diam(ns) RI cost  #reps\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-13s | %11.3f %7.0f | %11.3f %7.0f  %5d\n",
			r.Name, r.DSDiam, r.DSCost, r.RepDiam, r.RepCost, r.NumReps)
	}
	return b.String()
}

// FormatTable4 renders Table IV (run times) from Table II rows.
func FormatTable4(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table IV: average CPU seconds (this machine; paper used a SPARC 10)\n")
	b.WriteString("pins | repeater insertion | driver sizing\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%4d | %18.3f | %13.3f\n", r.Pins, r.AvgRISec, r.AvgDSSec)
	}
	return b.String()
}

// Fig11Solution describes one panel of Fig. 11.
type Fig11Solution struct {
	Label     string
	Repeaters int
	Cost      float64
	ARD       float64
	CritSrc   string
	CritSink  string
	Assign    rctree.Assignment
}

// Fig11Result carries the full figure.
type Fig11Result struct {
	Tree      *topo.Tree
	WireUm    float64
	Solutions []Fig11Solution
}

// Fig11 reproduces the 8-pin example: the unoptimized topology plus the
// repeater-insertion solutions with the requested repeater counts (the
// paper shows 2 and 5). For each requested count the suite entry with
// exactly that many repeaters is chosen when present, otherwise the
// closest available count.
func Fig11(seed int64, tech buslib.Tech, wantReps []int) (*Fig11Result, error) {
	tr, err := netgen.Generate(seed, netgen.Defaults(8))
	if err != nil {
		return nil, err
	}
	rt := tr.RootAt(tr.Terminals()[0])
	out := &Fig11Result{Tree: tr, WireUm: tr.TotalWireLength()}

	describe := func(label string, cost, ardVal float64, asg rctree.Assignment, reps int) Fig11Solution {
		n := rctree.NewNet(rt, tech, asg)
		res := ard.Compute(n, ard.Options{})
		name := func(id int) string {
			if id < 0 {
				return "-"
			}
			return tr.Node(id).Term.Name
		}
		return Fig11Solution{
			Label: label, Repeaters: reps, Cost: cost, ARD: ardVal,
			CritSrc: name(res.CritSrc), CritSink: name(res.CritSink),
			Assign: asg,
		}
	}

	base := rctree.NewNet(rt, tech, rctree.Assignment{})
	baseRes := ard.Compute(base, ard.Options{})
	out.Solutions = append(out.Solutions,
		describe("unoptimized", 0, baseRes.ARD, rctree.Assignment{}, 0))

	opt, err := optimize(rt, tech, core.Options{Repeaters: true})
	if err != nil {
		return nil, err
	}
	for _, k := range wantReps {
		bestIdx := -1
		bestDist := math.MaxInt
		for i, s := range opt.Suite {
			d := abs(s.Repeaters() - k)
			if d < bestDist {
				bestDist = d
				bestIdx = i
			}
		}
		s := opt.Suite[bestIdx]
		out.Solutions = append(out.Solutions, describe(
			fmt.Sprintf("%d-repeater solution", s.Repeaters()),
			s.Cost, s.ARD, s.Assignment(), s.Repeaters()))
	}
	return out, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// FormatFig11 renders the figure as text.
func FormatFig11(f *Fig11Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 11: optimization of an 8-pin net (total wirelength %.1f Kµm)\n", f.WireUm/1000)
	for _, s := range f.Solutions {
		fmt.Fprintf(&b, "  %-22s: RC-diameter %.4f ns, cost %.0f, critical %s -> %s\n",
			s.Label, s.ARD, s.Cost, s.CritSrc, s.CritSink)
	}
	return b.String()
}

// AsymRow is one row of the §VII asymmetric source/sink study.
type AsymRow struct {
	SourceFrac float64
	RIDiam     float64 // min repeater diameter / base diameter
	RICost     float64 // repeaters used by the min-diameter solution
}

// Asymmetric probes the effect of asymmetric source/sink distributions
// (§VII "future directions"): fewer sources leave more freedom for
// one-directional optimization, so diameters should drop at least as much
// as in the symmetric case.
func Asymmetric(pins, nets int, seed0 int64, tech buslib.Tech, fracs []float64) ([]AsymRow, error) {
	var rows []AsymRow
	for _, frac := range fracs {
		var accD, accC float64
		for i := 0; i < nets; i++ {
			p := netgen.Defaults(pins)
			p.SourceFrac = frac
			tr, err := netgen.Generate(seed0+int64(i), p)
			if err != nil {
				return nil, err
			}
			rt := tr.RootAt(tr.Terminals()[0])
			base := rctree.NewNet(rt, tech, rctree.Assignment{})
			baseARD := ard.Compute(base, ard.Options{}).ARD
			res, err := optimize(rt, tech, core.Options{Repeaters: true})
			if err != nil {
				return nil, err
			}
			best, err := res.Suite.MinARD()
			if err != nil {
				return nil, err
			}
			accD += best.ARD / baseARD
			accC += best.Cost
		}
		rows = append(rows, AsymRow{
			SourceFrac: frac,
			RIDiam:     accD / float64(nets),
			RICost:     accC / float64(nets),
		})
	}
	return rows, nil
}

// FormatAsym renders the asymmetric-roles table.
func FormatAsym(rows []AsymRow) string {
	var b strings.Builder
	b.WriteString("Asymmetric source/sink study (§VII): repeater insertion, min-diameter point\n")
	b.WriteString("source frac | norm. diameter | repeater cost\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%11.2f | %14.3f | %13.1f\n", r.SourceFrac, r.RIDiam, r.RICost)
	}
	return b.String()
}
