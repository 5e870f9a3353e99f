package experiments

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"msrnet/internal/ard"
	"msrnet/internal/buslib"
	"msrnet/internal/core"
	"msrnet/internal/netgen"
	"msrnet/internal/rctree"
)

// SpacingRow is one row of the insertion-point-spacing study, which
// reproduces footnote 15 of the paper: tightening the spacing well below
// 800 µm increases complexity (and run time) while improving the
// achievable diameter only slightly.
type SpacingRow struct {
	SpacingUm float64
	AvgIns    float64 // average number of insertion points
	RIDiam    float64 // repeater min diameter / base diameter
	AvgSec    float64 // average optimizer seconds
}

// SpacingStudy measures min-diameter repeater insertion across insertion
// spacings on the same nets.
func SpacingStudy(pins, nets int, seed0 int64, tech buslib.Tech, spacings []float64) ([]SpacingRow, error) {
	var rows []SpacingRow
	for _, sp := range spacings {
		row := SpacingRow{SpacingUm: sp}
		for i := 0; i < nets; i++ {
			p := netgen.Defaults(pins)
			p.MaxInsertionSpacingUm = sp
			tr, err := netgen.Generate(seed0+int64(i), p)
			if err != nil {
				return nil, err
			}
			rt := tr.RootAt(tr.Terminals()[0])
			base := rctree.NewNet(rt, tech, rctree.Assignment{})
			baseARD := ard.Compute(base, ard.Options{}).ARD
			start := time.Now()
			res, err := optimize(rt, tech, core.Options{Repeaters: true})
			if err != nil {
				return nil, err
			}
			row.AvgSec += time.Since(start).Seconds()
			best, err := res.Suite.MinARD()
			if err != nil {
				return nil, err
			}
			row.AvgIns += float64(len(tr.Insertions()))
			row.RIDiam += best.ARD / baseARD
		}
		k := float64(nets)
		row.AvgSec /= k
		row.AvgIns /= k
		row.RIDiam /= k
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatSpacing renders the spacing study.
func FormatSpacing(rows []SpacingRow) string {
	var b strings.Builder
	b.WriteString("Insertion-point spacing study (paper footnote 15)\n")
	b.WriteString("spacing(µm) | avg points | norm. min diameter | avg seconds\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%11.0f | %10.1f | %18.4f | %11.3f\n",
			r.SpacingUm, r.AvgIns, r.RIDiam, r.AvgSec)
	}
	return b.String()
}

// Table2Parallel is Table2 with the per-net work fanned out across
// workers. Results are deterministic and identical to the serial path:
// each net's computation is independent and the averaging is
// order-insensitive only up to floating-point association, so partial
// sums are accumulated in seed order after all workers finish.
func Table2Parallel(pins, nets int, seed0 int64, tech buslib.Tech, workers int) (Table2Row, []NetResult, error) {
	if workers <= 1 {
		return Table2(pins, nets, seed0, tech)
	}
	results := make([]NetResult, nets)
	errs := make([]error, nets)
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := 0; i < nets; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i], errs[i] = RunNet(seed0+int64(i), pins, tech)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return Table2Row{}, nil, err
		}
	}
	// Accumulate in deterministic (seed) order.
	row, err := accumulateTable2(pins, results)
	return row, results, err
}

// CombinedRow reports the joint sizing+repeater mode against each
// technique alone — the natural "combinations of these techniques"
// experiment the paper's introduction motivates.
type CombinedRow struct {
	Pins         int
	DSDiam       float64 // sizing-only min diameter / base
	RIDiam       float64 // repeaters-only min diameter / base
	CombinedDiam float64 // joint mode min diameter / base
}

// Combined runs the joint optimization study.
func Combined(pins, nets int, seed0 int64, tech buslib.Tech) (CombinedRow, error) {
	row := CombinedRow{Pins: pins}
	for i := 0; i < nets; i++ {
		tr, err := netgen.Generate(seed0+int64(i), netgen.Defaults(pins))
		if err != nil {
			return row, err
		}
		rt := tr.RootAt(tr.Terminals()[0])
		base := rctree.NewNet(rt, tech, rctree.Assignment{})
		baseARD := ard.Compute(base, ard.Options{}).ARD
		ds, err := optimize(rt, tech, core.Options{SizeDrivers: true})
		if err != nil {
			return row, err
		}
		ri, err := optimize(rt, tech, core.Options{Repeaters: true})
		if err != nil {
			return row, err
		}
		both, err := optimize(rt, tech, core.Options{Repeaters: true, SizeDrivers: true})
		if err != nil {
			return row, err
		}
		dsBest, err := ds.Suite.MinARD()
		if err != nil {
			return row, err
		}
		riBest, err := ri.Suite.MinARD()
		if err != nil {
			return row, err
		}
		bothBest, err := both.Suite.MinARD()
		if err != nil {
			return row, err
		}
		row.DSDiam += dsBest.ARD / baseARD
		row.RIDiam += riBest.ARD / baseARD
		row.CombinedDiam += bothBest.ARD / baseARD
	}
	k := float64(nets)
	row.DSDiam /= k
	row.RIDiam /= k
	row.CombinedDiam /= k
	return row, nil
}

// FormatCombined renders the joint-mode study.
func FormatCombined(rows []CombinedRow) string {
	var b strings.Builder
	b.WriteString("Combined sizing + repeater study (joint optimization)\n")
	b.WriteString("pins | sizing only | repeaters only | combined\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%4d | %11.3f | %14.3f | %8.3f\n", r.Pins, r.DSDiam, r.RIDiam, r.CombinedDiam)
	}
	return b.String()
}
