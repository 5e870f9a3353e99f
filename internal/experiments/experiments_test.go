package experiments

import (
	"bytes"
	"encoding/csv"
	"math"
	"strings"
	"testing"

	"msrnet/internal/buslib"
)

func TestRunNetShape(t *testing.T) {
	tech := buslib.Default()
	nr, err := RunNet(1, 10, tech)
	if err != nil {
		t.Fatal(err)
	}
	if nr.Insertion == 0 || nr.WireUm <= 0 || nr.BaseARD <= 0 {
		t.Fatalf("degenerate result: %+v", nr)
	}
	dsD, dsC, err := nr.DSMin()
	if err != nil {
		t.Fatal(err)
	}
	riD, riC, err := nr.RepMin()
	if err != nil {
		t.Fatal(err)
	}
	// Both optimizations must improve on the baseline.
	if dsD >= nr.BaseARD {
		t.Errorf("sizing did not improve: %g vs %g", dsD, nr.BaseARD)
	}
	if riD >= nr.BaseARD {
		t.Errorf("repeaters did not improve: %g vs %g", riD, nr.BaseARD)
	}
	// Repeater insertion beats sizing on diameter — the paper's headline.
	if riD >= dsD {
		t.Errorf("repeater diameter %g not better than sizing %g", riD, dsD)
	}
	if dsC <= float64(nr.Pins) {
		t.Errorf("sizing cost %g should exceed baseline %d (larger drivers)", dsC, nr.Pins)
	}
	if riC <= nr.BaseCost {
		t.Errorf("repeater total cost %g should exceed baseline %g", riC, nr.BaseCost)
	}
	// Matching solution is at most the min-diameter solution's cost.
	match, ok := nr.RepMatching()
	if !ok {
		t.Fatal("no matching repeater solution")
	}
	if match > riC {
		t.Errorf("matching cost %g exceeds min-diameter cost %g", match, riC)
	}
	// Table IV's stopwatch timed both optimize calls.
	if nr.SizingSec <= 0 || nr.RepSec <= 0 {
		t.Errorf("run times not recorded: sizing %gs, repeaters %gs", nr.SizingSec, nr.RepSec)
	}
}

func TestTable2RowNormalization(t *testing.T) {
	tech := buslib.Default()
	row, results, err := Table2(10, 3, 1, tech)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	// Normalized diameters must be in (0, 1); repeater beats sizing.
	if row.DSDiam <= 0 || row.DSDiam >= 1 {
		t.Errorf("DSDiam = %g", row.DSDiam)
	}
	if row.RIDiam <= 0 || row.RIDiam >= row.DSDiam {
		t.Errorf("RIDiam = %g vs DSDiam = %g", row.RIDiam, row.DSDiam)
	}
	// Costs normalized to base: all ≥ 1; matching solution cheaper than
	// the sizing solution for equal-or-better diameter (the paper's
	// second headline).
	if row.DSCost < 1 || row.RICost < 1 || row.RIMatch < 1 {
		t.Errorf("cost columns below 1: %+v", row)
	}
	if row.RIMatch >= row.DSCost {
		t.Errorf("matching repeater cost %g not below sizing cost %g", row.RIMatch, row.DSCost)
	}
	if row.AvgIns <= 0 {
		t.Error("no insertion points counted")
	}
}

func TestFormatters(t *testing.T) {
	tech := buslib.Default()
	s := FormatTable1(tech)
	for _, want := range []string{"Table I", "wire resistance", "repeater", "driver"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table I missing %q", want)
		}
	}
	rows := []Table2Row{{Pins: 10, AvgIns: 20, DSDiam: 0.74, DSCost: 2.1,
		RIMatch: 1.4, RIDiam: 0.56, RICost: 2.6}}
	s2 := FormatTable2(rows)
	if !strings.Contains(s2, "Table II") || !strings.Contains(s2, "0.74") {
		t.Errorf("Table II format: %s", s2)
	}
	s4 := FormatTable4(rows)
	if !strings.Contains(s4, "Table IV") {
		t.Errorf("Table IV format: %s", s4)
	}
}

func TestFig11(t *testing.T) {
	tech := buslib.Default()
	f, err := Fig11(8, tech, []int{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Solutions) != 3 {
		t.Fatalf("solutions = %d, want 3", len(f.Solutions))
	}
	un := f.Solutions[0]
	if un.Repeaters != 0 || un.Cost != 0 {
		t.Errorf("first solution should be unoptimized: %+v", un)
	}
	// Monotone improvement with added buffering resources (as in the
	// paper's panels).
	prev := un.ARD
	for _, s := range f.Solutions[1:] {
		if s.ARD >= prev {
			t.Errorf("solution %q did not improve: %g vs %g", s.Label, s.ARD, prev)
		}
		prev = s.ARD
		if s.CritSrc == "-" || s.CritSink == "-" {
			t.Errorf("solution %q missing critical pair", s.Label)
		}
	}
	out := FormatFig11(f)
	if !strings.Contains(out, "8-pin net") || !strings.Contains(out, "critical") {
		t.Errorf("Fig 11 format: %s", out)
	}
}

func TestAsymmetric(t *testing.T) {
	tech := buslib.Default()
	rows, err := Asymmetric(8, 2, 50, tech, []float64{0.25, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.RIDiam <= 0 || r.RIDiam >= 1 {
			t.Errorf("frac %g: normalized diameter %g out of range", r.SourceFrac, r.RIDiam)
		}
	}
	if s := FormatAsym(rows); !strings.Contains(s, "source frac") {
		t.Errorf("asym format: %s", s)
	}
}

func TestTable3(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tech := buslib.Default()
	rows, err := Table3(tech)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.RepDiam >= r.DSDiam {
			t.Errorf("%s: repeater diameter %g not better than sizing %g",
				r.Name, r.RepDiam, r.DSDiam)
		}
		if r.NumReps == 0 {
			t.Errorf("%s: fastest repeater solution uses no repeaters", r.Name)
		}
		if math.IsNaN(r.RepCost) || r.RepCost <= float64(r.Pins) {
			t.Errorf("%s: suspicious repeater cost %g", r.Name, r.RepCost)
		}
	}
	if s := FormatTable3(rows); !strings.Contains(s, "Table III") {
		t.Error("Table III format")
	}
}

func TestSpacingStudy(t *testing.T) {
	tech := buslib.Default()
	rows, err := SpacingStudy(8, 2, 1, tech, []float64{800, 450})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Denser spacing means more insertion points and a diameter that is
	// no worse (the footnote-15 shape).
	if rows[1].AvgIns <= rows[0].AvgIns {
		t.Errorf("denser spacing produced fewer points: %+v", rows)
	}
	if rows[1].RIDiam > rows[0].RIDiam+1e-9 {
		t.Errorf("denser spacing worsened diameter: %+v", rows)
	}
	for _, r := range rows {
		if r.AvgSec <= 0 {
			t.Errorf("spacing %g µm: run time not recorded", r.SpacingUm)
		}
	}
	if s := FormatSpacing(rows); !strings.Contains(s, "footnote 15") {
		t.Error("spacing format")
	}
}

func TestTable2ParallelMatchesSerial(t *testing.T) {
	tech := buslib.Default()
	serial, _, err := Table2(8, 3, 5, tech)
	if err != nil {
		t.Fatal(err)
	}
	par, results, err := Table2Parallel(8, 3, 5, tech, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	// All non-timing columns must be bit-identical (same seeds, same
	// accumulation order).
	if par.DSDiam != serial.DSDiam || par.RIDiam != serial.RIDiam ||
		par.DSCost != serial.DSCost || par.RIMatch != serial.RIMatch ||
		par.RICost != serial.RICost || par.AvgIns != serial.AvgIns {
		t.Errorf("parallel row differs from serial:\n  par %+v\n  ser %+v", par, serial)
	}
	// Workers ≤ 1 falls back to the serial path.
	one, _, err := Table2Parallel(8, 2, 5, tech, 1)
	if err != nil {
		t.Fatal(err)
	}
	if one.Pins != 8 {
		t.Error("fallback broken")
	}
}

func TestCSVWriters(t *testing.T) {
	tech := buslib.Default()
	row, results, err := Table2(8, 2, 1, tech)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTable2CSV(&buf, []Table2Row{row}); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || len(recs[0]) != 11 {
		t.Fatalf("table2 csv shape: %dx%d", len(recs), len(recs[0]))
	}
	if recs[1][0] != "8" {
		t.Errorf("pins cell = %q", recs[1][0])
	}

	buf.Reset()
	if err := WriteSuiteCSV(&buf, results[0]); err != nil {
		t.Fatal(err)
	}
	recs, err = csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 3 {
		t.Fatalf("suite csv too short: %d rows", len(recs))
	}
	modes := map[string]bool{}
	for _, rec := range recs[1:] {
		modes[rec[0]] = true
	}
	if !modes["sizing"] || !modes["repeater"] {
		t.Errorf("suite csv missing modes: %v", modes)
	}

	buf.Reset()
	if err := WriteSpacingCSV(&buf, []SpacingRow{{SpacingUm: 800, AvgIns: 20, RIDiam: 0.6, AvgSec: 0.1}}); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); !strings.Contains(got, "spacing_um") || !strings.Contains(got, "800") {
		t.Errorf("spacing csv: %q", got)
	}

	buf.Reset()
	if err := WriteTable3CSV(&buf, []Table3Row{{Name: "n1", Pins: 10, DSDiam: 3, DSCost: 17,
		RepDiam: 2, RepCost: 28, NumReps: 9}}); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); !strings.Contains(got, "n1") {
		t.Errorf("table3 csv: %q", got)
	}
}

func TestCombinedStudy(t *testing.T) {
	tech := buslib.Default()
	row, err := Combined(8, 2, 1, tech)
	if err != nil {
		t.Fatal(err)
	}
	// The joint mode can never lose to either technique alone.
	if row.CombinedDiam > row.DSDiam+1e-9 || row.CombinedDiam > row.RIDiam+1e-9 {
		t.Errorf("combined %g worse than DS %g or RI %g", row.CombinedDiam, row.DSDiam, row.RIDiam)
	}
	if s := FormatCombined([]CombinedRow{row}); !strings.Contains(s, "combined") {
		t.Error("format")
	}
}
