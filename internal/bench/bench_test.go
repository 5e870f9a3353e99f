package bench

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestRunQuickSuite runs the CI-sized suite once and checks the report
// shape: schema, every workload present with counters and span phases.
func TestRunQuickSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the MSRI DP; skipped with -short")
	}
	rep, err := Run(Config{Suite: "quick", Repeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != Schema {
		t.Errorf("schema = %q, want %q", rep.Schema, Schema)
	}
	want := map[string]bool{"ard/16pin": false, "msri/10pin": false, "msri/12pin": false, "msri/20pin": false}
	for _, wl := range rep.Workloads {
		if _, ok := want[wl.Name]; !ok {
			t.Errorf("unexpected workload %q", wl.Name)
			continue
		}
		want[wl.Name] = true
		if len(wl.Counters) == 0 {
			t.Errorf("%s: no counters", wl.Name)
		}
		if len(wl.Phases) == 0 {
			t.Errorf("%s: no span phases captured", wl.Name)
		}
		if wl.WallSeconds <= 0 {
			t.Errorf("%s: wall_seconds = %g", wl.Name, wl.WallSeconds)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("workload %q missing from report", name)
		}
	}

	// Round-trip through the file format.
	path := filepath.Join(t.TempDir(), "BENCH_msrnet.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Workloads) != len(rep.Workloads) || back.Suite != rep.Suite {
		t.Errorf("round-trip mismatch: %+v vs %+v", back, rep)
	}

	// A report never regresses against itself.
	regs, err := Compare(rep, rep, 0, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Errorf("self-comparison found regressions: %v", regs)
	}
}

// TestWasteGate exercises the waste-budget comparison on synthetic
// reports: absolute per-mille deadband, missing-counter and
// missing-workload handling.
func TestWasteGate(t *testing.T) {
	base := Report{Schema: Schema, Suite: "quick", Workloads: []Workload{
		{Name: "msri/12pin", Counters: map[string]int64{"waste_per_mille": 460}},
		{Name: "msri/10pin", Counters: map[string]int64{"waste_per_mille": 200}},
		{Name: "ard/16pin", Counters: map[string]int64{"nodes": 60}},
	}}
	cur := Report{Schema: Schema, Suite: "quick", Workloads: []Workload{
		{Name: "msri/12pin", Counters: map[string]int64{"waste_per_mille": 464}}, // within slack
		{Name: "msri/10pin", Counters: map[string]int64{"waste_per_mille": 210}}, // past slack
		{Name: "ard/16pin", Counters: map[string]int64{"nodes": 60}},
	}}
	regs, err := WasteRegressions(base, cur, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Workload != "msri/10pin" || regs[0].Metric != "waste_per_mille" {
		t.Fatalf("regs = %v, want one msri/10pin waste regression", regs)
	}
	// Improvement passes.
	cur.Workloads[1].Counters["waste_per_mille"] = 150
	if regs, _ := WasteRegressions(base, cur, 5); len(regs) != 0 {
		t.Errorf("improvement flagged: %v", regs)
	}
	// A workload that silently loses its waste counter must fail.
	delete(cur.Workloads[0].Counters, "waste_per_mille")
	if regs, _ := WasteRegressions(base, cur, 5); len(regs) != 1 {
		t.Errorf("missing counter not flagged: %v", regs)
	}
	// As must a dropped workload.
	cur.Workloads = cur.Workloads[2:]
	if regs, _ := WasteRegressions(base, cur, 5); len(regs) != 2 {
		t.Errorf("missing workloads not flagged: %v", regs)
	}
}

// TestProfileMSRI: the msrnetprof entry point profiles a committed
// workload and its profile reconciles with the run stats.
func TestProfileMSRI(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the MSRI DP; skipped with -short")
	}
	res, err := ProfileMSRI("msri/12pin")
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile == nil {
		t.Fatal("no lifecycle profile attached")
	}
	if got := res.Profile.TotalDeaths(); got != res.Stats.Dropped {
		t.Errorf("profile deaths %d != Stats.Dropped %d", got, res.Stats.Dropped)
	}
	if _, err := ProfileMSRI("ard/16pin"); err == nil {
		t.Error("non-msri workload accepted")
	}
	if _, err := ProfileMSRI("msri/11pin"); err == nil {
		t.Error("uncommitted pin count accepted")
	}
}

// TestCandidateCountsPinned pins the DP's two candidate counts on the
// 10- and 12-pin bench nets. Stats.SolutionsCreated counts every
// constructed batch, taking each insertion point's unbuffered
// pass-through set a second time; LifecycleProfile.TotalBorn counts
// each candidate once. The CI counter gate and the benchmark's
// msri/20pin cross-check compare the first exactly, the waste gate
// rests on the second, so a change to the DP's reporting hooks must
// move neither.
func TestCandidateCountsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the MSRI DP; skipped with -short")
	}
	for _, tc := range []struct {
		name          string
		created, born int
	}{
		{"msri/10pin", 2685, 2078},
		{"msri/12pin", 4299, 3718},
	} {
		res, err := ProfileMSRI(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Stats.SolutionsCreated; got != tc.created {
			t.Errorf("%s: Stats.SolutionsCreated = %d, want %d", tc.name, got, tc.created)
		}
		if got := res.Profile.TotalBorn(); got != tc.born {
			t.Errorf("%s: LifecycleProfile.TotalBorn = %d, want %d", tc.name, got, tc.born)
		}
	}
}

// TestCompareDetectsRegressions exercises the comparison rules on
// synthetic reports, without running workloads.
func TestCompareDetectsRegressions(t *testing.T) {
	base := Report{Schema: Schema, Suite: "quick", Workloads: []Workload{
		{Name: "msri/10pin", Counters: map[string]int64{"solutions_created": 1000, "prune_calls": 40}, WallSeconds: 1.0},
		{Name: "ard/16pin", Counters: map[string]int64{"nodes": 60}, WallSeconds: 0.1},
	}}

	cur := Report{Schema: Schema, Suite: "quick", Workloads: []Workload{
		// solutions_created +50% (past 25%); prune_calls down (fine).
		{Name: "msri/10pin", Counters: map[string]int64{"solutions_created": 1500, "prune_calls": 30}, WallSeconds: 3.0},
		// Workload dropped entirely: must flag, not silently pass.
	}}
	regs, err := Compare(base, cur, 0.25, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 2 {
		t.Fatalf("regressions = %v, want counter blow-up + missing workload", regs)
	}
	if regs[0].Workload != "msri/10pin" || regs[0].Metric != "solutions_created" {
		t.Errorf("first regression = %+v", regs[0])
	}
	if regs[1].Metric != "(missing workload)" {
		t.Errorf("second regression = %+v", regs[1])
	}

	// Wall time is only compared when opted in.
	cur.Workloads = append(cur.Workloads, base.Workloads[1])
	cur.Workloads[0].Counters["solutions_created"] = 1000
	if regs, _ := Compare(base, cur, 0.25, 0); len(regs) != 0 {
		t.Errorf("time ignored by default, got %v", regs)
	}
	regs, err = Compare(base, cur, 0.25, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Metric != "wall_seconds" {
		t.Errorf("time regression = %v, want one wall_seconds entry", regs)
	}

	// Suite and schema mismatches are errors, not silent passes.
	if _, err := Compare(Report{Schema: Schema, Suite: "full"}, cur, 0.25, 0); err == nil {
		t.Error("suite mismatch not rejected")
	}
	if _, err := Compare(Report{Schema: "other/v9", Suite: "quick"}, cur, 0.25, 0); err == nil {
		t.Error("schema mismatch not rejected")
	}
}

// TestReportWriteFileAtomic: a report whose encoding fails leaves
// neither the target nor a temp file — the artifact is written through
// the atomic helper, never created empty and then filled.
func TestReportWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	bad := Report{Schema: Schema, Workloads: []Workload{{Name: "w", WallSeconds: math.NaN()}}}
	if err := bad.WriteFile(filepath.Join(dir, "report.json")); err == nil {
		t.Fatal("encoding a NaN wall time succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("failed write left %s behind", e.Name())
	}
}
