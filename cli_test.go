package msrnet_test

// End-to-end command-line integration tests: build each tool once and
// drive realistic flag combinations through temp files. Guarded by
// -short so unit-test runs stay fast.

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

var cli struct {
	once sync.Once
	dir  string
	err  error
}

// buildTools compiles every command into a shared temp dir.
func buildTools(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode: skipping CLI integration tests")
	}
	cli.once.Do(func() {
		dir, err := os.MkdirTemp("", "msrnet-cli")
		if err != nil {
			cli.err = err
			return
		}
		cli.dir = dir
		for _, tool := range []string{"netgen", "ardcalc", "msri", "synth", "experiments", "msrnetctl"} {
			bin := filepath.Join(dir, tool)
			if runtime.GOOS == "windows" {
				bin += ".exe"
			}
			cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+tool)
			if out, err := cmd.CombinedOutput(); err != nil {
				cli.err = err
				cli.dir = string(out)
				return
			}
		}
	})
	if cli.err != nil {
		t.Fatalf("building tools: %v (%s)", cli.err, cli.dir)
	}
	return cli.dir
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	dir := buildTools(t)
	cmd := exec.Command(filepath.Join(dir, bin), args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", bin, args, err, out)
	}
	return string(out)
}

func TestCLIGenerateAnalyzeOptimize(t *testing.T) {
	dir := t.TempDir()
	netPath := filepath.Join(dir, "net.json")
	spefPath := filepath.Join(dir, "net.spef")

	run(t, "netgen", "-pins", "8", "-seed", "5", "-out", netPath, "-spef", spefPath)
	if _, err := os.Stat(netPath); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(spefPath); err != nil {
		t.Fatal(err)
	}

	out := run(t, "ardcalc", "-net", netPath, "-check", "-matrix")
	if !strings.Contains(out, "ARD =") || !strings.Contains(out, "critical pair") {
		t.Errorf("ardcalc output: %s", out)
	}
	if !strings.Contains(out, "naive ARD") {
		t.Errorf("cross-check missing: %s", out)
	}

	// The SPEF view must agree with the JSON view.
	outSpef := run(t, "ardcalc", "-net", spefPath)
	j := strings.SplitN(out, "\n", 2)[0]
	sp := strings.SplitN(outSpef, "\n", 2)[0]
	if j != sp {
		t.Errorf("JSON vs SPEF ARD lines differ: %q vs %q", j, sp)
	}

	svgPath := filepath.Join(dir, "sol.svg")
	asgPath := filepath.Join(dir, "sol.json")
	out = run(t, "msri", "-net", netPath, "-stats", "-report",
		"-svg", svgPath, "-assign", asgPath)
	for _, want := range []string{"tradeoff suite", "min-ARD solution", "stats:", "before", "after"} {
		if !strings.Contains(out, want) {
			t.Errorf("msri output missing %q:\n%s", want, out)
		}
	}
	if _, err := os.Stat(svgPath); err != nil {
		t.Error("svg not written")
	}
	if _, err := os.Stat(asgPath); err != nil {
		t.Error("assignment not written")
	}

	// Metrics snapshot: the JSON document must carry the DP's Stats
	// series, the set-size and PWL-segment views among them.
	metricsPath := filepath.Join(dir, "metrics.json")
	out = run(t, "msri", "-net", netPath, "-metrics", metricsPath, "-trace",
		"-cpuprofile", filepath.Join(dir, "cpu.pprof"), "-memprofile", filepath.Join(dir, "mem.pprof"))
	if !strings.Contains(out, "tradeoff suite") {
		t.Errorf("msri -metrics output: %s", out)
	}
	raw, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatalf("metrics file: %v", err)
	}
	for _, want := range []string{
		`"schema": "msrnet-metrics/v1"`,
		"core/nodes_visited", "core/set_size_sum", "core/max_set_size",
		"core/max_pwl_segments", "core/prune/divide/calls", "ard/runs",
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("metrics JSON missing %q", want)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "cpu.pprof")); err != nil {
		t.Error("cpu profile not written")
	}
	if _, err := os.Stat(filepath.Join(dir, "mem.pprof")); err != nil {
		t.Error("mem profile not written")
	}
	out = run(t, "ardcalc", "-net", netPath, "-metrics", filepath.Join(dir, "ard-metrics.json"))
	if !strings.Contains(out, "ARD =") {
		t.Errorf("ardcalc -metrics output: %s", out)
	}
	if raw, err := os.ReadFile(filepath.Join(dir, "ard-metrics.json")); err != nil {
		t.Error("ardcalc metrics not written")
	} else if !strings.Contains(string(raw), "ard/runs") {
		t.Error("ardcalc metrics missing ard/runs")
	}

	// Spec-driven run: the last line answers Problem 2.1.
	out = run(t, "msri", "-net", netPath, "-spec", "99")
	if l := lastLine(out); !strings.HasPrefix(l, "min-cost solution meeting ARD ≤ 99: ") {
		t.Errorf("msri -spec 99 last line: %q", l)
	}
}

func TestCLISynthAndExperiments(t *testing.T) {
	out := run(t, "synth", "-pins", "6", "-seed", "9")
	if !strings.Contains(out, "synthesized topology") || !strings.Contains(out, "optimized ARD") {
		t.Errorf("synth output: %s", out)
	}

	out = run(t, "experiments", "-table", "1")
	if !strings.Contains(out, "Table I") {
		t.Errorf("experiments -table 1: %s", out)
	}

	csvDir := t.TempDir()
	metricsPath := filepath.Join(csvDir, "metrics.json")
	out = run(t, "experiments", "-table", "2", "-nets", "2", "-parallel", "2",
		"-csvdir", csvDir, "-metrics", metricsPath)
	if !strings.Contains(out, "Table II") {
		t.Errorf("experiments -table 2: %s", out)
	}
	if _, err := os.Stat(filepath.Join(csvDir, "table2.csv")); err != nil {
		t.Error("table2.csv not written")
	}
	if raw, err := os.ReadFile(metricsPath); err != nil {
		t.Error("experiments metrics not written")
	} else if !strings.Contains(string(raw), "msrnet-metrics/v1") {
		t.Errorf("experiments metrics is not a snapshot: %s", raw)
	}
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}

// TestCLIObservatory drives the observability surfaces end to end: a
// Perfetto trace from msri, obs flags on netgen, and the offline
// readers of msrnetctl — a bench run compared against the committed
// baseline (whose work counters are deterministic, so the comparison
// must pass on any machine), a waste profile checked against the same
// baseline, and a postmortem listing of an empty directory.
func TestCLIObservatory(t *testing.T) {
	dir := t.TempDir()
	netPath := filepath.Join(dir, "net.json")
	run(t, "netgen", "-pins", "12", "-seed", "5", "-out", netPath,
		"-metrics", filepath.Join(dir, "netgen-metrics.json"))

	tracePath := filepath.Join(dir, "timeline.json")
	run(t, "msri", "-net", netPath, "-trace-events", tracePath)
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"traceEvents"`, `"dp/leaf"`, `"dp/prune"`, `"ard/compute"`, "msrnet-trace-events/v1"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("trace file missing %s", want)
		}
	}

	reportPath := filepath.Join(dir, "BENCH_msrnet.json")
	out := run(t, "msrnetctl", "bench", "-suite", "quick",
		"-out", reportPath, "-baseline", "BENCH_msrnet.json")
	if !strings.Contains(out, "no regressions") {
		t.Errorf("msrnetctl bench vs committed baseline: %s", out)
	}
	if _, err := os.Stat(reportPath); err != nil {
		t.Errorf("report not written: %v", err)
	}

	out = run(t, "msrnetctl", "prof", "-bench", "msri/10pin", "-baseline", "BENCH_msrnet.json")
	if !strings.Contains(out, "baseline msri/10pin: waste ratio ") {
		t.Errorf("msrnetctl prof vs committed baseline: %s", out)
	}

	empty := filepath.Join(dir, "postmortems")
	if err := os.Mkdir(empty, 0o755); err != nil {
		t.Fatal(err)
	}
	if out := run(t, "msrnetctl", "postmortem", "-list", empty); !strings.Contains(out, "no postmortem bundles") {
		t.Errorf("msrnetctl postmortem -list on an empty directory: %s", out)
	}
}

// TestCLIFailureFlushesObservability: a command that fails after its
// observability run started still closes it, so the -cpuprofile and
// -metrics files are written, no temp file is left behind, and the
// failure keeps its message and exit status 1.
func TestCLIFailureFlushesObservability(t *testing.T) {
	bin := buildTools(t)
	dir := t.TempDir()
	netPath := filepath.Join(dir, "n.json")
	run(t, "netgen", "-pins", "12", "-seed", "1", "-out", netPath)
	d := filepath.Join(dir, "d")
	if err := os.Mkdir(d, 0o755); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(filepath.Join(bin, "msri"), "-net", netPath, "-widths=-1",
		"-cpuprofile", filepath.Join(d, "cpu.pprof"), "-metrics", filepath.Join(d, "m.json")).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("msri -widths=-1: %v, want exit status 1\n%s", err, out)
	}
	if !strings.Contains(string(out), "msri: core: wire width -1 must be a finite positive number") {
		t.Errorf("msri -widths=-1 output lacks the failure message:\n%s", out)
	}
	entries, err := os.ReadDir(d)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{"cpu.pprof", "m.json"}; !slices.Equal(names, want) {
		t.Errorf("output dir holds %q, want %q", names, want)
	}
}

// TestCLIMsrnetctlErrorNamesToolOnce: a fleet-client failure prints the
// tool name once, as every other command does, and exits 1. A non-JSON
// -in file fails before any peer is contacted.
func TestCLIMsrnetctlErrorNamesToolOnce(t *testing.T) {
	bin := buildTools(t)
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(filepath.Join(bin, "msrnetctl"), "-peers", "http://127.0.0.1:1", "-in", bad).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("msrnetctl -in on a non-JSON file: %v, want exit status 1\n%s", err, out)
	}
	if n := strings.Count(string(out), "msrnetctl:"); n != 1 || !strings.Contains(string(out), "decode "+bad) {
		t.Errorf("msrnetctl names itself %d times, want once before the decode error:\n%s", n, out)
	}
}
