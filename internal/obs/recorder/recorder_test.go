package recorder

import (
	"bytes"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"msrnet/internal/obs"
	"msrnet/internal/obs/trace"
)

func quiet() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

func TestParseRules(t *testing.T) {
	rules, err := ParseRules("e2e-slow:p99:e2e/ok:500ms:1m; err-fast:error_rate:0.01:2m")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("got %d rules, want 2", len(rules))
	}
	r := rules[0]
	if r.Name != "e2e-slow" || r.Kind != KindP99 || r.Metric != "e2e/ok" || r.Threshold != 500 || r.Window != time.Minute {
		t.Fatalf("rule 0 parsed wrong: %+v", r)
	}
	r = rules[1]
	if r.Name != "err-fast" || r.Kind != KindErrorRate || r.Threshold != 0.01 || r.Window != 2*time.Minute {
		t.Fatalf("rule 1 parsed wrong: %+v", r)
	}
	// Round-trip: the String form re-parses to the same rule.
	again, err := ParseRules(rules[0].String() + ";" + rules[1].String())
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 2 || again[0] != rules[0] || again[1] != rules[1] {
		t.Fatalf("spec round-trip changed the rules: %+v vs %+v", again, rules)
	}
}

func TestParseRulesRejects(t *testing.T) {
	for _, spec := range []string{
		"x",                            // not enough fields
		"a:p99:e2e/ok:banana:1m",       // bad threshold
		"a:p99:e2e:500ms:1m",           // metric missing class
		"a:error_rate:2:1m",            // rate out of [0,1]
		"a:error_rate:0.5:0s",          // non-positive window
		"a:p42:e2e/ok:500ms:1m",        // unknown kind
		":p99:e2e/ok:500ms:1m",         // empty name
		"a:p99:e2e/ok:500ms:1m:extras", // too many fields
	} {
		if _, err := ParseRules(spec); err == nil {
			t.Errorf("spec %q: parsed, want error", spec)
		}
	}
}

func TestRingBounded(t *testing.T) {
	reg := obs.New()
	f := New(Config{Reg: reg, Capacity: 4, Interval: time.Hour, Logger: quiet()})
	base := time.Now()
	for i := 0; i < 10; i++ {
		reg.Counter("tick").Inc()
		f.tick(base.Add(time.Duration(i) * time.Second))
	}
	got := f.Samples(0)
	if len(got) != 4 {
		t.Fatalf("ring has %d samples, want capacity 4", len(got))
	}
	// Oldest-first: the retained samples are ticks 6..9.
	for i, s := range got {
		if want := int64(7 + i); s.Metrics.Counters["tick"] != want {
			t.Fatalf("sample %d has tick=%d, want %d", i, s.Metrics.Counters["tick"], want)
		}
	}
	if last2 := f.Samples(2); len(last2) != 2 || last2[1].Metrics.Counters["tick"] != 10 {
		t.Fatalf("Samples(2) = %d samples ending %v", len(last2), last2)
	}
	st := f.State(3)
	if st.Ticks != 10 || len(st.Samples) != 3 || st.Capacity != 4 {
		t.Fatalf("State: ticks=%d samples=%d cap=%d", st.Ticks, len(st.Samples), st.Capacity)
	}
}

func TestQuantileRuleFiresAfterWindow(t *testing.T) {
	reg := obs.New()
	w := reg.Window("svc/latency/e2e/ok", time.Minute, time.Second)
	rules, err := ParseRules("slow:p99:e2e/ok:100ms:3s")
	if err != nil {
		t.Fatal(err)
	}
	f := New(Config{Reg: reg, Rules: rules, Interval: time.Hour, Logger: quiet()})
	base := time.Now()

	// Healthy latency: no breach.
	w.Observe(10)
	f.tick(base)
	if st := f.RuleStates()[0]; st.Breaching || st.Firing {
		t.Fatalf("healthy tick breached: %+v", st)
	}

	// Latency jumps over the threshold: breaching immediately, firing
	// only once the breach has held for the 3s window.
	for i := 0; i < 200; i++ {
		w.Observe(500)
	}
	f.tick(base.Add(1 * time.Second))
	st := f.RuleStates()[0]
	if !st.Breaching || st.Firing {
		t.Fatalf("tick 1: want breaching, not yet firing: %+v", st)
	}
	f.tick(base.Add(2 * time.Second))
	f.tick(base.Add(4*time.Second + time.Millisecond)) // 3s+ since the breach started
	if st := f.RuleStates()[0]; !st.Firing {
		t.Fatalf("breach held past the window but rule not firing: %+v", st)
	}
	// The firing tick is marked in the ring.
	last := f.Samples(1)[0]
	if len(last.Firing) != 1 || last.Firing[0] != "slow" {
		t.Fatalf("firing sample not marked: %+v", last.Firing)
	}
}

func TestErrorRateRule(t *testing.T) {
	reg := obs.New()
	completed := reg.Counter("svc/jobs_completed")
	failed := reg.Counter("svc/jobs_failed")
	rules, err := ParseRules("burn:error_rate:0.10:4s")
	if err != nil {
		t.Fatal(err)
	}
	f := New(Config{Reg: reg, Rules: rules, Interval: time.Hour, Logger: quiet()})
	base := time.Now()

	// Two samples only 1s apart do not cover the 4s window: no firing
	// even at a 100% failure rate.
	f.tick(base)
	failed.Add(10)
	f.tick(base.Add(time.Second))
	if st := f.RuleStates()[0]; st.Firing {
		t.Fatalf("fired without window coverage: %+v", st)
	}

	// Healthy traffic across the window: rate stays under threshold.
	completed.Add(1000)
	f.tick(base.Add(2 * time.Second))
	f.tick(base.Add(5 * time.Second))
	st := f.RuleStates()[0]
	if st.Firing {
		t.Fatalf("fired on a healthy window: %+v", st)
	}

	// A fast burn: half the jobs in the window fail.
	completed.Add(50)
	failed.Add(50)
	f.tick(base.Add(6 * time.Second))
	f.tick(base.Add(9 * time.Second))
	st = f.RuleStates()[0]
	if !st.Firing {
		t.Fatalf("fast burn not detected: %+v", st)
	}
	if st.Value < 0.10 {
		t.Fatalf("windowed rate %.3f, want > threshold", st.Value)
	}
}

func TestTriggerWritesBundleAndRetention(t *testing.T) {
	dir := t.TempDir()
	reg := obs.New()
	reg.Counter("svc/jobs_completed").Add(7)
	tr := trace.New(64)
	tr.Instant("prune", "dp", trace.I("drops", 3))
	f := New(Config{
		Reg: reg, Tracer: tr, Dir: dir, Interval: time.Hour,
		MaxBundles: 2, Info: map[string]string{"version": "test"}, Logger: quiet(),
	})
	f.SetSource(FileJobs, func() any {
		return JobsDump{Recent: []JobReport{{
			JobID: "j1", Label: "net-1", TraceID: "trace-1", Outcome: "error", Code: "internal", TotalMs: 12.5,
			Solve: &JobSolve{SolutionsCreated: 4300, Dropped: 2000, PruneCalls: 30, MaxSetSize: 140},
		}}}
	})
	f.tick(time.Now())

	var dirs []string
	for i := 0; i < 3; i++ {
		d, err := f.Trigger(ReasonManual, "test dump")
		if err != nil {
			t.Fatal(err)
		}
		dirs = append(dirs, d)
		time.Sleep(2 * time.Millisecond) // distinct bundle timestamps
	}

	// Retention: only the 2 newest bundles survive.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("retention kept %d bundles, want 2", len(entries))
	}
	if _, err := os.Stat(dirs[0]); !os.IsNotExist(err) {
		t.Fatalf("oldest bundle %s survived retention", dirs[0])
	}

	b, err := LoadBundle(dirs[2])
	if err != nil {
		t.Fatal(err)
	}
	if b.Manifest.Schema != BundleSchema || b.Manifest.Trigger.Reason != ReasonManual {
		t.Fatalf("manifest: %+v", b.Manifest)
	}
	if len(b.Ring) != 1 || b.Ring[0].Metrics.Counters["svc/jobs_completed"] != 7 {
		t.Fatalf("ring not captured: %+v", b.Ring)
	}
	if b.Metrics.Counters["svc/jobs_completed"] != 7 {
		t.Fatalf("final metrics not captured: %+v", b.Metrics.Counters)
	}
	if len(b.Jobs.Recent) != 1 || b.Jobs.Recent[0].Solve.SolutionsCreated != 4300 {
		t.Fatalf("jobs not captured: %+v", b.Jobs)
	}
	if b.GoroutineCount == 0 {
		t.Fatal("goroutine dump missing or empty")
	}
	if !b.HasTrace || !b.HasHeap {
		t.Fatalf("trace/heap artifacts missing: trace=%v heap=%v", b.HasTrace, b.HasHeap)
	}
	// Every manifest-listed file exists.
	for _, name := range b.Manifest.Files {
		if _, err := os.Stat(filepath.Join(dirs[2], name)); err != nil {
			t.Errorf("manifest lists %s but: %v", name, err)
		}
	}
}

// TestSourceFileOrder: a bundle writes the installed source files in
// the fixed order FileJobs, FileCluster, FileTenants, FileSpans,
// whatever order they were installed in, so the manifest does not
// depend on how a daemon wires its sources.
func TestSourceFileOrder(t *testing.T) {
	dir := t.TempDir()
	f := New(Config{Reg: obs.New(), Dir: dir, Interval: time.Hour, Logger: quiet()})
	for _, file := range []string{FileSpans, FileTenants, FileJobs} {
		f.SetSource(file, func() any { return map[string]string{"file": file} })
	}
	d, err := f.Trigger(ReasonManual, "order")
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadBundle(d)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, name := range b.Manifest.Files {
		if slices.Contains(sourceFiles[:], name) {
			got = append(got, name)
		}
	}
	if want := []string{FileJobs, FileTenants, FileSpans}; !slices.Equal(got, want) {
		t.Errorf("source files in the manifest: %v, want %v", got, want)
	}
}

// TestFailedCaptureLeavesNoBundle: a capture that fails part-way
// (here the jobs view holds a NaN, which JSON cannot encode) returns an
// error and leaves nothing in Dir — no manifest-less bundle for
// msrnetctl postmortem -list to show or for retention to count.
func TestFailedCaptureLeavesNoBundle(t *testing.T) {
	dir := t.TempDir()
	f := New(Config{Reg: obs.New(), Dir: dir, Interval: time.Hour, Logger: quiet()})
	f.SetSource(FileJobs, func() any { return math.NaN() })
	if d, err := f.Trigger(ReasonManual, "unencodable jobs"); err == nil {
		t.Fatalf("capture of an unencodable jobs view succeeded: %s", d)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("failed capture left %s in the postmortem dir", e.Name())
	}
}

func TestTriggerAutoCooldown(t *testing.T) {
	dir := t.TempDir()
	f := New(Config{Reg: obs.New(), Dir: dir, Interval: time.Hour, Cooldown: time.Hour, Logger: quiet()})
	f.tick(time.Now())
	d1, err := f.TriggerAuto(ReasonPanic, "first")
	if err != nil || d1 == "" {
		t.Fatalf("first auto trigger: %q, %v", d1, err)
	}
	d2, err := f.TriggerAuto(ReasonPanic, "second")
	if err != nil {
		t.Fatal(err)
	}
	if d2 != "" {
		t.Fatalf("second auto trigger inside cooldown wrote %s", d2)
	}
	// Manual triggers ignore the cooldown.
	d3, err := f.Trigger(ReasonManual, "forced")
	if err != nil || d3 == "" {
		t.Fatalf("manual trigger during cooldown: %q, %v", d3, err)
	}
}

func TestNilRecorderIsInert(t *testing.T) {
	var f *FlightRecorder
	f.Start()
	f.Stop()
	f.SetSource(FileJobs, nil)
	if s := f.Samples(5); s != nil {
		t.Fatal("nil recorder returned samples")
	}
	if _, err := f.TriggerAuto(ReasonPanic, ""); err != nil {
		t.Fatalf("nil TriggerAuto: %v", err)
	}
	if _, err := f.Trigger(ReasonManual, ""); err == nil {
		t.Fatal("nil manual Trigger should error (nothing was written)")
	}
}

func TestStartStopLoop(t *testing.T) {
	reg := obs.New()
	f := New(Config{Reg: reg, Interval: 5 * time.Millisecond, Logger: quiet()})
	f.Start()
	deadline := time.Now().Add(2 * time.Second)
	for f.State(0).Ticks < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	f.Stop()
	if got := f.State(0).Ticks; got < 3 {
		t.Fatalf("loop took %d ticks, want >= 3", got)
	}
	// The ring samples carry runtime state.
	if s := f.Samples(1); len(s) != 1 || s[0].Runtime.Goroutines == 0 {
		t.Fatalf("samples missing runtime state: %+v", s)
	}
}

func TestWriteReport(t *testing.T) {
	dir := t.TempDir()
	reg := obs.New()
	w := reg.Window("svc/latency/e2e/ok", time.Minute, time.Second)
	w.Observe(12)
	reg.Counter("svc/jobs_completed").Add(3)
	reg.Counter("svc/jobs_failed").Add(1)
	reg.Gauge("svc/queue_depth").Set(2)
	f := New(Config{Reg: reg, Dir: dir, Interval: time.Hour, Logger: quiet(),
		Info: map[string]string{"go": "test"}})
	f.SetSource(FileJobs, func() any {
		return JobsDump{
			Active: []JobReport{{JobID: "j9", Label: "net-9", State: "running", Mode: "msri", TraceID: "t-9"}},
			Recent: []JobReport{
				{JobID: "j1", Label: "net-1", Outcome: "ok", TotalMs: 40,
					Solve: &JobSolve{SolutionsCreated: 4300, Dropped: 2000, PruneCalls: 30, MaxSetSize: 140}},
				{JobID: "j2", Label: "net-2", Outcome: "error", Code: "internal", TraceID: "t-2", TotalMs: 5},
			},
		}
	})
	f.tick(time.Now())
	w.Observe(900)
	f.tick(time.Now())
	path, err := f.Trigger(ReasonSIGQUIT, "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	baseline := &Baseline{Suite: "quick", Workloads: 1, SolutionsPerNet: 2685, DroppedPerNet: 563}
	var buf bytes.Buffer
	if err := WriteReport(&buf, b, baseline); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"msrnet postmortem",
		"trigger: sigquit",
		"timeline",
		"svc/latency/e2e/ok", // the mover
		"in-flight jobs",
		"j9",
		"outcome=error",
		"DP shape",
		"vs baseline",
		"goroutine dump",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
