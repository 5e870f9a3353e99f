package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegionAndInstantRecording(t *testing.T) {
	tr := New(16)
	rg := tr.Begin("dp/node", "core")
	time.Sleep(time.Millisecond)
	rg.End(I("node", 5), I("set", 12))
	tr.Instant("dp/prune", "core", I("drops", 3))

	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d, want 2", len(evs))
	}
	x := evs[0]
	if x.Name != "dp/node" || x.Cat != "core" || x.Phase != 'X' {
		t.Errorf("region event = %+v", x)
	}
	if x.Dur < time.Millisecond {
		t.Errorf("region duration = %v, want ≥ 1ms", x.Dur)
	}
	if x.NArgs != 2 || x.Args[0] != I("node", 5) || x.Args[1] != I("set", 12) {
		t.Errorf("region args = %+v", x.Args[:x.NArgs])
	}
	i := evs[1]
	if i.Phase != 'i' || i.Dur != 0 || i.NArgs != 1 || i.Args[0] != I("drops", 3) {
		t.Errorf("instant event = %+v", i)
	}
	if i.TS < x.TS {
		t.Errorf("instant ts %v before region start %v", i.TS, x.TS)
	}
}

// TestRingOverwrite: a full ring keeps the newest events and counts the
// overwritten ones as dropped.
func TestRingOverwrite(t *testing.T) {
	tr := New(4)
	for k := 0; k < 10; k++ {
		tr.Instant("e", "t", I("k", k))
	}
	if tr.Len() != 4 {
		t.Fatalf("len = %d, want 4", tr.Len())
	}
	if tr.Total() != 10 || tr.Dropped() != 6 {
		t.Fatalf("total = %d dropped = %d, want 10/6", tr.Total(), tr.Dropped())
	}
	evs := tr.Events()
	for idx, want := range []int64{6, 7, 8, 9} {
		if evs[idx].Args[0].Val != want {
			t.Errorf("event %d: k = %d, want %d (oldest-first order)", idx, evs[idx].Args[0].Val, want)
		}
	}
}

// TestChromeJSONFormat validates the export against the trace-event
// Object Format: a top-level traceEvents array whose entries carry ph,
// ts (µs), name, and args — the shape Perfetto and chrome://tracing
// load.
func TestChromeJSONFormat(t *testing.T) {
	tr := New(16)
	tr.Begin("ard/dfs", "ard").End(I("nodes", 42))
	tr.Instant("note", "ard")

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		OtherData       struct {
			Schema  string `json:"schema"`
			Dropped uint64 `json:"dropped"`
		} `json:"otherData"`
		TraceEvents []struct {
			Name string           `json:"name"`
			Cat  string           `json:"cat"`
			Ph   string           `json:"ph"`
			Pid  int              `json:"pid"`
			Tid  int              `json:"tid"`
			TS   float64          `json:"ts"`
			Dur  *float64         `json:"dur"`
			S    string           `json:"s"`
			Args map[string]int64 `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.OtherData.Schema != TraceEventSchema {
		t.Errorf("schema = %q", doc.OtherData.Schema)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("traceEvents = %d, want 2", len(doc.TraceEvents))
	}
	x := doc.TraceEvents[0]
	if x.Ph != "X" || x.Name != "ard/dfs" || x.Cat != "ard" || x.Pid != 1 || x.Tid != 1 {
		t.Errorf("X event = %+v", x)
	}
	if x.Dur == nil || *x.Dur < 0 {
		t.Errorf("X event missing dur: %+v", x)
	}
	if x.Args["nodes"] != 42 {
		t.Errorf("args = %v", x.Args)
	}
	in := doc.TraceEvents[1]
	if in.Ph != "i" || in.S != "t" {
		t.Errorf("instant event = %+v", in)
	}
}

// TestNilTracerInert: every method on a nil tracer (and the Region a
// nil Begin returns) must no-op, and the nil export must still be a
// loadable empty trace.
func TestNilTracerInert(t *testing.T) {
	var tr *Tracer
	tr.Instant("x", "y", I("a", 1))
	tr.Begin("x", "y").End()
	if tr.Enabled() {
		t.Error("nil tracer reports Enabled")
	}
	if tr.Len() != 0 || tr.Total() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Error("nil tracer retained state")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("nil WriteJSON: %v", err)
	}
	if !json.Valid(buf.Bytes()) || !strings.Contains(buf.String(), "traceEvents") {
		t.Errorf("nil export invalid: %s", buf.String())
	}
	if err := tr.WriteFile(""); err != nil {
		t.Errorf("nil WriteFile: %v", err)
	}
}

// TestNilTracerZeroAlloc guards the disabled-path invariant the DP hot
// path relies on: recording against a nil tracer must not allocate,
// including the variadic args.
func TestNilTracerZeroAlloc(t *testing.T) {
	var tr *Tracer
	if n := testing.AllocsPerRun(1000, func() {
		rg := tr.Begin("dp/node", "core")
		rg.End(I("node", 1), I("set", 2), I("segs", 3))
		tr.Instant("dp/prune", "core", I("drops", 4))
	}); n != 0 {
		t.Errorf("nil tracer allocates %.1f per op, want 0", n)
	}
}

// TestLiveTracerZeroAllocPerEvent: even a live tracer must not allocate
// per event once the ring is warm — the ≤5% BenchmarkOptimize overhead
// budget leaves no room for per-node garbage.
func TestLiveTracerZeroAllocPerEvent(t *testing.T) {
	tr := New(64)
	if n := testing.AllocsPerRun(1000, func() {
		rg := tr.Begin("dp/node", "core")
		rg.End(I("node", 1), I("set", 2))
	}); n != 0 {
		t.Errorf("live tracer allocates %.1f per event, want 0", n)
	}
}

// TestConcurrentRecording exercises the ring under -race.
func TestConcurrentRecording(t *testing.T) {
	tr := New(128)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Begin("work", "test").End(I("worker", w))
			}
		}(w)
	}
	wg.Wait()
	if tr.Total() != 8*500 {
		t.Errorf("total = %d, want %d", tr.Total(), 8*500)
	}
	if tr.Len() != 128 {
		t.Errorf("len = %d, want full ring 128", tr.Len())
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Error("concurrent export invalid JSON")
	}
}

func BenchmarkRecordRegion(b *testing.B) {
	b.Run("live", func(b *testing.B) {
		tr := New(1 << 12)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr.Begin("dp/node", "core").End(I("node", i), I("set", 7))
		}
	})
	b.Run("nil", func(b *testing.B) {
		var tr *Tracer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr.Begin("dp/node", "core").End(I("node", i), I("set", 7))
		}
	})
}

// TestWriteJSONFilter: a trace_id filter keeps exactly the events
// stamped with that ID, the unfiltered export keeps everything, and a
// filter nothing matches still yields a valid empty trace.
func TestWriteJSONFilter(t *testing.T) {
	tr := New(16)
	tr.Instant("solve", "svc", S("trace_id", "t-1"))
	tr.Instant("solve", "svc", S("trace_id", "t-2"))
	tr.Instant("untagged", "svc")

	events := func(traceID string) []string {
		var buf bytes.Buffer
		if err := tr.WriteJSONFilter(&buf, traceID); err != nil {
			t.Fatalf("WriteJSONFilter(%q): %v", traceID, err)
		}
		if !json.Valid(buf.Bytes()) {
			t.Fatalf("WriteJSONFilter(%q): invalid JSON: %s", traceID, buf.String())
		}
		var doc struct {
			TraceEvents []struct {
				Args map[string]any `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		var ids []string
		for _, ev := range doc.TraceEvents {
			id, _ := ev.Args["trace_id"].(string)
			ids = append(ids, id)
		}
		return ids
	}

	if got := events("t-1"); len(got) != 1 || got[0] != "t-1" {
		t.Errorf("filter t-1: %v", got)
	}
	if got := events(""); len(got) != 3 {
		t.Errorf("unfiltered: %v", got)
	}
	if got := events("t-404"); len(got) != 0 {
		t.Errorf("filter t-404: %v", got)
	}
}

// TestInternTableFollowsTheRing: a daemon tags every DP event with
// per-request trace and job IDs, an unbounded vocabulary. Sending 100k
// distinct IDs through a small ring keeps every retained event's tags,
// the newest trace stays filterable, and the intern table stays
// bounded by what the ring can hold.
func TestInternTableFollowsTheRing(t *testing.T) {
	const ringCap, jobs = 1024, 100_000
	tr := New(ringCap)
	for i := 0; i < jobs; i++ {
		tr.Instant("dp/leaf", "core", S("trace_id", fmt.Sprintf("trace-%d", i)), S("job", fmt.Sprintf("j%d", i)))
	}
	evs := tr.Events()
	if len(evs) != ringCap {
		t.Fatalf("ring holds %d events, want %d", len(evs), ringCap)
	}
	for k, ev := range evs {
		i := jobs - ringCap + k
		if ev.Args[0].Str != fmt.Sprintf("trace-%d", i) || ev.Args[1].Str != fmt.Sprintf("j%d", i) {
			t.Fatalf("event %d of the ring carries %q/%q, want trace-%d/j%d", k, ev.Args[0].Str, ev.Args[1].Str, i, i)
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONFilter(&buf, fmt.Sprintf("trace-%d", jobs-1)); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 1 || doc.TraceEvents[0].Args["job"] != fmt.Sprintf("j%d", jobs-1) {
		t.Errorf("filtering the newest trace found %+v, want its one event", doc.TraceEvents)
	}
	// Four fixed strings, two IDs per retained event, and at most one
	// ring's worth of newer IDs since the last rebuild.
	tr.mu.Lock()
	n := len(tr.strs)
	tr.mu.Unlock()
	if limit := 4 + 2*2*ringCap; n > limit {
		t.Errorf("intern table holds %d strings, want at most %d", n, limit)
	}
}
