package spans

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"msrnet/internal/obs/reqctx"
)

// fakeClock is a deterministic, concurrency-safe test clock: every
// reading advances by step, so span order and durations are fixed.
type fakeClock struct {
	base  time.Time
	step  time.Duration
	ticks int64
}

func newFakeClock() *fakeClock {
	return &fakeClock{base: time.Unix(1700000000, 0), step: time.Millisecond}
}

func (c *fakeClock) Now() time.Time {
	n := atomic.AddInt64(&c.ticks, 1)
	return c.base.Add(time.Duration(n) * c.step)
}

func testIndex(t *testing.T, o Options) *Index {
	t.Helper()
	if o.Process == "" {
		o.Process = "node-a"
	}
	if o.Now == nil {
		o.Now = newFakeClock().Now
	}
	return NewIndex(o)
}

func traced(id string) context.Context {
	return reqctx.WithTraceID(context.Background(), id)
}

func TestStartWithoutTraceIDRecordsNothing(t *testing.T) {
	x := testIndex(t, Options{})
	ctx, s := x.Start(context.Background(), "submit")
	if s != nil {
		t.Fatalf("untraced context should yield a nil span, got %+v", s)
	}
	s.End() // must not panic
	if _, s2 := x.Start(ctx, "child"); s2 != nil {
		t.Fatal("child of an untraced context should stay nil")
	}
	if x.Len() != 0 {
		t.Fatalf("index holds %d traces, want 0", x.Len())
	}
}

func TestNilIndexAndSpanAreInert(t *testing.T) {
	var x *Index
	ctx, s := x.Start(traced("0123456789abcdef"), "submit")
	if s != nil {
		t.Fatal("nil index should yield a nil span")
	}
	s.Set("k", "v")
	s.SetPeer("p")
	s.End()
	if got := s.Ref(); got != "" {
		t.Fatalf("nil span Ref = %q, want empty", got)
	}
	if x.Len() != 0 || x.Evicted() != 0 || x.TraceIDs() != nil {
		t.Fatal("nil index accessors should be zero-valued")
	}
	if sum := x.Summarize("0123456789abcdef"); sum != nil {
		t.Fatalf("nil index Summarize = %+v, want nil", sum)
	}
	if _, ok := x.Export("0123456789abcdef"); ok {
		t.Fatal("nil index Export should miss")
	}
	if d := x.Dump(); len(d.Traces) != 0 || d.Schema != Schema {
		t.Fatalf("nil index Dump = %+v", d)
	}
	_ = ctx
}

func TestParentLinksLocalAndRemote(t *testing.T) {
	x := testIndex(t, Options{})
	ctx := traced("0123456789abcdef")

	// Remote parent applies to the first (root) span only; local
	// nesting wins below it.
	ctx = WithRemoteParent(ctx, "node-z#7")
	ctx, root := x.Start(ctx, "submit")
	cctx, child := x.Start(ctx, "queue")
	_, grand := x.Start(cctx, "solve")
	grand.End()
	child.End()
	root.End()

	exp, ok := x.Export("0123456789abcdef")
	if !ok {
		t.Fatal("trace missing from index")
	}
	if len(exp.Spans) != 3 {
		t.Fatalf("exported %d spans, want 3", len(exp.Spans))
	}
	byName := map[string]Record{}
	for _, r := range exp.Spans {
		byName[r.Name] = r
	}
	r := byName["submit"]
	if r.ParentRemote != "node-z#7" || r.Parent != 0 {
		t.Fatalf("root parent = (%d, %q), want (0, node-z#7)", r.Parent, r.ParentRemote)
	}
	if q := byName["queue"]; q.Parent != r.ID || q.ParentRemote != "" {
		t.Fatalf("queue parent = (%d, %q), want (%d, \"\")", q.Parent, q.ParentRemote, r.ID)
	}
	if s := byName["solve"]; s.Parent != byName["queue"].ID {
		t.Fatalf("solve parent = %d, want %d", s.Parent, byName["queue"].ID)
	}
	if want := Qualify("node-a", r.ID); want != "node-a#"+fmt.Sprint(r.ID) {
		t.Fatalf("Qualify = %q", want)
	}
}

func TestSplitRef(t *testing.T) {
	proc, id, ok := SplitRef("http://h1:8383#42")
	if !ok || proc != "http://h1:8383" || id != 42 {
		t.Fatalf("SplitRef = (%q, %d, %v)", proc, id, ok)
	}
	for _, bad := range []string{"", "#1", "x#", "x#0", "x#-3", "noref", "x#1.5"} {
		if _, _, ok := SplitRef(bad); ok {
			t.Fatalf("SplitRef(%q) should fail", bad)
		}
	}
}

func TestEndIsIdempotent(t *testing.T) {
	x := testIndex(t, Options{})
	_, s := x.Start(traced("0123456789abcdef"), "submit")
	s.End()
	s.End()
	exp, _ := x.Export("0123456789abcdef")
	if len(exp.Spans) != 1 {
		t.Fatalf("double End recorded %d spans, want 1", len(exp.Spans))
	}
}

// TestEndReturnsDuration: End returns the span's duration on the
// index's clock — also when the per-trace bound drops the record, and
// again on a repeated End — and Elapsed reads that clock from the
// span's start. Every fake-clock reading advances 1ms.
func TestEndReturnsDuration(t *testing.T) {
	x := testIndex(t, Options{MaxSpans: 1})
	ctx := traced("0123456789abcdef")
	_, kept := x.Start(ctx, "kept")
	if got := kept.End(); got != time.Millisecond {
		t.Errorf("kept span lasted %v, want 1ms", got)
	}
	_, dropped := x.Start(ctx, "dropped")
	if got := dropped.Elapsed(); got != time.Millisecond {
		t.Errorf("open span elapsed %v, want 1ms", got)
	}
	if got := dropped.End(); got != 2*time.Millisecond {
		t.Errorf("dropped span lasted %v, want 2ms", got)
	}
	if got := dropped.End(); got != 2*time.Millisecond {
		t.Errorf("repeated End returned %v, want the first duration 2ms", got)
	}
	if got := dropped.Elapsed(); got != 4*time.Millisecond {
		t.Errorf("ended span elapsed %v, want 4ms", got)
	}
	exp, _ := x.Export("0123456789abcdef")
	if len(exp.Spans) != 1 || exp.Dropped != 1 {
		t.Fatalf("kept %d spans and dropped %d, want 1 and 1", len(exp.Spans), exp.Dropped)
	}
	var none *Span
	if none.End() != 0 || none.Elapsed() != 0 {
		t.Error("a nil span must read 0")
	}
}

func TestExportIsByteIdentical(t *testing.T) {
	build := func() []byte {
		clock := newFakeClock()
		x := NewIndex(Options{Process: "node-a", Now: clock.Now})
		ctx := traced("0123456789abcdef")
		ctx, root := x.Start(ctx, "submit")
		_, q := x.Start(ctx, "queue")
		q.Set("tenant", "default")
		q.SetPeer("node-b")
		q.End()
		root.End()
		b, ok := x.ExportJSON("0123456789abcdef")
		if !ok {
			t.Fatal("export miss")
		}
		return b
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Fatalf("identical inputs produced different msrnet-spans/v1 bytes:\n%s\n---\n%s", a, b)
	}
	// And re-exporting the same index at the same tick count stays
	// stable span-wise (WallUnixNs moves with the clock by design).
	clock := newFakeClock()
	x := NewIndex(Options{Process: "node-a", Now: clock.Now})
	_, s := x.Start(traced("feedfacefeedface"), "submit")
	s.End()
	e1, _ := x.Export("feedfacefeedface")
	e2, _ := x.Export("feedfacefeedface")
	e1.WallUnixNs, e2.WallUnixNs = 0, 0
	if fmt.Sprint(e1) != fmt.Sprint(e2) {
		t.Fatalf("re-export drifted: %+v vs %+v", e1, e2)
	}
}

func TestPerTraceSpanBoundCountsDrops(t *testing.T) {
	x := testIndex(t, Options{MaxSpans: 4})
	ctx := traced("0123456789abcdef")
	for i := 0; i < 10; i++ {
		_, s := x.Start(ctx, fmt.Sprintf("span-%d", i))
		s.End()
	}
	exp, _ := x.Export("0123456789abcdef")
	if len(exp.Spans) != 4 {
		t.Fatalf("kept %d spans, want 4", len(exp.Spans))
	}
	if exp.Dropped != 6 {
		t.Fatalf("dropped = %d, want 6", exp.Dropped)
	}
}

func TestTraceEvictionUnderChurn(t *testing.T) {
	x := testIndex(t, Options{MaxTraces: 8})
	// Churn 100 traces through an 8-trace index; only the newest 8
	// survive and the eviction count tallies the rest.
	for i := 0; i < 100; i++ {
		ctx := traced(fmt.Sprintf("%016d", i))
		_, s := x.Start(ctx, "submit")
		s.End()
	}
	if x.Len() != 8 {
		t.Fatalf("index holds %d traces, want 8", x.Len())
	}
	if x.Evicted() != 92 {
		t.Fatalf("evicted = %d, want 92", x.Evicted())
	}
	ids := x.TraceIDs()
	for _, id := range ids {
		var n int
		fmt.Sscanf(id, "%d", &n)
		if n < 92 {
			t.Fatalf("trace %s survived but is not among the newest 8 (%v)", id, ids)
		}
	}
	// Touching an old trace protects it from the next eviction wave.
	keep := ids[0]
	for i := 100; i < 107; i++ {
		_, s := x.Start(traced(fmt.Sprintf("%016d", i)), "submit")
		s.End()
		_, k := x.Start(traced(keep), "touch")
		k.End()
	}
	found := false
	for _, id := range x.TraceIDs() {
		if id == keep {
			found = true
		}
	}
	if !found {
		t.Fatalf("recently touched trace %s was evicted; survivors %v", keep, x.TraceIDs())
	}
}

func TestConcurrentChurnStaysBounded(t *testing.T) {
	x := testIndex(t, Options{MaxTraces: 16, MaxSpans: 8})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ctx := traced(fmt.Sprintf("%08d%08d", g, i%24))
				ctx, root := x.Start(ctx, "submit")
				_, c := x.Start(ctx, "queue")
				c.End()
				root.End()
			}
		}(g)
	}
	wg.Wait()
	if got := x.Len(); got > 16 {
		t.Fatalf("index grew to %d traces under churn, bound is 16", got)
	}
	for _, id := range x.TraceIDs() {
		if exp, ok := x.Export(id); ok && len(exp.Spans) > 8 {
			t.Fatalf("trace %s holds %d spans, bound is 8", id, len(exp.Spans))
		}
	}
}

func TestSummarizeSelfTimeByClass(t *testing.T) {
	clock := newFakeClock()
	x := NewIndex(Options{Process: "node-a", Now: clock.Now})
	ctx := traced("0123456789abcdef")
	// Ticks advance 1ms per reading: submit spans the whole tree, the
	// queue and solve children take their own slices out of it.
	ctx, root := x.Start(ctx, "submit")  // t1
	_, q := x.Start(ctx, "queue")        // t2
	q.End()                              // t3: queue dur 1ms
	sctx, sv := x.Start(ctx, "solve")    // t4
	_, ard := x.Start(sctx, "solve/ard") // t5
	ard.End()                            // t6: ard dur 1ms
	sv.End()                             // t7: solve dur 3ms, self 2ms
	root.End()                           // t8: submit dur 7ms, self 3ms

	sum := x.Summarize("0123456789abcdef")
	if sum == nil {
		t.Fatal("summary missing")
	}
	if sum.Count != 4 || sum.Process != "node-a" {
		t.Fatalf("summary = %+v", sum)
	}
	want := map[string]float64{ClassQueue: 1, ClassSolve: 3, ClassOther: 3}
	for class, ms := range want {
		if got := sum.ByClassMs[class]; got != ms {
			t.Fatalf("ByClassMs[%s] = %v, want %v (full: %v)", class, got, ms, sum.ByClassMs)
		}
	}
}

func TestClassOf(t *testing.T) {
	cases := map[string]string{
		"queue":            ClassQueue,
		"solve":            ClassSolve,
		"solve/ard":        ClassSolve,
		"solve/optimize":   ClassSolve,
		"wal/append":       ClassFsync,
		"wal/fsync":        ClassFsync,
		"wal/replay":       ClassFsync,
		"forward":          ClassHop,
		"cache/remote_get": ClassRemoteCache,
		"cache/remote_put": ClassRemoteCache,
		"submit":           ClassOther,
		"decode":           ClassOther,
		"admit":            ClassOther,
		"cache/get":        ClassOther,
		"replay":           ClassOther,
	}
	for name, want := range cases {
		if got := ClassOf(name); got != want {
			t.Fatalf("ClassOf(%q) = %q, want %q", name, got, want)
		}
	}
}
