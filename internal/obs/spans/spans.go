// Package spans is the distributed half of the observability substrate:
// explicit spans with parent links, process identity and wall-anchored
// monotonic timestamps, kept in a bounded per-trace index so every
// daemon can answer "what did THIS trace do here?" long after the job
// finished. The ring tracer (obs/trace) keeps the batch timeline and
// the obs.Registry windows answer "how long do jobs take in general";
// this package answers "where did trace X's time go", and the fleet
// collector (internal/spancollect) stitches the per-process answers
// into one timeline. See DESIGN.md §15.
//
// Like every obs handle, a nil *Index and a nil *Span are valid,
// allocation-free sinks, so instrumented paths pay a nil check when
// tracing is off.
package spans

import (
	"context"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"msrnet/internal/obs/reqctx"
)

// Schema identifies the JSON layout of a per-trace span export, in the
// family of msrnet-metrics/v1 and msrnet-trace-events/v1.
const Schema = "msrnet-spans/v1"

// Record is one finished span as exported: timestamps are Unix
// nanoseconds on the owning process's clock (derived from a wall anchor
// plus a monotonic elapsed reading, so they never jump with NTP steps),
// and the parent link is either a local span ID or a qualified
// "process#id" reference when the parent lives in another process.
type Record struct {
	ID           int64             `json:"id"`
	Parent       int64             `json:"parent,omitempty"`
	ParentRemote string            `json:"parent_remote,omitempty"`
	Name         string            `json:"name"`
	StartUnixNs  int64             `json:"start_unix_ns"`
	DurNs        int64             `json:"dur_ns"`
	Peer         string            `json:"peer,omitempty"`
	Attrs        map[string]string `json:"attrs,omitempty"`
}

// Ref returns the record's qualified cross-process identity.
func (r Record) Ref(process string) string { return Qualify(process, r.ID) }

// Qualify builds the cross-process span reference "process#id" carried
// on forward hops and in ParentRemote links.
func Qualify(process string, id int64) string {
	return process + "#" + strconv.FormatInt(id, 10)
}

// SplitRef splits a qualified reference back into process and span ID;
// ok is false for malformed references.
func SplitRef(ref string) (process string, id int64, ok bool) {
	i := strings.LastIndexByte(ref, '#')
	if i <= 0 {
		return "", 0, false
	}
	id, err := strconv.ParseInt(ref[i+1:], 10, 64)
	if err != nil || id <= 0 {
		return "", 0, false
	}
	return ref[:i], id, true
}

// Span classes for critical-path attribution. ClassOf maps a span name
// to the segment the fleet report buckets it under.
const (
	ClassQueue       = "queue"
	ClassSolve       = "solve"
	ClassFsync       = "fsync"
	ClassHop         = "hop"
	ClassRemoteCache = "remote_cache"
	ClassOther       = "other"
)

// ClassOf buckets a span name into its critical-path segment: queue
// wait, solver, WAL append/fsync/replay, forward hop, remote shard
// cache, or other (serving overhead: decode, admission, encode).
func ClassOf(name string) string {
	switch {
	case name == "queue":
		return ClassQueue
	case name == "solve" || strings.HasPrefix(name, "solve/"):
		return ClassSolve
	case strings.HasPrefix(name, "wal/"):
		return ClassFsync
	case name == "forward":
		return ClassHop
	case strings.HasPrefix(name, "cache/remote"):
		return ClassRemoteCache
	default:
		return ClassOther
	}
}

// Options configures an Index.
type Options struct {
	// Process is this process's identity on cross-process span links —
	// the cluster self ID for a fleet member, a stable label otherwise.
	Process string
	// MaxTraces bounds how many distinct traces the index retains; the
	// least-recently-touched trace is evicted first (0 = 256).
	MaxTraces int
	// MaxSpans bounds the spans kept per trace; overflow is counted as
	// dropped, never blocks (0 = 512).
	MaxSpans int
	// Now overrides the clock (tests). It must be safe for concurrent
	// use; the default is time.Now.
	Now func() time.Time
}

const (
	defaultMaxTraces = 256
	defaultMaxSpans  = 512
)

// Index is the bounded per-process span store: spans land here on End,
// keyed by trace ID, and leave as deterministic msrnet-spans/v1 exports
// via GET /debug/spans/{traceID}, explain summaries and postmortem
// bundles. All methods are safe for concurrent use and nil-safe.
type Index struct {
	process   string
	maxTraces int
	maxSpans  int
	now       func() time.Time

	// Wall anchor: timestamps are originWallNs + (now() − origin), so
	// with the real clock they inherit time.Time's monotonic reading —
	// intervals are NTP-step-proof — while still reading as Unix ns.
	origin       time.Time
	originWallNs int64

	mu      sync.Mutex
	nextID  int64
	touch   int64
	traces  map[string]*traceBuf
	evicted int64
}

// traceBuf is one trace's bounded span buffer.
type traceBuf struct {
	touch   int64
	spans   []Record
	dropped int
}

// NewIndex builds an empty span index.
func NewIndex(o Options) *Index {
	if o.MaxTraces <= 0 {
		o.MaxTraces = defaultMaxTraces
	}
	if o.MaxSpans <= 0 {
		o.MaxSpans = defaultMaxSpans
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	origin := o.Now()
	return &Index{
		process:   o.Process,
		maxTraces: o.MaxTraces,
		maxSpans:  o.MaxSpans,
		now:       o.Now,
		origin:    origin,
		// Round-trip through UnixNano strips nothing: the anchor is the
		// wall half, the monotonic half rides on origin itself.
		originWallNs: origin.UnixNano(),
		traces:       map[string]*traceBuf{},
	}
}

// Process returns the index's process identity ("" on a nil index).
func (x *Index) Process() string {
	if x == nil {
		return ""
	}
	return x.process
}

// nowNs is the index's clock reading as Unix nanoseconds, monotonic
// under the real clock.
func (x *Index) nowNs() int64 {
	return x.originWallNs + x.now().Sub(x.origin).Nanoseconds()
}

// ctx keys for parent propagation.
type parentKey struct{}
type remoteParentKey struct{}

// parentRef is the in-context handle to the nearest enclosing span.
// It carries the owning index so a context that crosses a process
// boundary in-memory (the test transport's forward path) cannot leak
// one process's span IDs into another's index — a foreign parent is
// ignored and the remote link wins, exactly as over real HTTP.
type parentRef struct {
	idx *Index
	id  int64
}

// WithRemoteParent marks ctx so the NEXT root span started from it
// links to the given qualified "process#id" parent in another process —
// the server half of a forward hop. A local enclosing span, when
// present, always wins over the remote link.
func WithRemoteParent(ctx context.Context, ref string) context.Context {
	if ref == "" {
		return ctx
	}
	return context.WithValue(ctx, remoteParentKey{}, ref)
}

// Span is one open measurement. End records it into the index; a nil
// Span (nil index, or a context with no trace ID) no-ops everywhere.
type Span struct {
	idx     *Index
	traceID string
	id      int64
	parent  int64
	remote  string
	name    string
	startNs int64

	mu    sync.Mutex
	peer  string
	attrs map[string]string
	ended bool
}

// Start opens a span named name on the context's trace, parenting it to
// the nearest enclosing span (local first, then a WithRemoteParent
// link). The returned context makes this span the parent of spans
// started from it. Contexts without a trace ID get a nil span: only the
// request lifecycle is indexed, never untraced scrapes.
func (x *Index) Start(ctx context.Context, name string) (context.Context, *Span) {
	if x == nil {
		return ctx, nil
	}
	traceID := reqctx.TraceID(ctx)
	if traceID == "" {
		return ctx, nil
	}
	s := &Span{idx: x, traceID: traceID, name: name, startNs: x.nowNs()}
	if p, ok := ctx.Value(parentKey{}).(parentRef); ok && p.idx == x {
		s.parent = p.id
	} else if ref, ok := ctx.Value(remoteParentKey{}).(string); ok {
		s.remote = ref
	}
	x.mu.Lock()
	x.nextID++
	s.id = x.nextID
	x.mu.Unlock()
	return context.WithValue(ctx, parentKey{}, parentRef{idx: x, id: s.id}), s
}

// Ref returns the span's qualified "process#id" identity for
// cross-process parent links ("" on a nil span).
func (s *Span) Ref() string {
	if s == nil {
		return ""
	}
	return Qualify(s.idx.process, s.id)
}

// SetPeer records the remote peer this span talked to.
func (s *Span) SetPeer(peer string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.peer = peer
	s.mu.Unlock()
}

// Set attaches one string attribute.
func (s *Span) Set(key, val string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = map[string]string{}
	}
	s.attrs[key] = val
	s.mu.Unlock()
}

// End closes the span and files it under its trace. End is idempotent;
// only the first call records.
func (s *Span) End() {
	if s == nil {
		return
	}
	endNs := s.idx.nowNs()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	rec := Record{
		ID:           s.id,
		Parent:       s.parent,
		ParentRemote: s.remote,
		Name:         s.name,
		StartUnixNs:  s.startNs,
		DurNs:        endNs - s.startNs,
		Peer:         s.peer,
		Attrs:        s.attrs,
	}
	s.mu.Unlock()
	s.idx.add(s.traceID, rec)
}

// add files one finished span, evicting the least-recently-touched
// trace when the trace bound is hit and counting (not storing) spans
// past the per-trace bound.
func (x *Index) add(traceID string, rec Record) {
	x.mu.Lock()
	defer x.mu.Unlock()
	tb, ok := x.traces[traceID]
	if !ok {
		if len(x.traces) >= x.maxTraces {
			x.evictLocked()
		}
		tb = &traceBuf{}
		x.traces[traceID] = tb
	}
	x.touch++
	tb.touch = x.touch
	if len(tb.spans) >= x.maxSpans {
		tb.dropped++
		return
	}
	tb.spans = append(tb.spans, rec)
}

// evictLocked removes the least-recently-touched trace.
func (x *Index) evictLocked() {
	var victim string
	var oldest int64
	for id, tb := range x.traces {
		if victim == "" || tb.touch < oldest {
			victim, oldest = id, tb.touch
		}
	}
	if victim != "" {
		delete(x.traces, victim)
		x.evicted++
	}
}

// Len returns the number of traces currently indexed.
func (x *Index) Len() int {
	if x == nil {
		return 0
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	return len(x.traces)
}

// Evicted returns how many traces the bound has pushed out.
func (x *Index) Evicted() int64 {
	if x == nil {
		return 0
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.evicted
}

// TraceIDs lists the indexed trace IDs, sorted.
func (x *Index) TraceIDs() []string {
	if x == nil {
		return nil
	}
	x.mu.Lock()
	ids := make([]string, 0, len(x.traces))
	for id := range x.traces {
		ids = append(ids, id)
	}
	x.mu.Unlock()
	sort.Strings(ids)
	return ids
}

// Summary is the explain-report view of one trace's spans in one
// process: how many spans landed here and where this process spent its
// share, as per-class self time (a span's duration minus its local
// children's) in milliseconds. Hops is stamped by the service from the
// forward chain.
type Summary struct {
	Process string `json:"process,omitempty"`
	Count   int    `json:"count"`
	Dropped int    `json:"dropped,omitempty"`
	Hops    int    `json:"hops,omitempty"`
	// ByClassMs maps critical-path class → this process's self time.
	ByClassMs map[string]float64 `json:"by_class_ms,omitempty"`
}

// Summarize builds the explain summary for one trace, or nil when the
// trace is unknown (or the index is nil).
func (x *Index) Summarize(traceID string) *Summary {
	if x == nil {
		return nil
	}
	x.mu.Lock()
	tb, ok := x.traces[traceID]
	if !ok {
		x.mu.Unlock()
		return nil
	}
	recs := append([]Record(nil), tb.spans...)
	dropped := tb.dropped
	x.mu.Unlock()

	// Self time: duration minus local children, children clamped into
	// the parent window so a child that outlives its parent (ended out
	// of order) cannot drive self time negative.
	childNs := map[int64]int64{}
	byID := map[int64]Record{}
	for _, r := range recs {
		byID[r.ID] = r
	}
	for _, r := range recs {
		if r.Parent == 0 {
			continue
		}
		p, ok := byID[r.Parent]
		if !ok {
			continue
		}
		childNs[r.Parent] += overlapNs(r.StartUnixNs, r.DurNs, p.StartUnixNs, p.DurNs)
	}
	s := &Summary{Process: x.process, Count: len(recs), Dropped: dropped}
	for _, r := range recs {
		self := r.DurNs - childNs[r.ID]
		if self < 0 {
			self = 0
		}
		if s.ByClassMs == nil {
			s.ByClassMs = map[string]float64{}
		}
		s.ByClassMs[ClassOf(r.Name)] += float64(self) / 1e6
	}
	return s
}

// overlapNs returns how much of interval (as, ad) lies inside (bs, bd).
func overlapNs(as, ad, bs, bd int64) int64 {
	lo, hi := as, as+ad
	if bs > lo {
		lo = bs
	}
	if be := bs + bd; be < hi {
		hi = be
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}
