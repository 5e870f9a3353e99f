// Package trace is the timeline layer of the observability substrate:
// where internal/obs aggregates (how much time, how many solutions),
// trace records *when* — a bounded ring of timestamped events that
// exports to the Chrome trace-event JSON format, loadable in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing.
//
// The tracer is built for the MSRI hot path: the event buffer is
// preallocated at construction, event slots are fixed-size (typed int64
// args, no maps, no interfaces), and recording an event is a mutex
// acquire plus a struct copy — no allocation. Names, categories and
// argument keys are interned into a side table so the ring itself holds
// only scalars: a pointer-free ring is invisible to the garbage
// collector, which matters because the DP being traced is
// allocation-heavy and would otherwise pay a scan of the whole ring on
// every GC cycle. When the ring fills, the oldest events are
// overwritten and the drop count is reported in the export, so a long
// run keeps its most recent window instead of growing without bound.
//
// Like the rest of the obs substrate, a nil *Tracer is a valid sink:
// every method no-ops, and the Region returned by a nil Begin is inert,
// so instrumented code needs no branches.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
	"time"
)

// TraceEventSchema identifies the export format for downstream tooling.
// The payload is the standard Chrome trace-event JSON Object Format
// ({"traceEvents": [...]}), which Perfetto and chrome://tracing load
// directly; the schema name is carried in the otherData section.
const TraceEventSchema = "msrnet-trace-events/v1"

// DefaultCapacity is the ring size used by New when given a
// non-positive capacity: at ~104 bytes per slot this bounds the tracer
// near 14 MB, roughly one 20-pin Table II net's worth of per-node DP
// events with room to spare.
const DefaultCapacity = 1 << 17

// Arg is one typed event argument. Most values are int64 because the
// quantities the pipeline traces (node ids, solution-set sizes, PWL
// segment counts, prune drops) are small integers; string values (trace
// IDs, prune-site names) are interned into the tracer's side table so
// the slot stays fixed-size and pointer-free either way.
type Arg struct {
	Key string
	Val int64
	// Str, when IsStr is set, is the string value; Val is ignored.
	Str   string
	IsStr bool
}

// I builds an Arg from an int, the common case at call sites.
func I(key string, v int) Arg { return Arg{Key: key, Val: int64(v)} }

// S builds a string-valued Arg. The value is interned on record, so a
// bounded vocabulary (site names, outcome classes) is free; unbounded
// vocabularies (per-request trace IDs) grow the intern table one entry
// per distinct value until the tracer's intern cap, after which new
// strings collapse to "(interned-overflow)" — the ring stays bounded
// regardless.
func S(key, val string) Arg { return Arg{Key: key, Str: val, IsStr: true} }

// maxArgs is the per-event argument capacity. Events carrying more are
// truncated (never split), so slots stay fixed-size.
const maxArgs = 6

// Event is one recorded timeline event, as returned by Events. TS is
// the offset from the tracer's start; Dur is zero for instant events.
type Event struct {
	Name  string
	Cat   string
	Phase byte // 'X' (complete) or 'i' (instant)
	TS    time.Duration
	Dur   time.Duration
	Args  [maxArgs]Arg
	NArgs uint8
}

// slot is the in-ring representation of an event: strings are replaced
// by interned ids so the slot holds no pointers and the GC never scans
// the (potentially multi-megabyte) ring.
type slot struct {
	name    uint32
	cat     uint32
	phase   byte
	nargs   uint8
	strMask uint8 // bit i set: vals[i] is an interned string id
	keys    [maxArgs]uint32
	ts      int64 // nanoseconds since tracer start
	dur     int64
	vals    [maxArgs]int64
}

// Tracer records events into a fixed-capacity ring. All methods are
// safe for concurrent use and nil-safe.
type Tracer struct {
	mu    sync.Mutex
	start time.Time
	slots []slot
	next  int    // overwrite cursor, meaningful once the ring is full
	total uint64 // events ever recorded (total − len kept = dropped)

	// Interning table for names, categories and arg keys. The vocabulary
	// is the set of instrumentation sites, a few dozen strings at most.
	strs []string
	ids  map[string]uint32
}

// New returns a tracer with the given ring capacity (DefaultCapacity
// when cap <= 0). The buffer is allocated up front so recording never
// grows it.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{
		start: time.Now(),
		slots: make([]slot, 0, capacity),
		ids:   make(map[string]uint32),
	}
}

// maxInterned caps the interning table. Event names, categories and
// arg keys are a few dozen strings, but string arg *values* include
// per-request trace IDs, which are unbounded over a daemon's lifetime;
// the cap turns that into a bounded (≈2 MB worst-case) table instead
// of a slow leak. Strings arriving past the cap all map to one
// overflow id.
const maxInterned = 1 << 16

// internedOverflow replaces string values interned past the cap.
const internedOverflow = "(interned-overflow)"

// intern maps a string to its stable id, assigning one on first sight.
// Callers must hold t.mu. Lookups of known strings do not allocate,
// which keeps steady-state recording allocation-free.
func (t *Tracer) intern(s string) uint32 {
	if id, ok := t.ids[s]; ok {
		return id
	}
	if len(t.strs) >= maxInterned-1 && s != internedOverflow {
		// Table full: reserve the last slot for the overflow marker.
		return t.intern(internedOverflow)
	}
	id := uint32(len(t.strs))
	t.strs = append(t.strs, s)
	t.ids[s] = id
	return id
}

// Enabled reports whether events will actually be kept; it lets callers
// skip argument computation that is only needed for tracing.
func (t *Tracer) Enabled() bool { return t != nil }

// Instant records a zero-duration event ('i' in the trace-event
// format), e.g. a prune decision or a dropped-solution note.
func (t *Tracer) Instant(name, cat string, args ...Arg) {
	if t == nil {
		return
	}
	t.record(name, cat, 'i', time.Since(t.start), 0, args)
}

// Region is one open timed slice, closed by End. The zero Region (from
// a nil tracer) is inert.
type Region struct {
	t     *Tracer
	name  string
	cat   string
	start time.Duration
}

// Begin opens a timed region. The region is recorded as one complete
// ('X') event when End is called, so no begin/end pairing is needed in
// the viewer and an unfinished region at exit simply records nothing.
func (t *Tracer) Begin(name, cat string) Region {
	if t == nil {
		return Region{}
	}
	return Region{t: t, name: name, cat: cat, start: time.Since(t.start)}
}

// End closes the region, attaching the given args to the recorded
// event.
func (r Region) End(args ...Arg) {
	if r.t == nil {
		return
	}
	now := time.Since(r.t.start)
	r.t.record(r.name, r.cat, 'X', r.start, now-r.start, args)
}

func (t *Tracer) record(name, cat string, phase byte, ts, dur time.Duration, args []Arg) {
	n := len(args)
	if n > maxArgs {
		n = maxArgs
	}
	t.mu.Lock()
	var sl slot
	sl.name = t.intern(name)
	sl.cat = t.intern(cat)
	sl.phase = phase
	sl.nargs = uint8(n)
	sl.ts = int64(ts)
	sl.dur = int64(dur)
	for i := 0; i < n; i++ {
		sl.keys[i] = t.intern(args[i].Key)
		if args[i].IsStr {
			sl.strMask |= 1 << i
			sl.vals[i] = int64(t.intern(args[i].Str))
		} else {
			sl.vals[i] = args[i].Val
		}
	}
	if len(t.slots) < cap(t.slots) {
		t.slots = append(t.slots, sl)
	} else {
		t.slots[t.next] = sl
		t.next++
		if t.next == cap(t.slots) {
			t.next = 0
		}
	}
	t.total++
	t.mu.Unlock()
}

// Len returns the number of events currently retained.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.slots)
}

// Total returns the number of events ever recorded, including those the
// ring has since overwritten.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Dropped returns how many events were overwritten by ring wrap-around.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total - uint64(len(t.slots))
}

// Events returns a copy of the retained events in recording order
// (oldest first), with interned ids resolved back to strings.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.slots))
	emit := func(sl slot) {
		ev := Event{
			Name:  t.strs[sl.name],
			Cat:   t.strs[sl.cat],
			Phase: sl.phase,
			TS:    time.Duration(sl.ts),
			Dur:   time.Duration(sl.dur),
			NArgs: sl.nargs,
		}
		for i := 0; i < int(sl.nargs); i++ {
			if sl.strMask&(1<<i) != 0 {
				ev.Args[i] = Arg{Key: t.strs[sl.keys[i]], Str: t.strs[sl.vals[i]], IsStr: true}
			} else {
				ev.Args[i] = Arg{Key: t.strs[sl.keys[i]], Val: sl.vals[i]}
			}
		}
		out = append(out, ev)
	}
	if len(t.slots) == cap(t.slots) {
		for _, sl := range t.slots[t.next:] {
			emit(sl)
		}
		for _, sl := range t.slots[:t.next] {
			emit(sl)
		}
	} else {
		for _, sl := range t.slots {
			emit(sl)
		}
	}
	return out
}

// WriteJSON writes the retained events as Chrome trace-event JSON
// (Object Format). Timestamps and durations are microseconds, per the
// format; sub-microsecond precision is kept as a fraction. The
// otherData section carries the schema name and the drop count.
func (t *Tracer) WriteJSON(w io.Writer) error {
	return t.WriteJSONFilter(w, "")
}

// WriteJSONFilter is WriteJSON restricted to events tagged with the
// given trace ID (a "trace_id" string arg, as the daemon's exec path
// stamps on solve events). An empty traceID keeps every event, making
// WriteJSON the unfiltered special case.
func (t *Tracer) WriteJSONFilter(w io.Writer, traceID string) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ns","otherData":{"schema":` +
		quote(TraceEventSchema) + `,"dropped":` + strconv.FormatUint(t.Dropped(), 10) +
		"},\n\"traceEvents\":[\n"); err != nil {
		return err
	}
	n := 0
	for _, ev := range t.Events() {
		if traceID != "" && !eventHasTrace(ev, traceID) {
			continue
		}
		if n > 0 {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		n++
		if err := writeEvent(bw, ev); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// eventHasTrace reports whether the event carries a trace_id string
// arg equal to traceID.
func eventHasTrace(ev Event, traceID string) bool {
	for i := 0; i < int(ev.NArgs); i++ {
		if ev.Args[i].IsStr && ev.Args[i].Key == "trace_id" && ev.Args[i].Str == traceID {
			return true
		}
	}
	return false
}

// writeEvent renders one event. All events share pid/tid 1: regions are
// self-contained 'X' slices, so no begin/end pairing across tracks is
// needed; slices of concurrent jobs sharing the ring simply interleave
// on the single track.
func writeEvent(bw *bufio.Writer, ev Event) error {
	bw.WriteString(`{"name":`)
	bw.WriteString(quote(ev.Name))
	bw.WriteString(`,"cat":`)
	bw.WriteString(quote(ev.Cat))
	bw.WriteString(`,"ph":"`)
	bw.WriteByte(ev.Phase)
	bw.WriteString(`","pid":1,"tid":1,"ts":`)
	bw.WriteString(micros(ev.TS))
	if ev.Phase == 'X' {
		bw.WriteString(`,"dur":`)
		bw.WriteString(micros(ev.Dur))
	}
	if ev.Phase == 'i' {
		bw.WriteString(`,"s":"t"`)
	}
	if ev.NArgs > 0 {
		bw.WriteString(`,"args":{`)
		for i := 0; i < int(ev.NArgs); i++ {
			if i > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(quote(ev.Args[i].Key))
			bw.WriteByte(':')
			if ev.Args[i].IsStr {
				bw.WriteString(quote(ev.Args[i].Str))
			} else {
				bw.WriteString(strconv.FormatInt(ev.Args[i].Val, 10))
			}
		}
		bw.WriteByte('}')
	}
	_, err := bw.WriteString("}")
	return err
}

// micros renders a duration as decimal microseconds with nanosecond
// precision.
func micros(d time.Duration) string {
	return strconv.FormatFloat(float64(d.Nanoseconds())/1e3, 'f', 3, 64)
}

// quote JSON-escapes a string. Names and keys are code-controlled ASCII
// in practice, but escaping keeps the export valid for any input.
func quote(s string) string {
	b, err := json.Marshal(s)
	if err != nil { // cannot happen for a string
		return `"?"`
	}
	return string(b)
}

// WriteFile dumps the trace to path. Empty path is a no-op, and a nil
// tracer writes a valid empty trace, matching the obs profile helpers
// so commands can call it unconditionally at exit.
func (t *Tracer) WriteFile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("trace: writing %s: %w", path, err)
	}
	return f.Close()
}
