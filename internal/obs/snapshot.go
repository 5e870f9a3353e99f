package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// MetricsSchema identifies the JSON layout of a Snapshot, so downstream
// tooling (the BENCH_*.json perf-trajectory dumps) can detect format
// drift.
const MetricsSchema = "msrnet-metrics/v1"

// Snapshot is a point-in-time, JSON-serializable copy of a registry.
type Snapshot struct {
	Schema    string                      `json:"schema"`
	Counters  map[string]int64            `json:"counters,omitempty"`
	Gauges    map[string]int64            `json:"gauges,omitempty"`
	Quantiles map[string]QuantileSnapshot `json:"quantiles,omitempty"`
	// Runtime carries the Go runtime's state (goroutines, heap, GC
	// pause and scheduling-latency quantiles) when the registry has
	// EnableRuntime set — daemons only; batch/bench registries stay
	// deterministic.
	Runtime *RuntimeSnapshot `json:"runtime,omitempty"`
}

// QuantileSnapshot is the serialized view of one sliding-window
// histogram: p50/p90/p99 over the live window (milliseconds), plus the
// window span so readers can interpret the counts.
type QuantileSnapshot struct {
	WindowSeconds float64 `json:"window_seconds"`
	Count         int64   `json:"count"`
	Sum           float64 `json:"sum"`
	P50           float64 `json:"p50"`
	P90           float64 `json:"p90"`
	P99           float64 `json:"p99"`
	// ExemplarMs/ExemplarTrace identify the worst traced observation
	// still inside the window (WindowHist.ObserveEx): the trace ID links
	// a dashboard's tail quantile to the distributed trace behind it.
	ExemplarMs    float64 `json:"exemplar_ms,omitempty"`
	ExemplarTrace string  `json:"exemplar_trace_id,omitempty"`
}

// Snapshot copies the registry's current state. Safe to call while other
// goroutines keep recording; each metric is read atomically.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{Schema: MetricsSchema}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		snap.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			snap.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		snap.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			snap.Gauges[name] = g.Value()
		}
	}
	if len(r.windows) > 0 {
		snap.Quantiles = make(map[string]QuantileSnapshot, len(r.windows))
		for name, w := range r.windows {
			st := w.Stats()
			snap.Quantiles[name] = QuantileSnapshot{
				WindowSeconds: w.Window().Seconds(),
				Count:         st.Count,
				Sum:           st.Sum,
				P50:           st.P50,
				P90:           st.P90,
				P99:           st.P99,
				ExemplarMs:    st.ExemplarMs,
				ExemplarTrace: st.ExemplarTrace,
			}
		}
	}
	if r.runtimeOn {
		rt := ReadRuntime()
		snap.Runtime = &rt
	}
	return snap
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Text renders the snapshot as a human-readable report: counters,
// gauges, window quantiles and runtime state, each sorted by name.
func (s Snapshot) Text() string {
	var b strings.Builder
	if len(s.Counters) > 0 {
		b.WriteString("counters:\n")
		for _, name := range sortedKeys(s.Counters) {
			fmt.Fprintf(&b, "  %-44s %d\n", name, s.Counters[name])
		}
	}
	if len(s.Gauges) > 0 {
		b.WriteString("gauges:\n")
		for _, name := range sortedKeys(s.Gauges) {
			fmt.Fprintf(&b, "  %-44s %d\n", name, s.Gauges[name])
		}
	}
	if len(s.Quantiles) > 0 {
		b.WriteString("quantiles:\n")
		names := make([]string, 0, len(s.Quantiles))
		for name := range s.Quantiles {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			q := s.Quantiles[name]
			fmt.Fprintf(&b, "  %-44s n=%d p50=%.3gms p90=%.3gms p99=%.3gms (%.0fs window)\n",
				name, q.Count, q.P50, q.P90, q.P99, q.WindowSeconds)
		}
	}
	if s.Runtime != nil {
		rt := s.Runtime
		b.WriteString("runtime:\n")
		fmt.Fprintf(&b, "  %-44s %d\n", "goroutines", rt.Goroutines)
		fmt.Fprintf(&b, "  %-44s %d\n", "heap_inuse_bytes", rt.HeapInuseBytes)
		fmt.Fprintf(&b, "  %-44s %d\n", "gc_cycles", rt.GCCycles)
		fmt.Fprintf(&b, "  %-44s p50=%.3gms p90=%.3gms p99=%.3gms\n",
			"gc_pause", rt.GCPauseMs.P50, rt.GCPauseMs.P90, rt.GCPauseMs.P99)
		fmt.Fprintf(&b, "  %-44s p50=%.3gms p90=%.3gms p99=%.3gms\n",
			"sched_latency", rt.SchedLatencyMs.P50, rt.SchedLatencyMs.P90, rt.SchedLatencyMs.P99)
	}
	return b.String()
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
