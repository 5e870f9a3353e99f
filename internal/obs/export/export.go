// Package export publishes obs registries to the outside world: the
// Prometheus text exposition format (for /metrics scrapes), expvar
// publication (for /debug/vars), and an HTTP server that mounts both
// next to net/http/pprof and a health check, so a long Table I–IV run
// can be watched live instead of waiting for the exit snapshot.
//
// The exported values are exactly the msrnet-metrics/v1 Snapshot: every
// counter, gauge, histogram and window of the registry appears under a
// deterministic Prometheus name (see PromName), so a scrape taken at
// exit matches the final JSON snapshot field for field.
package export

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"msrnet/internal/obs"
)

// namePrefix is prepended to every exported metric, namespacing the
// pipeline's series in a shared Prometheus.
const namePrefix = "msrnet_"

// PromName converts a '/'-separated registry metric name into a valid
// Prometheus metric name: the msrnet_ namespace plus the name with
// every character outside [a-zA-Z0-9_] mapped to '_'. The mapping is
// stable and injective for the names the pipeline uses (which never
// contain '_'-adjacent separators), so dashboards can rely on it.
func PromName(name string) string {
	var b strings.Builder
	b.Grow(len(namePrefix) + len(name))
	b.WriteString(namePrefix)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_',
			c >= '0' && c <= '9': // the msrnet_ prefix keeps a digit off position 0
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus renders a snapshot in the Prometheus text exposition
// format (version 0.0.4): counters as <name>_total, gauges as-is,
// histograms with cumulative le-labelled buckets plus _sum and _count,
// and windows as summaries. Output is sorted by name, so successive
// scrapes of an idle registry are byte-identical.
func WritePrometheus(w io.Writer, s obs.Snapshot) error {
	for _, name := range sortedKeys(s.Counters) {
		pn := PromName(name) + "_total"
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, pn, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		pn := PromName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", pn, pn, s.Gauges[name]); err != nil {
			return err
		}
	}
	hnames := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		if err := writeHistogram(w, name, s.Histograms[name]); err != nil {
			return err
		}
	}
	qnames := make([]string, 0, len(s.Quantiles))
	for name := range s.Quantiles {
		qnames = append(qnames, name)
	}
	sort.Strings(qnames)
	for _, name := range qnames {
		if err := writeQuantiles(w, name, s.Quantiles[name]); err != nil {
			return err
		}
	}
	return writeRuntime(w, s.Runtime)
}

// writeRuntime renders the Go runtime section (present only on
// registries with EnableRuntime): scalar gauges plus the GC-pause and
// scheduling-latency quantile triples as summaries.
func writeRuntime(w io.Writer, rt *obs.RuntimeSnapshot) error {
	if rt == nil {
		return nil
	}
	for _, g := range []struct {
		name string
		v    int64
	}{
		{"runtime_gc_cycles", rt.GCCycles},
		{"runtime_goroutines", rt.Goroutines},
		{"runtime_heap_inuse_bytes", rt.HeapInuseBytes},
		{"runtime_total_bytes", rt.TotalBytes},
	} {
		pn := namePrefix + g.name
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", pn, pn, g.v); err != nil {
			return err
		}
	}
	for _, q := range []struct {
		name string
		v    obs.RuntimeQuantiles
	}{
		{"runtime_gc_pause_ms", rt.GCPauseMs},
		{"runtime_sched_latency_ms", rt.SchedLatencyMs},
	} {
		pn := namePrefix + q.name
		if _, err := fmt.Fprintf(w, "# TYPE %s summary\n%s{quantile=\"0.5\"} %s\n%s{quantile=\"0.9\"} %s\n%s{quantile=\"0.99\"} %s\n",
			pn, pn, formatFloat(q.v.P50), pn, formatFloat(q.v.P90), pn, formatFloat(q.v.P99)); err != nil {
			return err
		}
	}
	return nil
}

// writeQuantiles renders one sliding-window histogram as a Prometheus
// summary: pre-computed φ-quantiles plus _sum and _count. Unlike the
// cumulative series, the quantiles cover only the trailing window —
// which is exactly what an SLO dashboard wants to alert on.
func writeQuantiles(w io.Writer, name string, q obs.QuantileSnapshot) error {
	pn := PromName(name)
	if _, err := fmt.Fprintf(w, "# TYPE %s summary\n", pn); err != nil {
		return err
	}
	for _, p := range []struct {
		phi string
		v   float64
	}{{"0.5", q.P50}, {"0.9", q.P90}, {"0.99", q.P99}} {
		if _, err := fmt.Fprintf(w, "%s{quantile=%q} %s\n", pn, p.phi, formatFloat(p.v)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", pn, formatFloat(q.Sum), pn, q.Count); err != nil {
		return err
	}
	// Exemplar: the worst traced observation in the window, labelled
	// with its trace ID so a dashboard can jump from a tail quantile to
	// `msrnetctl -trace <id>`. Emitted as a plain gauge series (the
	// text exposition v0.0.4 has no native exemplar syntax).
	if q.ExemplarTrace != "" {
		if _, err := fmt.Fprintf(w, "# TYPE %s_exemplar gauge\n%s_exemplar{trace_id=%q} %s\n",
			pn, pn, q.ExemplarTrace, formatFloat(q.ExemplarMs)); err != nil {
			return err
		}
	}
	return nil
}

func writeHistogram(w io.Writer, name string, h obs.HistSnapshot) error {
	pn := PromName(name)
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", pn); err != nil {
		return err
	}
	cum := int64(0)
	for i, bound := range h.Bounds {
		cum += h.Counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", pn, formatBound(bound), cum); err != nil {
			return err
		}
	}
	// The overflow bucket makes the +Inf cumulative count equal Count.
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", pn, h.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", pn, formatFloat(h.Sum), pn, h.Count); err != nil {
		return err
	}
	return nil
}

// formatBound renders a bucket bound the way Prometheus clients
// conventionally do (shortest decimal that round-trips).
func formatBound(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

var expvarMu sync.Mutex

// PublishExpvar publishes the registry's live snapshot under the given
// expvar name, so it appears (JSON-encoded, schema msrnet-metrics/v1)
// in /debug/vars next to the runtime's memstats. The expvar registry is
// process-global and forbids re-publication, so publishing an
// already-taken name replaces nothing and returns false; this makes the
// call safe from tests and repeated Serve invocations.
func PublishExpvar(name string, r *obs.Registry) bool {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if expvar.Get(name) != nil {
		return false
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
	return true
}
