package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"msrnet/internal/ard"
	"msrnet/internal/netio"
	"msrnet/internal/pwl"
	"msrnet/internal/rctree"
)

// spanLog records the benchmark's own spans — one around each call it
// makes into a layer — in memory; they are written out when the run
// ends. A nil *spanLog records nothing.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Job     string `json:"job"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the run's first span
	EndNs   int64  `json:"end_ns"`
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records one finished span and returns its ID.
func (l *spanLog) add(parent int64, job, name string, start, end time.Time) int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := int64(len(l.spans) + 1)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Job: job, Name: name,
		StartNs: int64(start.Sub(l.t0)), EndNs: int64(end.Sub(l.t0))})
	return id
}

func (l *spanLog) write(path string) error {
	b, err := json.Marshal(struct {
		Schema string `json:"schema"`
		Spans  []span `json:"spans"`
	}{"msrnet-perfbench-spans/v1", l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// probes is the traced run's shared state: the span log and which
// serving families the workload's own traced lists already measured.
type probes struct {
	spans  *spanLog
	served map[string]bool
}

// probeSeconds sizes the serving probes of families the workload does
// not load: long enough for a p90 over the traced list.
const probeSeconds = 4

// tracedRun re-runs the workload's list traced, then probes every layer
// the workload's own lists did not reach, so every traced run reports
// the full per-layer set.
func (r *run) tracedRun(wl workload) error {
	p := &probes{spans: newSpanLog(), served: map[string]bool{}}
	untraced, traced, err := wl.traced(r, p)
	if err != nil {
		return err
	}
	r.logf("  tracing overhead: untraced %.3f jobs/s, traced %.3f jobs/s", untraced, traced)
	r.set("trace_overhead_pct", "%", 100*(untraced/traced-1))
	// solve-table4's traced pass already ran the DP probe.
	if _, ok := r.metrics["core.solve_ms_p50"]; !ok {
		if _, err := r.dpProbe(p, nil); err != nil {
			return err
		}
	}
	for _, f := range []family{optFamily, ardFamily} {
		if !p.served[f.name] {
			if _, _, err := r.servingProbe(p, f, probeSeconds); err != nil {
				return err
			}
		}
	}
	r.pwlProbe(p.spans)
	if err := r.netioProbe(p.spans); err != nil {
		return err
	}
	path := filepath.Join(filepath.Dir(r.dir), "spans-"+r.workload+".json")
	if err := p.spans.write(path); err != nil {
		return err
	}
	r.logf("  %d benchmark spans written to %s", len(p.spans.spans), path)
	return nil
}

// Package-level sinks keep the compiler from discarding probed calls.
var (
	sinkFunc pwl.Func
	sinkSet  pwl.IntervalSet
)

// fiveSegs builds a continuous 5-segment function with the given
// breakpoints and slopes; max_pwl_segs is at most 5 across the bench.
func fiveSegs(y0 float64, xs [4]float64, slopes [5]float64) pwl.Func {
	segs := make([]pwl.Seg, 5)
	x0, y := 0.0, y0
	for i := range segs {
		x1 := math.Inf(1)
		if i < 4 {
			x1 = xs[i]
		}
		segs[i] = pwl.Seg{X0: x0, X1: x1, Y0: y, M: slopes[i]}
		if i < 4 {
			y += slopes[i] * (x1 - x0)
		}
		x0 = x1
	}
	return pwl.FromSegments(segs)
}

// pwlProbe times the four PWL primitives the DP's inner loop calls on
// fixed 5-segment inputs and counts their allocations.
func (r *run) pwlProbe(log *spanLog) {
	f := fiveSegs(1.0, [4]float64{0.1, 0.2, 0.4, 0.8}, [5]float64{5, 4, 3, 2, 1})
	g := fiveSegs(0.9, [4]float64{0.15, 0.3, 0.5, 1.0}, [5]float64{6, 3.5, 2.5, 1.8, 0.5})
	ops := []struct {
		name string
		fn   func()
	}{
		{"pwl.max_ns", func() { sinkFunc = f.Max(g) }},
		{"pwl.shift_ns", func() { sinkFunc = f.Shift(0.07) }},
		{"pwl.add_linear_ns", func() { sinkFunc = f.AddLinear(0.3, 1.5) }},
		{"pwl.leq_regions_ns", func() { sinkSet = f.LeqRegions(g, pwl.Eps) }},
	}
	const batch, batches = 20000, 7
	var allocs float64
	for _, op := range ops {
		var per []float64
		var m0, m1 runtime.MemStats
		for range batches {
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			for range batch {
				op.fn()
			}
			t1 := time.Now()
			runtime.ReadMemStats(&m1)
			log.add(0, op.name, op.name+" ×20000", t0, t1)
			per = append(per, float64(t1.Sub(t0).Nanoseconds())/batch)
			allocs += float64(m1.Mallocs-m0.Mallocs) / batch / batches
		}
		r.set(op.name, "ns", median(per))
	}
	r.set("pwl.allocs_per_op", "count", allocs/float64(len(ops)))
}

// netioProbe times netio.ContentHash, netio.Decode and ard.Compute on
// the serve-ard nets, the per-job work msrnetd does around an ARD job.
func (r *run) netioProbe(log *spanLog) error {
	nets, err := genNets(ardPins, r.corpusSeed, ardNets)
	if err != nil {
		return err
	}
	const rounds = 5
	var hashUs, decUs, ardUs []float64
	for range rounds {
		var h, d, a time.Duration
		for _, b := range nets {
			t0 := time.Now()
			if _, err := netio.ContentHash(b.file); err != nil {
				return err
			}
			t1 := time.Now()
			tr, tech, err := netio.Decode(b.file)
			if err != nil {
				return err
			}
			t2 := time.Now()
			net := rctree.NewNet(tr.RootAt(tr.Terminals()[0]), tech, rctree.Assignment{})
			t3 := time.Now()
			ard.Compute(net, ard.Options{})
			t4 := time.Now()
			log.add(0, b.key, "netio.ContentHash", t0, t1)
			log.add(0, b.key, "netio.Decode", t1, t2)
			log.add(0, b.key, "ard.Compute", t3, t4)
			h, d, a = h+t1.Sub(t0), d+t2.Sub(t1), a+t4.Sub(t3)
		}
		n := float64(len(nets)) * 1e3
		hashUs = append(hashUs, float64(h)/n)
		decUs = append(decUs, float64(d)/n)
		ardUs = append(ardUs, float64(a)/n)
	}
	r.set("netio.hash_us_per_net", "us", median(hashUs))
	r.set("netio.decode_us_per_net", "us", median(decUs))
	r.set("ard.compute_us_per_net", "us", median(ardUs))
	return nil
}
