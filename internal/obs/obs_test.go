package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentCountersAndHistograms hammers one counter, one gauge and
// one window histogram, each looked up through the registry, from many
// goroutines; run with -race this doubles as the data-race check for
// the atomic paths.
func TestConcurrentCountersAndHistograms(t *testing.T) {
	reg := New()
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := reg.Counter("c")
			g := reg.Gauge("g")
			h := reg.Window("h", 0, 0)
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.SetMax(int64(w*perWorker + i))
				h.Observe(float64(i % 100))
			}
		}(w)
	}
	wg.Wait()
	if got := reg.Counter("c").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := reg.Gauge("g").Value(); got != workers*perWorker-1 {
		t.Errorf("gauge max = %d, want %d", got, workers*perWorker-1)
	}
	st := reg.Window("h", 0, 0).Stats()
	if st.Count != workers*perWorker {
		t.Errorf("window count = %d, want %d", st.Count, workers*perWorker)
	}
	wantSum := float64(workers) * perWorker / 100 * (99 * 100 / 2)
	if math.Abs(st.Sum-wantSum) > 1e-6 {
		t.Errorf("window sum = %g, want %g", st.Sum, wantSum)
	}
}

// TestSnapshotJSONRoundTrip serializes a populated snapshot and decodes
// it back; the decoded struct must match field for field.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	reg := New()
	reg.Counter("core/prune/divide/calls").Add(7)
	reg.Gauge("core/max_set_size").SetMax(42)
	reg.Window("svc/latency/solve/ok", 0, 0).Observe(7)

	snap := reg.Snapshot()
	if snap.Schema != MetricsSchema {
		t.Fatalf("schema = %q", snap.Schema)
	}
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Errorf("round trip mismatch:\n  out %+v\n  in  %+v", snap, back)
	}
}

func TestTextReport(t *testing.T) {
	reg := New()
	reg.Counter("ard/runs").Inc()
	reg.Gauge("core/max_pwl_segments").SetMax(5)
	reg.Window("svc/latency/solve/ok", 0, 0).Observe(7)
	text := reg.Snapshot().Text()
	for _, want := range []string{"counters:", "ard/runs", "gauges:", "core/max_pwl_segments",
		"quantiles:", "svc/latency/solve/ok"} {
		if !strings.Contains(text, want) {
			t.Errorf("text report missing %q:\n%s", want, text)
		}
	}
}

// TestNilSafety: the nil registry and every nil handle must be inert.
func TestNilSafety(t *testing.T) {
	var reg *Registry
	reg.Counter("x").Add(3)
	reg.Gauge("x").SetMax(3)
	reg.Window("x", 0, 0).Observe(3)
	if got := reg.Counter("x").Value(); got != 0 {
		t.Errorf("nil counter value = %d", got)
	}
	snap := reg.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Quantiles) != 0 {
		t.Errorf("nil snapshot non-empty: %+v", snap)
	}
	if err := reg.WriteMetricsFile(""); err != nil {
		t.Errorf("nil WriteMetricsFile: %v", err)
	}
}

// TestSnapshotDeterministic: two snapshots of the same quiescent
// registry serialize to byte-identical JSON — the property the
// bench baselines and the Prometheus exposition rely on.
func TestSnapshotDeterministic(t *testing.T) {
	reg := New()
	// Deliberately non-lexicographic recording order.
	for _, name := range []string{"run/zeta", "run/alpha", "run/mid", "run/alpha"} {
		reg.Counter(name).Inc()
	}
	reg.Gauge("set_size").SetMax(3)

	var a, b bytes.Buffer
	if err := reg.Snapshot().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := reg.Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("two snapshots of the same registry differ:\n%s\nvs\n%s", a.String(), b.String())
	}
}
