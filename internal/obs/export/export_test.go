package export

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"msrnet/internal/obs"
)

func populated() *obs.Registry {
	reg := obs.New()
	reg.Counter("core/solutions_created").Add(120)
	reg.Counter("core/prune/divide/calls").Add(7)
	reg.Gauge("core/max_set_size").SetMax(42)
	reg.Window("svc/latency/solve/ok", 0, 0).Observe(7)
	return reg
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"core/solutions_created":   "msrnet_core_solutions_created",
		"core/prune/divide/calls":  "msrnet_core_prune_divide_calls",
		"ard/runs":                 "msrnet_ard_runs",
		"weird name-with.symbols!": "msrnet_weird_name_with_symbols_",
	}
	for in, want := range cases {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestWritePrometheusFormat checks the exposition rules that scrapers
// depend on: typed families, _total counter suffix, and window
// summaries.
func TestWritePrometheusFormat(t *testing.T) {
	snap := populated().Snapshot()
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, snap); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE msrnet_core_solutions_created_total counter",
		"msrnet_core_solutions_created_total 120",
		"msrnet_core_prune_divide_calls_total 7",
		"# TYPE msrnet_core_max_set_size gauge",
		"msrnet_core_max_set_size 42",
		"# TYPE msrnet_svc_latency_solve_ok summary",
		`msrnet_svc_latency_solve_ok{quantile="0.5"}`,
		"msrnet_svc_latency_solve_ok_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Deterministic: a second render of the same snapshot is identical.
	var buf2 bytes.Buffer
	if err := WritePrometheus(&buf2, snap); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("two renders of equal snapshots differ")
	}
}

// TestPrometheusMatchesSnapshot is the acceptance check: every counter,
// gauge and window of the final JSON snapshot appears in the scrape
// with the same value.
func TestPrometheusMatchesSnapshot(t *testing.T) {
	reg := populated()
	snap := reg.Snapshot()
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, snap); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for name, v := range snap.Counters {
		want := fmt.Sprintf("%s_total %d\n", PromName(name), v)
		if !strings.Contains(out, want) {
			t.Errorf("counter %s: scrape missing %q", name, want)
		}
	}
	for name, v := range snap.Gauges {
		want := fmt.Sprintf("%s %d\n", PromName(name), v)
		if !strings.Contains(out, want) {
			t.Errorf("gauge %s: scrape missing %q", name, want)
		}
	}
	for name, q := range snap.Quantiles {
		want := fmt.Sprintf("%s_count %d\n", PromName(name), q.Count)
		if !strings.Contains(out, want) {
			t.Errorf("window %s: scrape missing %q", name, want)
		}
	}
}

// TestServeEndpoints boots the real server on a loopback port and hits
// every mounted endpoint.
func TestServeEndpoints(t *testing.T) {
	reg := populated()
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	srv, err := Serve("127.0.0.1:0", reg, logger)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr().String()

	get := func(path string) (int, string, http.Header) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body), resp.Header
	}

	if code, body, _ := get("/healthz"); code != 200 || body != "ok\n" {
		t.Errorf("/healthz = %d %q", code, body)
	}

	code, body, hdr := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content type = %q", ct)
	}
	if !strings.Contains(body, "msrnet_core_solutions_created_total 120") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}

	// A scrape must see live updates, not a boot-time copy.
	reg.Counter("core/solutions_created").Add(5)
	if _, body, _ := get("/metrics"); !strings.Contains(body, "msrnet_core_solutions_created_total 125") {
		t.Error("/metrics did not reflect a live counter update")
	}

	code, body, _ = get("/debug/vars")
	if code != 200 {
		t.Fatalf("/debug/vars = %d", code)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	raw, ok := vars["msrnet"]
	if !ok {
		t.Fatal("/debug/vars missing msrnet var")
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("msrnet expvar not a snapshot: %v", err)
	}
	if snap.Schema != obs.MetricsSchema {
		t.Errorf("expvar snapshot schema = %q", snap.Schema)
	}

	if code, body, _ := get("/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Errorf("/debug/pprof/cmdline = %d (%d bytes)", code, len(body))
	}
}

// idemRuns numbers TestPublishExpvarIdempotent's runs: expvar names are
// process-global, so each repeat under -count needs a fresh name.
var idemRuns atomic.Int64

// TestPublishExpvarIdempotent: re-publishing the same name must refuse
// rather than panic (expvar's registry is process-global).
func TestPublishExpvarIdempotent(t *testing.T) {
	reg := obs.New()
	name := fmt.Sprintf("msrnet-test-idem-%d", idemRuns.Add(1))
	first := PublishExpvar(name, reg)
	second := PublishExpvar(name, reg)
	if !first || second {
		t.Errorf("publish results = %v, %v; want true, false", first, second)
	}
}

// TestPrometheusExemplar: a traced window observation surfaces as a
// <name>_exemplar{trace_id=...} gauge next to the summary, and windows
// without a traced observation emit no exemplar series.
func TestPrometheusExemplar(t *testing.T) {
	reg := obs.New()
	reg.Window("svc/latency/e2e/ok", 0, 0).ObserveEx(42.5, "deadbeef")
	reg.Window("svc/latency/queue/ok", 0, 0).Observe(7)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	want := `msrnet_svc_latency_e2e_ok_exemplar{trace_id="deadbeef"} 42.5`
	if !strings.Contains(out, want) {
		t.Errorf("missing exemplar series %q in:\n%s", want, out)
	}
	if strings.Contains(out, "queue_ok_exemplar") {
		t.Errorf("untraced window grew an exemplar series:\n%s", out)
	}
}
