package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"msrnet/internal/buslib"
	"msrnet/internal/core"
	"msrnet/internal/netgen"
	"msrnet/internal/netio"
	"msrnet/internal/obs"
	"msrnet/internal/obs/trace"
)

func quietLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

func testNetFile(t *testing.T, seed int64, pins int) netio.NetFile {
	t.Helper()
	tr, err := netgen.Generate(seed, netgen.Defaults(pins))
	if err != nil {
		t.Fatal(err)
	}
	return netio.Encode("", tr, buslib.Default())
}

func oneJobRequest(job Job) *Request {
	return &Request{Version: SchemaVersion, Jobs: []Job{job}}
}

// newTestDaemon builds a daemon the test must Close.
func newTestDaemon(t *testing.T, cfg Config) *Daemon {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = quietLogger()
	}
	d := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := d.Close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return d
}

// TestQueueFullRejects fills the single worker and the single queue
// slot, then asserts the next submission is rejected whole with the
// queue_full code and HTTP 429, and that the stalled jobs still finish.
func TestQueueFullRejects(t *testing.T) {
	reg := obs.New()
	d := newTestDaemon(t, Config{Workers: 1, QueueDepth: 1, Reg: reg})
	started := make(chan string, 2)
	release := make(chan struct{})
	d.execHook = func(ctx context.Context, tk *task) Result {
		started <- tk.label
		<-release
		return Result{ID: tk.label, Status: StatusOK, NetKey: tk.netKey}
	}

	net := testNetFile(t, 1, 6)
	var wg sync.WaitGroup
	submit := func(id string) {
		defer wg.Done()
		resp, serr := d.Submit(context.Background(), oneJobRequest(Job{ID: id, Mode: "ard", Net: net}))
		if serr != nil {
			t.Errorf("job %s: unexpected rejection: %v", id, serr)
			return
		}
		if resp.Results[0].Status != StatusOK {
			t.Errorf("job %s: status %q", id, resp.Results[0].Status)
		}
	}
	wg.Add(2)
	go submit("busy") // occupies the worker
	<-started
	go submit("queued") // occupies the queue slot
	waitFor(t, func() bool {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.free == 0
	})

	_, serr := d.Submit(context.Background(), oneJobRequest(Job{ID: "rejected", Mode: "ard", Net: net}))
	if serr == nil {
		t.Fatal("expected queue_full rejection")
	}
	if serr.Status != http.StatusTooManyRequests || serr.Code != ErrQueueFull {
		t.Fatalf("got status %d code %q, want 429 %q", serr.Status, serr.Code, ErrQueueFull)
	}
	if got := reg.Counter("svc/jobs_rejected").Value(); got != 1 {
		t.Fatalf("jobs_rejected = %d, want 1", got)
	}

	close(release)
	wg.Wait()
}

// TestBatchAdmissionIsAtomic: a batch larger than the remaining queue
// space is rejected without enqueueing any of its jobs.
func TestBatchAdmissionIsAtomic(t *testing.T) {
	reg := obs.New()
	d := newTestDaemon(t, Config{Workers: 1, QueueDepth: 2, Reg: reg})
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	d.execHook = func(ctx context.Context, tk *task) Result {
		started <- struct{}{}
		<-release
		return Result{ID: tk.label, Status: StatusOK}
	}
	defer close(release)

	net := testNetFile(t, 2, 6)
	go d.Submit(context.Background(), oneJobRequest(Job{ID: "busy", Mode: "ard", Net: net}))
	<-started

	req := &Request{Version: SchemaVersion, Jobs: []Job{
		{ID: "a", Mode: "ard", Net: net, Options: JobOptions{IncludeSelf: true}},
		{ID: "b", Mode: "ard", Net: testNetFile(t, 3, 6)},
		{ID: "c", Mode: "ard", Net: testNetFile(t, 4, 6)},
	}}
	_, serr := d.Submit(context.Background(), req)
	if serr == nil || serr.Code != ErrQueueFull {
		t.Fatalf("want queue_full for 3-job batch into 2 slots, got %v", serr)
	}
	d.mu.Lock()
	free := d.free
	d.mu.Unlock()
	if free != 2 {
		t.Fatalf("rejected batch leaked queue slots: free = %d, want 2", free)
	}
}

// TestJobDeadlineExceeded runs a job that outlives its deadline and
// checks the structured per-job error plus the counter.
func TestJobDeadlineExceeded(t *testing.T) {
	reg := obs.New()
	d := newTestDaemon(t, Config{Workers: 1, JobTimeout: 30 * time.Millisecond, Reg: reg})
	d.execHook = func(ctx context.Context, tk *task) Result {
		<-ctx.Done() // simulate a computation that outlives its deadline
		return Result{ID: tk.label, Status: StatusOK}
	}
	resp, serr := d.Submit(context.Background(),
		oneJobRequest(Job{ID: "slow", Mode: "msri", Net: testNetFile(t, 5, 6)}))
	if serr != nil {
		t.Fatalf("whole-request rejection: %v", serr)
	}
	r := resp.Results[0]
	if r.Status != StatusError || r.Code != ErrDeadlineExceeded {
		t.Fatalf("got status %q code %q, want error %q", r.Status, r.Code, ErrDeadlineExceeded)
	}
	if got := reg.Counter("svc/jobs_deadline_exceeded").Value(); got != 1 {
		t.Fatalf("deadline counter = %d, want 1", got)
	}
	if got := reg.Counter("svc/jobs_failed").Value(); got != 1 {
		t.Fatalf("failed counter = %d, want 1", got)
	}
}

// TestMalformedNetStructured400 exercises the HTTP surface: a net with
// an out-of-range edge must produce a structured 400 naming the job,
// not a 500 or a queued failure.
func TestMalformedNetStructured400(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 1, Reg: obs.New()})
	h := d.Handler()

	bad := testNetFile(t, 6, 6)
	bad.Edges = append(bad.Edges, netio.EdgeJSON{A: 0, B: 10_000, Length: 1})
	body, _ := json.Marshal(oneJobRequest(Job{ID: "mangled", Mode: "ard", Net: bad}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400; body %s", rec.Code, rec.Body)
	}
	var eb ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatalf("error body is not structured JSON: %v: %s", err, rec.Body)
	}
	if eb.Code != ErrBadRequest || !strings.Contains(eb.Error, "mangled") {
		t.Fatalf("error body %+v must carry code %q and the job id", eb, ErrBadRequest)
	}

	for name, raw := range map[string]string{
		"bad version": `{"version":"msrnet-job/v0","jobs":[{"mode":"ard"}]}`,
		"no jobs":     `{"version":"msrnet-job/v1","jobs":[]}`,
		"bad mode":    `{"version":"msrnet-job/v1","jobs":[{"mode":"tea"}]}`,
		"not json":    `{"version":`,
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(raw)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, rec.Code)
		}
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/jobs: status %d, want 405", rec.Code)
	}
}

// TestPanicIsolation: a panicking job yields a structured internal
// error, increments svc/panics_recovered, and leaves the daemon fully
// serviceable for the next job.
func TestPanicIsolation(t *testing.T) {
	reg := obs.New()
	d := newTestDaemon(t, Config{Workers: 1, Reg: reg})
	boom := true
	d.execHook = func(ctx context.Context, tk *task) Result {
		if boom {
			boom = false
			panic("synthetic failure in job body")
		}
		return Result{ID: tk.label, Status: StatusOK, NetKey: tk.netKey}
	}

	net := testNetFile(t, 7, 6)
	resp, serr := d.Submit(context.Background(), oneJobRequest(Job{ID: "explodes", Mode: "msri", Net: net}))
	if serr != nil {
		t.Fatalf("whole-request rejection: %v", serr)
	}
	r := resp.Results[0]
	if r.Status != StatusError || r.Code != ErrInternal || !strings.Contains(r.Error, "synthetic failure") {
		t.Fatalf("panic result %+v, want internal error carrying the panic value", r)
	}
	if got := reg.Counter("svc/panics_recovered").Value(); got != 1 {
		t.Fatalf("panics_recovered = %d, want 1", got)
	}

	resp, serr = d.Submit(context.Background(), oneJobRequest(Job{ID: "after", Mode: "msri", Net: net}))
	if serr != nil || resp.Results[0].Status != StatusOK {
		t.Fatalf("daemon not serviceable after panic: %v %+v", serr, resp)
	}
}

// TestBadWireWidthsAreBadRequest: a wire width that is not finite and
// positive is the submitter's error, answered at once. A negative width
// used to panic the worker (an internal error) and a zero width ran the
// DP until the job deadline.
func TestBadWireWidthsAreBadRequest(t *testing.T) {
	reg := obs.New()
	d := newTestDaemon(t, Config{Workers: 1, JobTimeout: 20 * time.Second, Reg: reg})
	net := testNetFile(t, 7, 6)
	for _, widths := range [][]float64{{-1}, {0}, {1, -2}, {1, 0}} {
		resp, serr := d.Submit(context.Background(), oneJobRequest(Job{
			ID: "widths", Mode: "msri", Net: net, Options: JobOptions{WireWidths: widths},
		}))
		if serr != nil {
			t.Fatalf("widths %v: whole-request rejection: %v", widths, serr)
		}
		if r := resp.Results[0]; r.Status != StatusError || r.Code != ErrBadRequest {
			t.Errorf("widths %v: status %q code %q (%s), want error %q", widths, r.Status, r.Code, r.Error, ErrBadRequest)
		}
	}
	if got := reg.Counter("svc/panics_recovered").Value(); got != 0 {
		t.Errorf("panics_recovered = %d, want 0", got)
	}
}

// TestCacheHitAndEviction checks the LRU: a repeated job is served from
// cache byte-for-byte, and capacity overflow evicts the oldest entry.
func TestCacheHitAndEviction(t *testing.T) {
	reg := obs.New()
	d := newTestDaemon(t, Config{Workers: 2, CacheSize: 1, Reg: reg})

	netA := testNetFile(t, 8, 6)
	netB := testNetFile(t, 9, 6)
	job := func(id string, net netio.NetFile) *Request {
		return oneJobRequest(Job{ID: id, Mode: "both", Net: net})
	}

	respA1, serr := d.Submit(context.Background(), job("a1", netA))
	if serr != nil {
		t.Fatal(serr)
	}
	if respA1.Results[0].Cached {
		t.Fatal("first run must not be cached")
	}
	respA2, serr := d.Submit(context.Background(), job("a2", netA))
	if serr != nil {
		t.Fatal(serr)
	}
	if !respA2.Results[0].Cached {
		t.Fatal("repeat of an identical net must be served from cache")
	}
	// Identical payload up to the per-request ID/Cached stamps.
	want, got := respA1.Results[0], respA2.Results[0]
	want.ID, want.Cached = "", false
	got.ID, got.Cached = "", false
	wb, _ := json.Marshal(want)
	gb, _ := json.Marshal(got)
	if !bytes.Equal(wb, gb) {
		t.Fatalf("cached result differs from computed result:\n%s\nvs\n%s", wb, gb)
	}
	if hits := reg.Counter("svc/cache_hits").Value(); hits != 1 {
		t.Fatalf("cache_hits = %d, want 1", hits)
	}

	if _, serr = d.Submit(context.Background(), job("b1", netB)); serr != nil {
		t.Fatal(serr)
	}
	if ev := reg.Counter("svc/cache_evictions").Value(); ev != 1 {
		t.Fatalf("cache_evictions = %d, want 1 (capacity 1)", ev)
	}
	respA3, serr := d.Submit(context.Background(), job("a3", netA))
	if serr != nil {
		t.Fatal(serr)
	}
	if respA3.Results[0].Cached {
		t.Fatal("evicted entry must be recomputed")
	}
}

// TestCacheKeyDistinguishesOptions: same net, different options — no
// false sharing.
func TestCacheKeyDistinguishesOptions(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 1, CacheSize: 16, Reg: obs.New()})
	net := testNetFile(t, 10, 6)

	resp, serr := d.Submit(context.Background(), oneJobRequest(Job{ID: "r", Mode: "msri", Net: net}))
	if serr != nil {
		t.Fatal(serr)
	}
	if resp.Results[0].Cached {
		t.Fatal("first run cached?")
	}
	resp, serr = d.Submit(context.Background(), oneJobRequest(
		Job{ID: "s", Mode: "msri", Net: net, Options: JobOptions{Optimize: "sizing"}}))
	if serr != nil {
		t.Fatal(serr)
	}
	if resp.Results[0].Cached {
		t.Fatal("different options must not hit the cache")
	}
	// Defaults normalize: "" and explicit "repeaters" collide.
	resp, serr = d.Submit(context.Background(), oneJobRequest(
		Job{ID: "rr", Mode: "msri", Net: net, Options: JobOptions{Optimize: "repeaters"}}))
	if serr != nil {
		t.Fatal(serr)
	}
	if !resp.Results[0].Cached {
		t.Fatal("explicit defaults must share the cache entry with implicit defaults")
	}
}

// TestRetiredOptionsIgnored: the removed "parallel" and "pruner" job
// options stay accepted on the wire as no-ops. A request carrying one
// gets a 200 with the result bytes of the request without it, and the
// two share one cache entry.
func TestRetiredOptionsIgnored(t *testing.T) {
	plain, err := json.Marshal(oneJobRequest(Job{ID: "p", Mode: "both", Net: testNetFile(t, 3, 6)}))
	if err != nil {
		t.Fatal(err)
	}
	post := func(d *Daemon, body []byte) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		d.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d, want 200; body %s", rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	want := post(newTestDaemon(t, Config{Workers: 1, Reg: obs.New(), CacheSize: 8}), plain)
	for _, tc := range []struct {
		name   string
		option any
	}{{"parallel", true}, {"pruner", "naive"}} {
		name, option := tc.name, tc.option
		t.Run(name, func(t *testing.T) {
			var req map[string]any
			if err := json.Unmarshal(plain, &req); err != nil {
				t.Fatal(err)
			}
			req["jobs"].([]any)[0].(map[string]any)["options"] = map[string]any{name: option}
			withOption, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			d := newTestDaemon(t, Config{Workers: 1, Reg: obs.New(), CacheSize: 8})
			if got := post(d, withOption); !bytes.Equal(got, want) {
				t.Fatalf("%q changed the response:\n%s\nvs\n%s", name, got, want)
			}
			var resp Response
			if err := json.Unmarshal(post(d, plain), &resp); err != nil {
				t.Fatal(err)
			}
			if r := resp.Results[0]; r.Status != StatusOK || !r.Cached {
				t.Fatalf("plain request after the %q one: %+v, want an ok cache hit", name, r)
			}
		})
	}
}

// TestOptionsCopiesAreGoroutineSafe verifies the contract the daemon's
// workers rely on: copies of one core.Options value, sharing a registry,
// a ring tracer and a WireWidths slice, can drive concurrent Optimize
// runs and reproduce the serial results exactly. The DP itself is
// serial, so this — run under -race — covers the only concurrency left
// around it and proves the copies introduce no write sharing.
func TestOptionsCopiesAreGoroutineSafe(t *testing.T) {
	reg := obs.New()
	base := core.Options{Repeaters: true, WireWidths: nil, Obs: reg, Trace: trace.New(1 << 10), Pruner: core.PruneDivide}

	type outcome struct {
		cost, ard float64
		stats     core.Stats
	}
	runOne := func(seed int64, opt core.Options) outcome {
		tr, err := netgen.Generate(seed, netgen.Defaults(6))
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Optimize(tr.RootAt(tr.Terminals()[0]), buslib.Default(), opt)
		if err != nil {
			t.Fatal(err)
		}
		best, err := res.Suite.MinARD()
		if err != nil {
			t.Fatal(err)
		}
		return outcome{cost: best.Cost, ard: best.ARD, stats: res.Stats}
	}

	serial := make([]outcome, 8)
	for i := range serial {
		serial[i] = runOne(int64(i+1), base)
	}
	parallel := make([]outcome, 8)
	var wg sync.WaitGroup
	for i := range parallel {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opt := base // the copy each worker makes
			parallel[i] = runOne(int64(i+1), opt)
		}(i)
	}
	wg.Wait()
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Fatalf("net %d: concurrent run diverged: %+v vs %+v", i+1, serial[i], parallel[i])
		}
	}
}

// queuedTasks reports how many admitted tasks wait in the scheduler for
// a worker.
func queuedTasks(d *Daemon) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.queued
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}
