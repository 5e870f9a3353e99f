package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"msrnet/internal/ard"
	"msrnet/internal/core"
	"msrnet/internal/netio"
	"msrnet/internal/obs"
	"msrnet/internal/rctree"
	"msrnet/internal/topo"
)

// singleShot mirrors the one-shot CLI path for a "both" job: the
// ardcalc computation (ard.Compute on the unoptimized net) plus the
// msri computation (core.Optimize, min-ARD choice, EncodeAssignment).
// It is written against the libraries directly — independently of
// Daemon.exec — so the e2e test checks the daemon against the same
// ground truth the CLIs print.
func singleShot(t *testing.T, f netio.NetFile) Result {
	t.Helper()
	tr, tech, err := netio.Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	netKey, err := netio.ContentHash(f)
	if err != nil {
		t.Fatal(err)
	}
	rt := tr.RootAt(tr.Terminals()[0])
	name := func(tr *topo.Tree, id int) string {
		if id < 0 {
			return ""
		}
		return tr.Node(id).Term.Name
	}
	a := ard.Compute(rctree.NewNet(rt, tech, rctree.Assignment{}), ard.Options{})
	out, err := core.Optimize(rt, tech, core.Options{Repeaters: true})
	if err != nil {
		t.Fatal(err)
	}
	chosen, err := out.Suite.MinARD()
	if err != nil {
		t.Fatal(err)
	}
	opt := &OptResult{
		Chosen: SuitePoint{Cost: chosen.Cost, ARD: chosen.ARD, Repeaters: chosen.Repeaters()},
		Assign: netio.EncodeAssignment(chosen.Cost, chosen.ARD, chosen.Assignment()),
		Stats:  out.Stats,
	}
	for _, s := range out.Suite {
		opt.Suite = append(opt.Suite, SuitePoint{Cost: s.Cost, ARD: s.ARD, Repeaters: s.Repeaters()})
	}
	return Result{
		Status: StatusOK,
		NetKey: netKey,
		ARD:    &ARDResult{ARD: a.ARD, CritSrc: name(tr, a.CritSrc), CritSink: name(tr, a.CritSink)},
		Opt:    opt,
	}
}

// marshalResult compares Results as the client sees them: JSON bytes.
func marshalResult(t *testing.T, r Result) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEndToEnd drives msrnetd's serving stack over a real TCP listener:
// a concurrent batch of 8 distinct nets, byte-for-byte agreement with
// the single-shot CLI path, cache hits for repeated nets (visible in
// the /metrics exposition), graceful shutdown, and no goroutine leaks.
func TestEndToEnd(t *testing.T) {
	before := runtime.NumGoroutine()

	reg := obs.New()
	d := New(Config{
		Workers:    4,
		QueueDepth: 32,
		JobTimeout: 2 * time.Minute,
		CacheSize:  64,
		Reg:        reg,
		Logger:     quietLogger(),
	})
	srv, err := Serve("127.0.0.1:0", d, quietLogger())
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr().String()

	const nNets = 8
	nets := make([]netio.NetFile, nNets)
	expected := make([]Result, nNets)
	for i := range nets {
		nets[i] = testNetFile(t, int64(100+i), 6+i%3)
		expected[i] = singleShot(t, nets[i])
		expected[i].ID = fmt.Sprintf("net-%d", i)
	}

	client := &http.Client{Transport: &http.Transport{}}
	post := func(req *Request) (*Response, int, []byte) {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		hr, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer hr.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(hr.Body); err != nil {
			t.Fatal(err)
		}
		if hr.StatusCode != http.StatusOK {
			return nil, hr.StatusCode, buf.Bytes()
		}
		var resp Response
		if err := json.Unmarshal(buf.Bytes(), &resp); err != nil {
			t.Fatalf("response decode: %v: %s", err, buf.Bytes())
		}
		return &resp, hr.StatusCode, buf.Bytes()
	}

	// Phase 1: one batch of all 8 nets, computed concurrently by the
	// worker pool. Results must come back in request order and match the
	// single-shot path byte-for-byte.
	batch := &Request{Version: SchemaVersion}
	for i := range nets {
		batch.Jobs = append(batch.Jobs, Job{ID: fmt.Sprintf("net-%d", i), Mode: "both", Net: nets[i]})
	}
	resp, status, raw := post(batch)
	if status != http.StatusOK {
		t.Fatalf("batch status %d: %s", status, raw)
	}
	if resp.Version != SchemaVersion || len(resp.Results) != nNets {
		t.Fatalf("bad response envelope: version %q, %d results", resp.Version, len(resp.Results))
	}
	for i, r := range resp.Results {
		if r.Cached {
			t.Errorf("net-%d: fresh net reported cached", i)
		}
		got := marshalResult(t, r)
		want := marshalResult(t, expected[i])
		if !bytes.Equal(got, want) {
			t.Errorf("net-%d: daemon result differs from single-shot:\n got %s\nwant %s", i, got, want)
		}
	}

	// Phase 2: re-submit every net concurrently from 8 clients. All are
	// repeats, so every result must be a cache hit and still match.
	var wg sync.WaitGroup
	for i := 0; i < nNets; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, status, raw := post(oneJobRequest(Job{ID: fmt.Sprintf("net-%d", i), Mode: "both", Net: nets[i]}))
			if status != http.StatusOK {
				t.Errorf("repeat net-%d: status %d: %s", i, status, raw)
				return
			}
			r := resp.Results[0]
			if !r.Cached {
				t.Errorf("repeat net-%d: not served from cache", i)
			}
			want := expected[i]
			want.Cached = true
			if got, w := marshalResult(t, r), marshalResult(t, want); !bytes.Equal(got, w) {
				t.Errorf("repeat net-%d: cached result differs:\n got %s\nwant %s", i, got, w)
			}
		}(i)
	}
	wg.Wait()

	// The cache hits must be visible in the Prometheus exposition on the
	// same listener.
	hr, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mbuf bytes.Buffer
	mbuf.ReadFrom(hr.Body)
	hr.Body.Close()
	hits := promCounter(t, mbuf.String(), "msrnet_svc_cache_hits_total")
	if hits < int64(nNets) {
		t.Fatalf("msrnet_svc_cache_hits_total = %d, want ≥ %d\n%s", hits, nNets, mbuf.String())
	}
	if completed := promCounter(t, mbuf.String(), "msrnet_svc_jobs_completed_total"); completed != 2*nNets {
		t.Fatalf("msrnet_svc_jobs_completed_total = %d, want %d", completed, 2*nNets)
	}
	for _, series := range []string{"msrnet_svc_queue_wait_ms_count", "msrnet_svc_job_ms_count"} {
		if !strings.Contains(mbuf.String(), series) {
			t.Errorf("metrics exposition missing %s", series)
		}
	}

	// Phase 3: graceful shutdown, then check for leaked goroutines.
	client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if _, err := client.Post(base+"/v1/jobs", "application/json", strings.NewReader("{}")); err == nil {
		t.Error("listener still accepting after shutdown")
	}

	waitFor(t, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+2
	})
}

// promCounter extracts one un-labelled counter value from a Prometheus
// text exposition.
func promCounter(t *testing.T, text, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseInt(strings.TrimSpace(strings.TrimPrefix(line, name+" ")), 10, 64)
			if err != nil {
				t.Fatalf("parse %s: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("counter %s not found in exposition:\n%s", name, text)
	return 0
}

// TestShutdownDrainsQueuedJobs: jobs admitted before Close complete
// with real results; submissions after Close are refused.
func TestShutdownDrainsQueuedJobs(t *testing.T) {
	reg := obs.New()
	d := New(Config{Workers: 1, QueueDepth: 8, Reg: reg, Logger: quietLogger()})
	started, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	d.execHook = func(ctx context.Context, tk *task) Result {
		once.Do(func() { close(started); <-gate }) // stall only the first job so the rest sit queued
		return Result{ID: tk.label, Status: StatusOK, NetKey: tk.netKey}
	}

	net := testNetFile(t, 42, 6)
	const n = 5
	results := make([]*Response, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, serr := d.Submit(context.Background(), oneJobRequest(Job{ID: fmt.Sprintf("q%d", i), Mode: "ard", Net: net}))
			if serr != nil {
				t.Errorf("q%d rejected: %v", i, serr)
				return
			}
			results[i] = resp
		}(i)
	}
	// Every job is admitted — one on the worker, the rest queued —
	// before Close stops admission.
	<-started
	waitFor(t, func() bool { return queuedTasks(d) == n-1 })

	closed := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		closed <- d.Close(ctx)
	}()
	close(gate) // let the pool drain

	if err := <-closed; err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	for i, r := range results {
		if r == nil || r.Results[0].Status != StatusOK {
			t.Fatalf("queued job q%d did not complete through the drain: %+v", i, r)
		}
	}

	if _, serr := d.Submit(context.Background(), oneJobRequest(Job{ID: "late", Mode: "ard", Net: net})); serr == nil || serr.Code != ErrShuttingDown {
		t.Fatalf("post-close submit: got %v, want %s", serr, ErrShuttingDown)
	}
}
