package service

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"msrnet/internal/core"
	"msrnet/internal/netio"
	"msrnet/internal/obs"
)

// exactBestARD computes the exact minimum ARD of a net file — the
// ground truth degraded results are bounded against.
func exactBestARD(t *testing.T, f netio.NetFile) (float64, error) {
	t.Helper()
	tr, tech, err := netio.Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	out, err := core.Optimize(tr.RootAt(tr.Terminals()[0]), tech, core.Options{Repeaters: true})
	if err != nil {
		return 0, err
	}
	best, err := out.Suite.MinARD()
	if err != nil {
		return 0, err
	}
	return best.ARD, nil
}

// TestDegradeQueuePressure: with the whole deadline reserved as
// headroom, every msri job skips the exact attempt and degrades
// immediately. The degraded result must be flagged, within the
// documented ε·PruneCalls bound of exact, and never cached.
func TestDegradeQueuePressure(t *testing.T) {
	const eps = 0.05
	reg := obs.New()
	d := newTestDaemon(t, Config{
		Workers: 1, QueueDepth: 8, CacheSize: 8,
		JobTimeout:      10 * time.Second,
		DegradeHeadroom: 10 * time.Second, // remaining < headroom at the worker, always
		CoarseEps:       eps,
		Reg:             reg,
	})
	net := testNetFile(t, 900, 8)
	exact, err := exactBestARD(t, net)
	if err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 2; round++ {
		resp, serr := d.Submit(context.Background(), oneJobRequest(Job{ID: "p", Mode: "msri", Net: net}))
		if serr != nil {
			t.Fatal(serr)
		}
		r := resp.Results[0]
		if r.Status != StatusOK {
			t.Fatalf("round %d: %+v", round, r)
		}
		if !r.Degraded || r.DegradedReason != "queue_pressure" {
			t.Fatalf("round %d: degraded=%t reason=%q, want queue_pressure", round, r.Degraded, r.DegradedReason)
		}
		// Degraded results are never cached: round 2 must recompute.
		if r.Cached {
			t.Fatalf("round %d: degraded result served from cache", round)
		}
		// Never silently truncated: the full result shape is present.
		if r.Opt == nil || len(r.Opt.Suite) == 0 || len(r.Opt.Assign.Repeaters) == 0 && r.Opt.Chosen.Repeaters > 0 {
			t.Fatalf("round %d: degraded result truncated: %+v", round, r.Opt)
		}
		if r.Opt.CoarseEps != eps {
			t.Fatalf("round %d: CoarseEps = %g, want %g", round, r.Opt.CoarseEps, eps)
		}
		// Accuracy bound: within ε per prune call of the exact optimum,
		// and never better than it.
		bound := exact + eps*float64(r.Opt.Stats.PruneCalls) + 1e-9
		if r.Opt.Chosen.ARD > bound {
			t.Fatalf("round %d: degraded ARD %.9g exceeds bound %.9g (exact %.9g, %d prunes)",
				round, r.Opt.Chosen.ARD, bound, exact, r.Opt.Stats.PruneCalls)
		}
		if r.Opt.Chosen.ARD < exact-1e-9 {
			t.Fatalf("round %d: degraded ARD %.9g beats exact %.9g", round, r.Opt.Chosen.ARD, exact)
		}
	}
	if got := reg.Counter("svc/jobs_degraded").Value(); got != 2 {
		t.Fatalf("svc/jobs_degraded = %d, want 2", got)
	}
	if got := reg.Counter("svc/cache_inserts").Value(); got != 0 {
		t.Fatalf("svc/cache_inserts = %d, want 0 (degraded results must not be cached)", got)
	}
}

// TestDegradeSoftDeadline: a net whose exact optimization far exceeds
// the soft deadline (deadline − headroom ≈ 50ms, exact ≈ hundreds of
// ms) falls back to the coarse retry within the reserved headroom.
func TestDegradeSoftDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping multi-hundred-ms optimization")
	}
	reg := obs.New()
	d := newTestDaemon(t, Config{
		Workers: 1, QueueDepth: 8,
		JobTimeout:      10 * time.Second,
		DegradeHeadroom: 10*time.Second - 100*time.Millisecond,
		CoarseEps:       0.1,
		Reg:             reg,
	})
	// This net's exact optimization runs ~30× longer than the 100ms soft
	// window, so the exact attempt reliably expires there (a slower
	// machine only makes it more reliable), while its coarse run at
	// ε=0.1 finishes in a few ms.
	net := testNetFile(t, 902, 24)
	resp, serr := d.Submit(context.Background(), oneJobRequest(Job{ID: "s", Mode: "msri", Net: net}))
	if serr != nil {
		t.Fatal(serr)
	}
	r := resp.Results[0]
	if r.Status != StatusOK {
		t.Fatalf("%+v", r)
	}
	if !r.Degraded || r.DegradedReason != "soft_deadline" {
		t.Fatalf("degraded=%t reason=%q, want soft_deadline", r.Degraded, r.DegradedReason)
	}
	if r.Opt == nil || len(r.Opt.Suite) == 0 {
		t.Fatalf("degraded result truncated: %+v", r.Opt)
	}
}

// TestDegradeDisabled: negative headroom turns the policy off — a job
// whose exact optimization cannot fit the deadline fails with a typed,
// retryable deadline_exceeded instead of a truncated or degraded
// result.
func TestDegradeDisabled(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping deadline-overrun optimization")
	}
	d := newTestDaemon(t, Config{
		Workers: 1, QueueDepth: 8,
		JobTimeout:      200 * time.Millisecond,
		DegradeHeadroom: -1,
	})
	net := testNetFile(t, 902, 24) // exact runs seconds, ≫ the 200ms deadline
	resp, serr := d.Submit(context.Background(), oneJobRequest(Job{ID: "d", Mode: "msri", Net: net}))
	if serr != nil {
		t.Fatal(serr)
	}
	r := resp.Results[0]
	if r.Status != StatusError || r.Code != ErrDeadlineExceeded {
		t.Fatalf("got %+v, want deadline_exceeded", r)
	}
	if !r.Retryable {
		t.Fatal("deadline_exceeded must be retryable")
	}
	if r.Degraded || r.Opt != nil {
		t.Fatalf("disabled degradation produced output: %+v", r)
	}
}

// TestShedLoad: a job that spent its deadline budget queued behind a
// stalled worker is shed at dequeue with a retryable shed_load instead
// of burning the worker on a doomed attempt. Both sides of the shed
// decision carry wide slack: j0 reaches the worker with ~10 s left
// against a 1 s margin, and j1, bounded by its caller's 500 ms
// deadline, is dequeued as soon as it is queued — far under the margin,
// still well short of expiry.
func TestShedLoad(t *testing.T) {
	reg := obs.New()
	d := newTestDaemon(t, Config{
		Workers: 1, QueueDepth: 8,
		JobTimeout: 10 * time.Second,
		ShedMargin: time.Second,
		Reg:        reg,
	})
	started, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	d.execHook = func(ctx context.Context, tk *task) Result {
		once.Do(func() { close(started); <-gate }) // stall j0 until j1 is queued
		return Result{ID: tk.label, Status: StatusOK, NetKey: tk.netKey}
	}

	net := testNetFile(t, 902, 6)
	var wg sync.WaitGroup
	results := make([]Result, 2)
	submit := func(ctx context.Context, i int) {
		defer wg.Done()
		resp, serr := d.Submit(ctx, oneJobRequest(Job{ID: fmt.Sprintf("j%d", i), Mode: "ard", Net: net}))
		if serr != nil {
			t.Errorf("j%d: %v", i, serr)
			return
		}
		results[i] = resp.Results[0]
	}
	wg.Add(2)
	go submit(context.Background(), 0)
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	go submit(ctx, 1)
	waitFor(t, func() bool { return queuedTasks(d) == 1 })
	close(gate)
	wg.Wait()

	if results[0].Status != StatusOK {
		t.Errorf("j0 = %+v, want ok", results[0])
	}
	if r := results[1]; r.Code != ErrShedLoad || !r.Retryable {
		t.Fatalf("j1 = %+v, want a retryable %s", r, ErrShedLoad)
	}
	if got := reg.Counter("svc/jobs_shed").Value(); got != 1 {
		t.Fatalf("svc/jobs_shed = %d, want 1", got)
	}
}
