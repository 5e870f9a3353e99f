package service

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"msrnet/internal/jobstore"
	"msrnet/internal/netio"
	"msrnet/internal/obs"
)

// pendingWAL writes one accepted-but-unsolved job into a fresh WAL and
// reopens it, returning the store and the replay a restarted daemon
// would recover from.
func pendingWAL(t *testing.T, label string, net netio.NetFile) (*jobstore.Store, *jobstore.Replay) {
	t.Helper()
	dir := t.TempDir()
	st, _ := openStoreT(t, dir, obs.New())
	job := Job{ID: label, Mode: "ard", Net: net}
	raw, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	netKey, err := netio.ContentHash(net)
	if err != nil {
		t.Fatal(err)
	}
	rec := &jobstore.Record{Type: jobstore.TypeAccepted, Tenant: DefaultTenant, Label: label,
		Key: job.cacheKey(netKey), NetKey: netKey, Job: raw}
	if err := st.Append(context.Background(), rec); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return openStoreT(t, dir, obs.New())
}

// okHook completes every job successfully.
func okHook(ctx context.Context, tk *task) Result {
	return Result{ID: tk.label, Status: StatusOK, NetKey: tk.netKey}
}

// TestRetireEveryOutcomeOnce: every way a job leaves the daemon — a
// worker finish (ok, deadline error, shed, WAL replay), a cache hit, an
// admission rejection — retires its report exactly once into the done
// ring behind /debug/jobs, with its outcome and code, and each outcome
// class's latency windows gain exactly the jobs retired into them;
// cache hits add none. Close is the barrier: it returns once the worker
// pool is idle, so by then every job has retired — including the
// replayed one, whose /v1/recovered entry the worker completes itself.
func TestRetireEveryOutcomeOnce(t *testing.T) {
	type retired struct {
		outcome, code    string
		cached, replayed bool
	}
	net, other := testNetFile(t, 71, 6), testNetFile(t, 72, 6)
	submit := func(d *Daemon, ctx context.Context, label string, net netio.NetFile) *SubmitError {
		_, serr := d.Submit(ctx, oneJobRequest(Job{ID: label, Mode: "ard", Net: net}))
		return serr
	}
	store, rep := pendingWAL(t, "replayed", net)

	cases := []struct {
		name string
		cfg  Config
		run  func(t *testing.T, d *Daemon)
		want map[string]retired // by label
	}{{
		name: "ok",
		cfg:  Config{Workers: 1},
		run: func(t *testing.T, d *Daemon) {
			d.execHook = okHook
			if serr := submit(d, context.Background(), "fresh", net); serr != nil {
				t.Fatal(serr)
			}
		},
		want: map[string]retired{"fresh": {outcome: OutcomeOK}},
	}, {
		name: "cache hit",
		cfg:  Config{Workers: 1, CacheSize: 8},
		run: func(t *testing.T, d *Daemon) {
			d.execHook = okHook
			for _, label := range []string{"fresh", "hit"} {
				if serr := submit(d, context.Background(), label, net); serr != nil {
					t.Fatal(serr)
				}
			}
		},
		want: map[string]retired{"fresh": {outcome: OutcomeOK}, "hit": {outcome: OutcomeOK, cached: true}},
	}, {
		name: "rejected",
		cfg:  Config{Workers: 1, QueueDepth: 1},
		run: func(t *testing.T, d *Daemon) {
			started, release := make(chan struct{}), make(chan struct{})
			var once sync.Once
			d.execHook = func(ctx context.Context, tk *task) Result {
				once.Do(func() { close(started); <-release })
				return okHook(ctx, tk)
			}
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { defer wg.Done(); submit(d, context.Background(), "busy", net) }()
			<-started
			go func() { defer wg.Done(); submit(d, context.Background(), "queued", other) }()
			waitFor(t, func() bool { return queuedTasks(d) == 1 })
			if serr := submit(d, context.Background(), "victim", net); serr == nil || serr.Code != ErrQueueFull {
				t.Errorf("victim: got %v, want %s", serr, ErrQueueFull)
			}
			close(release)
			wg.Wait()
		},
		want: map[string]retired{"busy": {outcome: OutcomeOK}, "queued": {outcome: OutcomeOK},
			"victim": {outcome: OutcomeRejected, code: ErrQueueFull}},
	}, {
		name: "deadline error",
		cfg:  Config{Workers: 1, JobTimeout: 20 * time.Millisecond, DegradeHeadroom: -1},
		run: func(t *testing.T, d *Daemon) {
			d.execHook = func(ctx context.Context, tk *task) Result {
				<-ctx.Done()
				return d.failResult(tk, ErrDeadlineExceeded, ctx.Err().Error())
			}
			submit(d, context.Background(), "slow", net)
		},
		want: map[string]retired{"slow": {outcome: OutcomeError, code: ErrDeadlineExceeded}},
	}, {
		name: "shed",
		cfg:  Config{Workers: 1, JobTimeout: 10 * time.Second, ShedMargin: time.Second},
		run: func(t *testing.T, d *Daemon) {
			started, release := make(chan struct{}), make(chan struct{})
			var once sync.Once
			d.execHook = func(ctx context.Context, tk *task) Result {
				once.Do(func() { close(started); <-release })
				return okHook(ctx, tk)
			}
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { defer wg.Done(); submit(d, context.Background(), "first", net) }()
			<-started
			ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
			defer cancel()
			go func() { defer wg.Done(); submit(d, ctx, "late", other) }()
			waitFor(t, func() bool { return queuedTasks(d) == 1 })
			close(release)
			wg.Wait()
		},
		want: map[string]retired{"first": {outcome: OutcomeOK}, "late": {outcome: OutcomeShed, code: ErrShedLoad}},
	}, {
		name: "replayed",
		cfg:  Config{Workers: 1, Store: store},
		run: func(t *testing.T, d *Daemon) {
			d.execHook = okHook
			if requeued, _ := d.Recover(rep); requeued != 1 {
				t.Fatalf("requeued %d jobs, want 1", requeued)
			}
		},
		want: map[string]retired{"replayed": {outcome: OutcomeOK, replayed: true}},
	}}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.New()
			cfg := tc.cfg
			cfg.Reg = reg
			d := newTestDaemon(t, cfg)
			tc.run(t, d)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := d.Close(ctx); err != nil {
				t.Fatal(err)
			}

			rec := httptest.NewRecorder()
			d.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/jobs", nil))
			var list jobListBody
			if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
				t.Fatal(err)
			}
			if len(list.Active) != 0 {
				t.Errorf("%d jobs still live after drain: %+v", len(list.Active), list.Active)
			}
			seen := map[string]int{}
			for _, e := range list.Recent {
				seen[e.Label]++
				w, ok := tc.want[e.Label]
				got := retired{outcome: e.Outcome, code: e.Code, cached: e.Cached, replayed: e.Replayed}
				if !ok || got != w || e.State != JobDone {
					t.Errorf("%s retired as %+v (state %s), want %+v", e.Label, got, e.State, w)
				}
			}
			wantWindows := map[string]int64{}
			for label, w := range tc.want {
				if seen[label] != 1 {
					t.Errorf("%s appears %d times in the done ring, want once", label, seen[label])
				}
				if !w.cached {
					wantWindows[w.outcome]++
				}
			}

			snap := reg.Snapshot()
			for _, class := range outcomeClasses {
				for _, part := range []string{"queue", "solve", "e2e"} {
					name := "svc/latency/" + part + "/" + class
					if got := snap.Quantiles[name].Count; got != wantWindows[class] {
						t.Errorf("%s counted %d jobs, want %d", name, got, wantWindows[class])
					}
				}
			}

			if cfg.Store != nil {
				rec := httptest.NewRecorder()
				d.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/recovered?keep=1", nil))
				var body recoveredBody
				if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
					t.Fatal(err)
				}
				if len(body.Recovered) != 1 || body.Recovered[0].State != "done" ||
					body.Recovered[0].Result == nil || body.Recovered[0].Result.Status != StatusOK {
					t.Errorf("recovered entries once the pool is idle: %+v", body.Recovered)
				}
			}
		})
	}
}
