package service

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"msrnet/internal/obs"
)

// TestWorkerWaitsForLateBody: a job body that ignores its context and
// runs past the deadline still holds its worker. With one worker, the
// next job starts only after the late body has returned, so a missed
// deadline never leaves a second computation running beside the
// worker's next job.
func TestWorkerWaitsForLateBody(t *testing.T) {
	reg := obs.New()
	d := newTestDaemon(t, Config{Workers: 1, JobTimeout: 50 * time.Millisecond, DegradeHeadroom: -1, Reg: reg})
	late, release := make(chan context.Context, 1), make(chan struct{})
	var lateReturned, nextStarted, overlapped atomic.Bool
	d.execHook = func(ctx context.Context, tk *task) Result {
		if tk.label == "late" {
			late <- ctx
			<-release // ignores ctx: runs past the deadline
			lateReturned.Store(true)
			return okHook(ctx, tk)
		}
		overlapped.Store(!lateReturned.Load())
		nextStarted.Store(true)
		return okHook(ctx, tk)
	}
	net := testNetFile(t, 41, 6)

	var wg sync.WaitGroup
	var lateRes, nextRes *Response
	wg.Add(1)
	go func() {
		defer wg.Done()
		lateRes, _ = d.Submit(context.Background(), oneJobRequest(Job{ID: "late", Mode: "ard", Net: net}))
	}()
	<-(<-late).Done() // the late job's deadline has passed; its body still runs
	wg.Add(1)
	go func() {
		defer wg.Done()
		nextRes, _ = d.Submit(context.Background(), oneJobRequest(Job{ID: "next", Mode: "ard", Net: testNetFile(t, 42, 6)}))
	}()
	// The next job waits in the queue behind the late body — or, if the
	// worker abandoned that body, is already running beside it.
	waitFor(t, func() bool { return queuedTasks(d) == 1 || nextStarted.Load() })
	close(release)
	wg.Wait()

	if overlapped.Load() {
		t.Error("the next job started while the late body was still running")
	}
	if lateRes == nil || nextRes == nil {
		t.Fatalf("responses: late %+v, next %+v", lateRes, nextRes)
	}
	if r := lateRes.Results[0]; r.Code != ErrDeadlineExceeded {
		t.Errorf("late body: %+v, want code %s", r, ErrDeadlineExceeded)
	}
	if r := nextRes.Results[0]; r.Status != StatusOK {
		t.Errorf("next job: %+v, want ok", r)
	}
	if got := reg.Counter("svc/jobs_deadline_exceeded").Value(); got != 1 {
		t.Errorf("deadline counter = %d, want 1", got)
	}
}

// TestEveryDeadlineMissCounted: whichever way a job misses its
// deadline — it expires in the queue, the DP aborts on its context, or
// its body returns late — the job retires with deadline_exceeded and
// svc/jobs_deadline_exceeded counts it exactly once.
func TestEveryDeadlineMissCounted(t *testing.T) {
	net := testNetFile(t, 43, 6)
	missedResult := func(t *testing.T, resp *Response, serr *SubmitError) Result {
		t.Helper()
		if serr != nil {
			t.Fatal(serr)
		}
		return resp.Results[0]
	}
	cases := []struct {
		name string
		cfg  Config
		// run drives the daemon until the job labeled "missed" has
		// missed its deadline, and returns the error text of its result
		// ("" when its submitter gave up before the result existed).
		run func(t *testing.T, d *Daemon) string
		msg string
	}{{
		name: "expired before start",
		cfg:  Config{Workers: 1, JobTimeout: 10 * time.Second},
		run: func(t *testing.T, d *Daemon) string {
			started, release := make(chan struct{}), make(chan struct{})
			var once sync.Once
			d.execHook = func(ctx context.Context, tk *task) Result {
				once.Do(func() { close(started); <-release })
				return okHook(ctx, tk)
			}
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				d.Submit(context.Background(), oneJobRequest(Job{ID: "blocker", Mode: "ard", Net: net}))
			}()
			<-started
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			go func() {
				defer wg.Done()
				d.Submit(ctx, oneJobRequest(Job{ID: "missed", Mode: "ard", Net: testNetFile(t, 44, 6)}))
			}()
			// Wait on the queued job's own context: its parent, the
			// request context, reports done before it cancels its
			// children.
			var missed *task
			waitFor(t, func() bool {
				d.mu.Lock()
				defer d.mu.Unlock()
				for _, tn := range d.tenants {
					if len(tn.queue) > 0 {
						missed = tn.queue[0]
					}
				}
				return missed != nil
			})
			<-missed.ctx.Done() // the submitter gives up too: the result is only in /debug/jobs
			close(release)
			wg.Wait()
			return ""
		},
	}, {
		name: "aborted DP",
		cfg:  Config{Workers: 1, JobTimeout: 100 * time.Millisecond, DegradeHeadroom: -1},
		run: func(t *testing.T, d *Daemon) string {
			// Exact wire sizing on this 3-pin net runs for minutes; the
			// DP's deadline polls stop it.
			resp, serr := d.Submit(context.Background(), oneJobRequest(Job{ID: "missed", Mode: "msri",
				Net: testNetFile(t, 2, 3), Options: JobOptions{WireWidths: []float64{1, 2}}}))
			return missedResult(t, resp, serr).Error
		},
		msg: "optimization aborted",
	}, {
		name: "late body",
		cfg:  Config{Workers: 1, JobTimeout: 20 * time.Millisecond},
		run: func(t *testing.T, d *Daemon) string {
			d.execHook = func(ctx context.Context, tk *task) Result {
				<-ctx.Done()
				return okHook(ctx, tk) // an answer, but after the deadline
			}
			resp, serr := d.Submit(context.Background(), oneJobRequest(Job{ID: "missed", Mode: "ard", Net: net}))
			return missedResult(t, resp, serr).Error
		},
		msg: "job exceeded deadline",
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.New()
			cfg := tc.cfg
			cfg.Reg = reg
			d := newTestDaemon(t, cfg)
			if msg := tc.run(t, d); !strings.Contains(msg, tc.msg) {
				t.Errorf("missed job's error %q does not name the miss (%q)", msg, tc.msg)
			}
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
			missed := 0
			for _, e := range list.Recent {
				if e.Code != ErrDeadlineExceeded {
					continue
				}
				missed++
				if e.Label != "missed" {
					t.Errorf("%s retired with %s", e.Label, e.Code)
				}
			}
			if missed != 1 {
				t.Errorf("%d jobs retired with %s, want 1", missed, ErrDeadlineExceeded)
			}
			if got := reg.Counter("svc/jobs_deadline_exceeded").Value(); got != int64(missed) {
				t.Errorf("deadline counter = %d for %d deadline_exceeded results", got, missed)
			}
		})
	}
}

// TestExactJoinOverrunBounded: an exact solve stopped by JobTimeout
// answers soon after it. The first large join of this net's walk builds
// its product from about 100 to 300 ms into the solve on a 2-vCPU VM,
// and from about 550 ms to 1.2 s under the race detector; the DP polls
// once per join row, so a deadline anywhere in it costs at most one row
// and a short stretch of pruning. The timeouts sweep across that join
// at either speed.
func TestExactJoinOverrunBounded(t *testing.T) {
	const overrun = 100 * time.Millisecond
	net := testNetFile(t, 3, 4)
	for _, timeout := range []time.Duration{125 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond, time.Second} {
		d := newTestDaemon(t, Config{Workers: 1, JobTimeout: timeout, DegradeHeadroom: -1})
		start := time.Now()
		resp, serr := d.Submit(context.Background(), oneJobRequest(Job{ID: "join", Mode: "msri",
			Net: net, Options: JobOptions{WireWidths: []float64{1, 2}}}))
		took := time.Since(start)
		if serr != nil {
			t.Fatal(serr)
		}
		if r := resp.Results[0]; r.Code != ErrDeadlineExceeded {
			t.Fatalf("timeout %v: %+v, want code %s", timeout, r, ErrDeadlineExceeded)
		}
		if took > timeout+overrun {
			t.Errorf("timeout %v: the job answered after %v, more than %v late", timeout, took, overrun)
		}
	}
}
