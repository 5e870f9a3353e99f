package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"msrnet/internal/ard"
	"msrnet/internal/buslib"
	"msrnet/internal/cluster"
	"msrnet/internal/core"
	"msrnet/internal/faultinject"
	"msrnet/internal/jobstore"
	"msrnet/internal/netio"
	"msrnet/internal/obs"
	"msrnet/internal/obs/recorder"
	"msrnet/internal/obs/reqctx"
	"msrnet/internal/obs/spans"
	"msrnet/internal/obs/trace"
	"msrnet/internal/rctree"
	"msrnet/internal/solveprof"
	"msrnet/internal/topo"
	"msrnet/internal/validate"
)

// Config tunes the daemon.
type Config struct {
	// Workers is the worker-pool size; defaults to GOMAXPROCS.
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs;
	// submissions beyond it are rejected with queue_full (HTTP 429).
	// Defaults to 4×Workers.
	QueueDepth int
	// JobTimeout is the per-job deadline; a job that exceeds it returns
	// deadline_exceeded. Zero means no per-job deadline.
	JobTimeout time.Duration
	// CacheSize is the LRU result-cache capacity in entries; ≤ 0
	// disables caching. Defaults are applied by msrnetd, not here.
	CacheSize int
	// DegradeHeadroom is the slice of the job deadline reserved for the
	// coarse fallback: an optimization that has not finished exactly by
	// deadline−headroom is retried with ε-relaxed pruning, and a job
	// arriving at a worker with less than headroom remaining skips the
	// exact attempt entirely. Zero defaults to JobTimeout/4; negative
	// disables degradation (jobs either finish exactly or fail with
	// deadline_exceeded). Meaningless without a JobTimeout.
	DegradeHeadroom time.Duration
	// CoarseEps is the dominance relaxation of degraded runs (see
	// core.Options.CoarseEps). Zero defaults to 0.02 ns.
	CoarseEps float64
	// ShedMargin, when positive, sheds jobs at dequeue whose remaining
	// deadline is below the margin: they fail fast with shed_load
	// (retryable) instead of burning a worker on a doomed attempt.
	ShedMargin time.Duration
	// Faults, when non-nil, injects test faults at the daemon's named
	// injection points (svc/decode, svc/queue, svc/worker,
	// svc/cache/get, svc/cache/put). Nil in production.
	Faults *faultinject.Injector
	// Reg receives the daemon's metrics; may be nil.
	Reg *obs.Registry
	// Logger receives job-level logs; slog.Default when nil. Wrap the
	// handler with reqctx.Handler so every line carries the request's
	// trace_id/job_id automatically.
	Logger *slog.Logger
	// Tracer, when non-nil, receives the per-job DP timeline: every
	// core/ard trace event of every job, tagged with the job's trace_id
	// and job id so one shared ring stays separable per job in a
	// Perfetto view. Served at GET /debug/trace.
	Tracer *trace.Tracer
	// Recorder, when non-nil, is the always-on flight recorder: the
	// daemon feeds it the live jobs view, fires an automatic postmortem
	// on recovered worker panics, and serves it at POST /debug/dump and
	// GET /debug/recorder. The caller owns Start/Stop.
	Recorder *recorder.FlightRecorder
	// Cluster, when non-nil, joins the daemon to a msrnetd fleet
	// (DESIGN.md §13): the LRU becomes this daemon's shard of the
	// cluster cache, saturated batches forward to the least-loaded
	// peer, and /cluster/* is mounted on the HTTP surface. The daemon
	// installs itself as the node's Local handler; the caller owns
	// Start/Stop of the gossip loop.
	Cluster *cluster.Node
	// ForwardHops caps work-stealing forward chains (default 2). A
	// batch arriving with this many hops is rejected, not re-forwarded,
	// so a fleet-wide saturation degrades to 429 instead of orbiting.
	ForwardHops int
	// Tenants, when non-empty, turns on multi-tenant admission: every
	// submission must carry a configured API key (X-Msrnet-Api-Key),
	// per-tenant quotas bound admission, and worker dispatch is
	// weighted fair-share across tenants (DESIGN.md §14). Empty keeps
	// the open single-tenant behavior.
	Tenants []TenantConfig
	// Store, when non-nil, is the write-ahead job log: accepted jobs,
	// results and delivery acks are appended durably, and the daemon
	// replays un-acked entries on startup via Recover. Nil disables
	// durability (jobs live only in memory, as before).
	Store *jobstore.Store
	// Spans, when non-nil, is the per-process distributed-tracing index
	// (DESIGN.md §15): the job lifecycle records explicit spans into it
	// — submit, decode, admission, queue wait, solve with its DP phases,
	// cache hops, forwards, WAL appends — keyed by the request's trace
	// ID, and GET /debug/spans/{traceID} serves them to the fleet
	// collector. Nil disables span recording (every hook is inert).
	Spans *spans.Index
}

// DefaultCoarseEps is the dominance relaxation degraded runs use when
// Config.CoarseEps is zero.
const DefaultCoarseEps = 0.02

// Daemon owns the job queue, worker pool and result cache. Create with
// New, submit with Submit (or through Handler's HTTP surface), and
// Close to drain.
type Daemon struct {
	cfg   Config
	reg   *obs.Registry
	log   *slog.Logger
	cache *resultCache
	table *jobTable
	rec   *recoveredTable

	wg sync.WaitGroup

	mu     sync.Mutex
	free   int // remaining queue slots
	closed bool

	// Stride-scheduler state (guarded by mu): per-tenant FIFO queues
	// hang off tenants; queued counts tasks across all of them, qcond
	// wakes workers, and globalPass is the scheduler's virtual time —
	// the pass of the last dispatched tenant, where idle tenants
	// re-enter.
	tenants      map[string]*tenantState
	byKey        map[string]*tenantState
	authRequired bool
	queued       int
	globalPass   float64
	qcond        *sync.Cond

	// seq numbers executed jobs; draining flips at StartDrain, before
	// the queue channel closes, so /readyz fails while in-flight work
	// still finishes.
	seq      atomic.Int64
	draining atomic.Bool

	submitted, completed, failed *obs.Counter
	rejected, deadlines, panics  *obs.Counter
	degraded, shed, forwarded    *obs.Counter
	queueDepth, workers          *obs.Gauge
	drainGauge                   *obs.Gauge

	// lat holds one sliding-window latency triple per outcome class;
	// built once at New so the job path never allocates a window.
	lat map[string]latWindows

	// execHook replaces exec in tests that need a slow or exploding
	// job body without building an adversarial net.
	execHook func(ctx context.Context, t *task) Result
}

// latWindows is the per-outcome-class SLO triple: queue wait, solve
// time and end-to-end latency, each a sliding-window quantile estimator.
type latWindows struct {
	queue, solve, e2e *obs.WindowHist
}

// task is one unit of queued work: a validated, decoded job plus its
// completion signal.
type task struct {
	job    *Job
	idx    int
	label  string
	netKey string
	key    string
	tr     *topo.Tree
	tech   buslib.Tech

	// Request-scoped identity: the client's trace id (from the request
	// context) and the daemon-assigned job id ("j<seq>").
	traceID string
	jid     string
	// Tenancy and durability: the owning tenant, whether the task holds
	// reserved queue slots (WAL-recovered tasks do not), and the job's
	// durable WAL identity ("" when the daemon runs without a store).
	tn       *tenantState
	slotted  bool
	walUID   string
	replayed bool
	seq      int64
	explain  *Explain
	want     bool // request asked for the explain on the result
	profile  bool // request asked for the lifecycle profile (implies want)
	prof     *solveprof.Profile

	ctx    context.Context
	cancel context.CancelFunc
	// Tracing state: the queue-wait span (started at dispatch, ended at
	// dequeue), the solve span's context (DP phase spans in exec parent
	// under it), and — for WAL-replayed tasks — the replay root span
	// ended when the recovered result lands.
	qspan    *spans.Span
	sctx     context.Context
	rspan    *spans.Span
	enqueued time.Time
	waitMs   float64 // queue wait, stamped at dequeue
	solveMs  float64 // wall-clock of the solve attempt(s)

	res  Result
	done chan struct{}
}

// New builds the daemon and starts its workers.
func New(cfg Config) *Daemon {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	reg := cfg.Reg
	d := &Daemon{
		cfg:        cfg,
		reg:        reg,
		log:        cfg.Logger,
		cache:      newResultCache(cfg.CacheSize, reg),
		table:      newJobTable(),
		rec:        newRecoveredTable(),
		free:       cfg.QueueDepth,
		submitted:  reg.Counter("svc/jobs_submitted"),
		completed:  reg.Counter("svc/jobs_completed"),
		failed:     reg.Counter("svc/jobs_failed"),
		rejected:   reg.Counter("svc/jobs_rejected"),
		deadlines:  reg.Counter("svc/jobs_deadline_exceeded"),
		panics:     reg.Counter("svc/panics_recovered"),
		degraded:   reg.Counter("svc/jobs_degraded"),
		shed:       reg.Counter("svc/jobs_shed"),
		forwarded:  reg.Counter("svc/jobs_forwarded"),
		queueDepth: reg.Gauge("svc/queue_depth"),
		workers:    reg.Gauge("svc/workers"),
		drainGauge: reg.Gauge("svc/draining"),
	}
	d.qcond = sync.NewCond(&d.mu)
	d.initTenants(cfg.Tenants)
	d.lat = make(map[string]latWindows, len(outcomeClasses))
	for _, class := range outcomeClasses {
		d.lat[class] = latWindows{
			queue: reg.Window("svc/latency/queue/"+class, 0, 0),
			solve: reg.Window("svc/latency/solve/"+class, 0, 0),
			e2e:   reg.Window("svc/latency/e2e/"+class, 0, 0),
		}
	}
	// Postmortem bundles carry the live jobs view so an incident report
	// can say what was in flight when the daemon died.
	cfg.Recorder.SetJobs(func() any {
		active, recent := d.table.List()
		return jobListBody{Schema: ExplainSchema, Active: active, Recent: recent}
	})
	// Postmortem bundles carry the tenancy view (quota fill, stride
	// state, per-tenant counters) so an incident report can say who was
	// being throttled or starved when the daemon died.
	cfg.Recorder.SetTenants(d.TenantsState)
	if cfg.Cluster != nil {
		// Inbound cluster traffic (shard-cache gets/puts, forwarded
		// batches, health probes for gossip) dispatches to this daemon.
		cfg.Cluster.SetLocal(clusterLocal{d: d})
		// Postmortem bundles carry the peer view, so an incident report
		// can say what the fleet looked like when the daemon died.
		cfg.Recorder.SetCluster(func() any { return cfg.Cluster.State() })
	}
	d.workers.Set(int64(cfg.Workers))
	d.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go d.worker()
	}
	return d
}

// SubmitError is a whole-request rejection, mapped to one HTTP status.
type SubmitError struct {
	Status int // HTTP status code
	Code   string
	Msg    string
	// Cause is the msrnet-error/v1 taxonomy code when the rejection
	// traces to net/technology validation; empty otherwise.
	Cause string
	// RetryAfter, when positive, is the caller-specific backoff hint
	// surfaced as the Retry-After header — per-tenant quota rejections
	// compute it from the tenant's own rate deficit instead of the
	// global "1".
	RetryAfter time.Duration
}

func (e *SubmitError) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Msg) }

func submitErr(status int, code, format string, args ...any) *SubmitError {
	return &SubmitError{Status: status, Code: code, Msg: fmt.Sprintf(format, args...)}
}

// decodeErr builds the 400 for a net that failed validation, carrying
// the taxonomy code of err as the machine-readable cause.
func decodeErr(label string, err error) *SubmitError {
	se := submitErr(http.StatusBadRequest, ErrBadRequest, "job %s: %v", label, err)
	se.Cause = validate.CodeOf(err)
	return se
}

// Submit validates and runs every job of req, in request order, and
// blocks until all complete or ctx is done. Cache hits return without
// queueing. The whole batch is admitted atomically: if the queue cannot
// hold every miss, nothing is enqueued and the request is rejected with
// queue_full — partial admission would make 429 retries recompute the
// admitted half.
func (d *Daemon) Submit(ctx context.Context, req *Request) (*Response, *SubmitError) {
	submitStart := time.Now()
	// Root span of this process's share of the trace. A forwarded batch
	// carries the sender's hop span reference, so this root links under
	// it and the stitched trace shows both sides of the hop.
	fmeta := forwardMetaFrom(ctx)
	if fmeta.ParentSpan != "" {
		ctx = spans.WithRemoteParent(ctx, fmeta.ParentSpan)
	}
	ctx, root := d.cfg.Spans.Start(ctx, "submit")
	defer root.End()
	// Authenticate before any decode work: an unknown key must cost the
	// daemon nothing, and every downstream artifact (explain, WAL,
	// metrics) carries the tenant.
	tn, serr := d.tenantFor(ctx)
	if serr != nil {
		return nil, serr
	}
	if err := req.Validate(); err != nil {
		return nil, submitErr(http.StatusBadRequest, ErrBadRequest, "%v", err)
	}

	// Decode every net up front: a malformed net is the client's fault
	// and must be a structured 400, not a queued failure.
	traceID := reqctx.TraceID(ctx)
	results := make([]Result, len(req.Jobs))
	var pending []*task
	_, dec := d.cfg.Spans.Start(ctx, "decode")
	defer dec.End()
	for i := range req.Jobs {
		j := &req.Jobs[i]
		if err := d.cfg.Faults.Fire(ctx, "svc/decode"); err != nil {
			return nil, submitErr(http.StatusServiceUnavailable, ErrInternal, "decode: %v", err)
		}
		netKey, err := netio.ContentHash(j.Net)
		if err != nil {
			return nil, decodeErr(j.label(i), err)
		}
		tr, tech, err := netio.Decode(j.Net)
		if err != nil {
			return nil, decodeErr(j.label(i), err)
		}
		if len(tr.Sources()) == 0 || len(tr.Sinks()) == 0 {
			return nil, submitErr(http.StatusBadRequest, ErrBadRequest,
				"job %s: net needs at least one source and one sink", j.label(i))
		}
		key := j.cacheKey(netKey)
		d.submitted.Inc()
		tn.submitted.Inc()
		seq := d.seq.Add(1)
		jid := fmt.Sprintf("j%d", seq)
		t := &task{job: j, idx: i, label: j.label(i), netKey: netKey, key: key, tr: tr, tech: tech,
			traceID: traceID, jid: jid, seq: seq, want: req.Explain || req.Profile,
			profile: req.Profile, tn: tn, slotted: true}
		t.explain = newExplain(t)
		d.stampCluster(t.explain, fmeta)
		res, hit := d.cacheGet(ctx, key, req.Profile)
		var shardOwner cluster.ID
		if !hit && !req.Profile {
			// Local miss: ask the net's home peer for its shard (single
			// hop; errors and down owners degrade to a miss).
			res, shardOwner, hit = d.shardLookup(ctx, netKey, key)
		}
		if hit {
			e := t.explain
			e.Cached = true
			if shardOwner != "" {
				e.ServedBy = string(shardOwner)
			}
			d.retire(e, OutcomeOK)
			res.ID, res.Cached = t.label, true
			if req.Explain {
				res.Explain = e
			}
			results[i] = res
			d.completed.Inc()
			continue
		}
		t.done = make(chan struct{})
		t.ctx, t.cancel = d.jobContext(reqctx.WithJobID(ctx, jid))
		pending = append(pending, t)
	}
	dec.End()

	// Register the batch for introspection (GET /debug/jobs) before the
	// queue can hand it to a worker. A rejected batch (queue full,
	// draining) still retires into the done-ring as outcome=rejected:
	// a daemon shedding admission under saturation must show those jobs
	// in /debug/jobs and in postmortem bundles, not silently drop them.
	for _, t := range pending {
		d.table.start(t.explain)
	}
	actx, admit := d.cfg.Spans.Start(ctx, "admit")
	err := d.reserve(tn, len(pending))
	if err == nil {
		// Durability barrier: the accepted records must be on disk
		// before any worker can produce a result for them. One Append is
		// one group commit for the whole batch.
		if werr := d.walAccept(actx, pending); werr != nil {
			d.unreserve(tn, len(pending))
			err = submitErr(http.StatusServiceUnavailable, ErrInternal, "job store: %v", werr)
		}
	}
	admit.End()
	if err != nil {
		// A saturated or draining queue is a work-stealing trigger: hand
		// the batch to the least-loaded ready peer before rejecting. A
		// tenant that exceeded its own quota gets its per-tenant 429 —
		// stealing would let it launder the quota through peers.
		if resp, ok := d.tryForward(ctx, req, pending, results, err); ok {
			return resp, nil
		}
		// Only a batch actually bounced back to the client counts as
		// rejected — a stolen batch above is delivered work, not loss.
		if err.Code == ErrQueueFull || err.Code == ErrQuotaExceeded {
			d.rejected.Add(int64(len(pending)))
			tn.rejected.Add(int64(len(pending)))
		}
		ms := float64(time.Since(submitStart)) / float64(time.Millisecond)
		for _, t := range pending {
			t.cancel()
			e := d.table.detach(t.jid)
			e.Code = err.Code
			e.TotalMs = ms
			d.retire(e, OutcomeRejected)
		}
		return nil, err
	}
	d.dispatch(pending)
	for _, t := range pending {
		select {
		case <-t.done:
		case <-ctx.Done():
			// Client gone: cancel what has not finished and bail. The
			// workers observe the cancellation and fail the tasks fast.
			for _, u := range pending {
				u.cancel()
			}
			return nil, submitErr(http.StatusServiceUnavailable, ErrShuttingDown, "request context done: %v", ctx.Err())
		}
	}
	// Place the computed results into request order.
	for _, t := range pending {
		results[t.idx] = t.res
	}
	// The batch is about to reach the client: acknowledge every durable
	// job so compaction can drop it. A crash before this append replays
	// the stored results instead of losing them.
	d.walAck(ctx, pending)
	return &Response{Version: SchemaVersion, Results: results}, nil
}

// newExplain seeds a job's report with its identity — fresh, cache-hit
// and WAL-replayed jobs alike; timing and solve shape are filled when
// the job retires.
func newExplain(t *task) *Explain {
	return &Explain{
		Schema:   ExplainSchema,
		JobID:    t.jid,
		Seq:      t.seq,
		Label:    t.label,
		TraceID:  t.traceID,
		NetKey:   t.netKey,
		Tenant:   t.tn.cfg.Name,
		Mode:     t.job.Mode,
		State:    JobQueued,
		Replayed: t.replayed,
	}
}

// jobContext derives the per-job context: the request context bounded
// by the per-job deadline.
func (d *Daemon) jobContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if d.cfg.JobTimeout > 0 {
		return context.WithTimeout(ctx, d.cfg.JobTimeout)
	}
	return context.WithCancel(ctx)
}

// cacheGet looks up key under the svc/cache/get injection point: an
// injected fault degrades to a miss (the job recomputes) rather than
// failing the request. A profiled request bypasses the cache (not even
// a lookup, so hit/miss counters and LRU order stay honest): the
// lifecycle profile exists only on a fresh solve, and serving a cached
// result would silently return a report without one.
func (d *Daemon) cacheGet(ctx context.Context, key string, profiled bool) (Result, bool) {
	if profiled {
		return Result{}, false
	}
	_, sp := d.cfg.Spans.Start(ctx, "cache/get")
	defer sp.End()
	if err := d.cfg.Faults.Fire(ctx, "svc/cache/get"); err != nil {
		d.log.Warn("cache get fault", "err", err)
		return Result{}, false
	}
	res, hit := d.cache.Get(key)
	sp.Set("hit", fmt.Sprint(hit))
	return res, hit
}

func (d *Daemon) worker() {
	defer d.wg.Done()
	for {
		t := d.next()
		if t == nil {
			return
		}
		t.waitMs = float64(time.Since(t.enqueued)) / float64(time.Millisecond)
		d.runTask(t)
	}
}

// runTask executes one task with panic isolation and the per-job
// deadline. The job body runs on its own goroutine so a deadline can
// preempt the wait (the computation itself is not interruptible — it
// finishes in the background and is discarded).
func (d *Daemon) runTask(t *task) {
	defer close(t.done)
	defer t.cancel()
	d.table.setRunning(t.jid)
	t.qspan.End() // queue wait is over: a worker has the task

	if err := t.ctx.Err(); err != nil {
		t.res = d.failResult(t, ErrDeadlineExceeded, fmt.Sprintf("expired before start: %v", err))
		d.deadlines.Inc()
	} else if d.shouldShed(t) {
		d.shed.Inc()
		t.res = d.failResult(t, ErrShedLoad, fmt.Sprintf(
			"job spent its deadline queued (%v remaining < %v margin); resubmit for a fresh budget",
			remainingBudget(t.ctx), d.cfg.ShedMargin))
	} else {
		resCh := make(chan Result, 1)
		var solveSpan *spans.Span
		t.sctx, solveSpan = d.cfg.Spans.Start(t.ctx, "solve")
		solveStart := time.Now()
		go func() {
			defer func() {
				if p := recover(); p != nil {
					d.panics.Inc()
					d.log.ErrorContext(t.ctx, "job panic recovered", "job", t.label, "panic", fmt.Sprint(p))
					// A worker panic is a postmortem trigger: the recorder
					// snapshots the last minutes of daemon state while the
					// evidence is still hot (cooldown-debounced, so a panic
					// storm writes one bundle, not hundreds).
					if dir, err := d.cfg.Recorder.TriggerAuto(recorder.ReasonPanic,
						fmt.Sprintf("job %s: %v", t.jid, p)); err != nil {
						d.log.ErrorContext(t.ctx, "postmortem capture failed", "err", err)
					} else if dir != "" {
						d.log.ErrorContext(t.ctx, "postmortem bundle written", "bundle", dir)
					}
					resCh <- d.failResult(t, ErrInternal, fmt.Sprintf("panic: %v", p))
				}
			}()
			if err := d.cfg.Faults.Fire(t.ctx, "svc/worker"); err != nil {
				resCh <- d.failResult(t, ErrInternal, fmt.Sprintf("worker: %v", err))
				return
			}
			resCh <- d.exec(t)
		}()
		select {
		case r := <-resCh:
			t.res = r
		case <-t.ctx.Done():
			d.deadlines.Inc()
			t.res = d.failResult(t, ErrDeadlineExceeded, fmt.Sprintf("job exceeded deadline: %v", t.ctx.Err()))
		}
		t.solveMs = float64(time.Since(solveStart)) / float64(time.Millisecond)
		solveSpan.End()
	}

	// Persist the outcome before anything can deliver it: a crash after
	// this append replays the stored bytes instead of re-solving.
	d.walResult(t)
	if t.res.Status == StatusOK {
		d.completed.Inc()
		if t.res.Degraded {
			// A degraded result is only the best answer under THIS job's
			// deadline pressure; caching it would pin the coarse answer
			// for future unpressed submissions of the same net.
			d.degraded.Inc()
		} else if d.cfg.Faults.Fire(t.ctx, "svc/cache/put") == nil {
			// Cache the result without per-request decoration. An injected
			// put fault drops the insert — the cache is an optimization,
			// never a correctness dependency.
			stored := cacheable(t.res)
			d.cache.Put(t.key, stored)
			// Replicate to the net's home peer so any fleet member's next
			// submission of this net hits in one hop. The local copy above
			// is the fallback when the owner is down.
			d.shardStore(t.ctx, t.netKey, t.key, stored)
		}
	} else {
		d.failed.Inc()
	}
	d.finishJob(t)
	d.log.InfoContext(t.ctx, "job done", "job", t.label, "status", t.res.Status, "code", t.res.Code,
		"mode", t.job.Mode, "net_key", t.netKey, "degraded", t.res.Degraded,
		"outcome", t.explain.Outcome, "queue_wait_ms", t.waitMs, "solve_ms", t.solveMs)
}

// finishJob completes a worker-run job (ok, degraded, shed, error or
// WAL-replayed): it fills the explain report's completion fields,
// retires it, and — when the request asked — attaches it to the
// result. A replayed job has no waiting request handler, so its result
// lands in the /v1/recovered table here and its replay span closes.
func (d *Daemon) finishJob(t *task) {
	e := d.table.detach(t.jid)
	e.Code = t.res.Code
	e.QueueWaitMs = t.waitMs
	e.SolveMs = t.solveMs
	e.TotalMs = float64(time.Since(t.enqueued)) / float64(time.Millisecond)
	if t.res.Opt != nil {
		e.Solve = solveExplain(t.res.Opt.Stats)
		e.Profile = t.prof
		if t.res.Degraded {
			e.Degradation = &DegradeExplain{
				Reason:     t.res.DegradedReason,
				CoarseEps:  t.res.Opt.CoarseEps,
				ErrorBound: t.res.Opt.CoarseEps * float64(t.res.Opt.Stats.PruneCalls),
			}
		}
	}
	e.Spans = d.cfg.Spans.Summarize(e.TraceID)
	d.retire(e, outcomeOf(t.res))
	if t.want {
		t.res.Explain = e
	}
	t.tn.latE2E.Observe(e.TotalMs)
	if t.res.Status == StatusOK {
		t.tn.completed.Inc()
	}
	if t.replayed {
		t.rspan.End()
		d.rec.complete(t.walUID, t.res)
	}
}

// retire is the one exit of every job's report: the worker's finish,
// an admission rejection, a forward to a peer, or a cache hit. It marks
// the report done with its outcome, records it in the done ring (after
// which it is immutable), and observes the outcome's latency windows —
// except for a cache hit, which never queued or solved.
func (d *Daemon) retire(e *Explain, outcome string) {
	e.State, e.Outcome = JobDone, outcome
	d.table.record(e)
	if e.Cached {
		return
	}
	lw := d.lat[outcome]
	lw.queue.ObserveEx(e.QueueWaitMs, e.TraceID)
	lw.solve.ObserveEx(e.SolveMs, e.TraceID)
	lw.e2e.ObserveEx(e.TotalMs, e.TraceID)
}

// shouldShed reports whether the task's remaining deadline at dequeue
// is below the shedding margin — the job spent its budget queued and
// an attempt would almost surely time out mid-flight.
func (d *Daemon) shouldShed(t *task) bool {
	if d.cfg.ShedMargin <= 0 {
		return false
	}
	rem := remainingBudget(t.ctx)
	return rem >= 0 && rem < d.cfg.ShedMargin
}

// remainingBudget returns the time left before ctx's deadline, or -1
// when it has none.
func remainingBudget(ctx context.Context) time.Duration {
	dl, ok := ctx.Deadline()
	if !ok {
		return -1
	}
	return time.Until(dl)
}

func (d *Daemon) failResult(t *task, code, msg string) Result {
	return Result{ID: t.label, Status: StatusError, Code: code, Error: msg,
		NetKey: t.netKey, Retryable: retryableCode(code)}
}

// exec computes the job's result. It runs on a per-job goroutine under
// runTask's panic guard.
func (d *Daemon) exec(t *task) Result {
	if d.execHook != nil {
		return d.execHook(t.ctx, t)
	}
	j := t.job
	res := Result{ID: t.label, Status: StatusOK, NetKey: t.netKey}
	rt := t.tr.RootAt(t.tr.Terminals()[0])

	// Tag every trace event of this job with its request-scoped identity
	// so a shared ring tracer stays separable per job.
	var targs []trace.Arg
	if d.cfg.Tracer != nil {
		targs = []trace.Arg{trace.S("trace_id", t.traceID), trace.S("job", t.jid)}
	}

	if j.Mode == "ard" || j.Mode == "both" {
		_, ps := d.cfg.Spans.Start(t.sctx, "solve/ard")
		net := rctree.NewNet(rt, t.tech, rctree.Assignment{})
		r := ard.Compute(net, ard.Options{IncludeSelf: j.Options.IncludeSelf,
			Trace: d.cfg.Tracer, TraceArgs: targs})
		ps.End()
		res.ARD = &ARDResult{ARD: r.ARD, CritSrc: termName(t.tr, r.CritSrc), CritSink: termName(t.tr, r.CritSink)}
	}

	if j.Mode == "msri" || j.Mode == "both" {
		// Each job builds its own Options value; only the registry and
		// tracer are shared across workers, and both are safe for
		// concurrent use (see TestOptionsCopiesAreGoroutineSafe).
		opt := core.Options{
			IncludeSelf: j.Options.IncludeSelf,
			WireWidths:  append([]float64(nil), j.Options.WireWidths...),
			Obs:         d.reg,
			Trace:       d.cfg.Tracer,
			TraceArgs:   targs,
			Profile:     t.profile,
		}
		switch j.optimize() {
		case "repeaters":
			opt.Repeaters = true
		case "sizing":
			opt.SizeDrivers = true
		case "both":
			opt.Repeaters = true
			opt.SizeDrivers = true
		}
		_, ps := d.cfg.Spans.Start(t.sctx, "solve/optimize")
		out, deg, err := d.runOptimize(t, rt, opt)
		ps.End()
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return d.failResult(t, ErrDeadlineExceeded, fmt.Sprintf("optimize: %v", err))
			}
			return d.failResult(t, ErrBadRequest, fmt.Sprintf("optimize: %v", err))
		}
		if t.profile {
			// Convert on the worker, off the finishJob path; finishJob
			// attaches it to the explain report. Under degradation the
			// profile describes the run that produced the answer (the
			// coarse retry), matching the stats it ships with.
			t.prof = solveprof.FromResult(out, "msrnetd", t.jid)
		}
		chosen, err := out.Suite.MinARD()
		if err != nil {
			return d.failResult(t, ErrInternal, fmt.Sprintf("optimize: %v", err))
		}
		if j.Options.Spec > 0 {
			sol, ok := out.Suite.MinCost(j.Options.Spec)
			if !ok {
				return d.failResult(t, ErrSpecUnmet, fmt.Sprintf(
					"no solution meets ARD ≤ %g ns (best achievable %.6f)",
					j.Options.Spec, chosen.ARD))
			}
			chosen = sol
		}
		_, es := d.cfg.Spans.Start(t.sctx, "solve/encode")
		opt2 := &OptResult{
			Chosen: suitePoint(chosen),
			Assign: netio.EncodeAssignment(chosen.Cost, chosen.ARD, chosen.Assignment()),
			Stats:  out.Stats,
		}
		for _, s := range out.Suite {
			opt2.Suite = append(opt2.Suite, suitePoint(s))
		}
		es.End()
		if deg != nil {
			res.Degraded = true
			res.DegradedReason = deg.reason
			opt2.CoarseEps = deg.eps
		}
		res.Opt = opt2
	}
	return res
}

// degradeInfo describes the fallback a degraded optimization took.
type degradeInfo struct {
	reason string
	eps    float64
}

// runOptimize runs the DP under the degradation policy. With headroom
// h (DegradeHeadroom, defaulting to JobTimeout/4) and a job deadline D:
// a job reaching a worker with less than h remaining skips the exact
// attempt and runs coarse (ε-relaxed pruning) directly; otherwise the
// exact DP runs under a soft deadline D−h, and if it expires there
// while the job is still live, the headroom is spent on a coarse
// retry. Negative headroom or a deadline-free job disables the policy:
// one exact attempt, bounded only by the job context.
func (d *Daemon) runOptimize(t *task, rt *topo.Rooted, opt core.Options) (*core.Result, *degradeInfo, error) {
	headroom := d.cfg.DegradeHeadroom
	if headroom == 0 {
		headroom = d.cfg.JobTimeout / 4
	}
	deadline, hasDL := t.ctx.Deadline()
	if headroom <= 0 || !hasDL {
		opt.Context = t.ctx
		out, err := core.Optimize(rt, t.tech, opt)
		return out, nil, err
	}
	eps := d.cfg.CoarseEps
	if eps == 0 {
		eps = DefaultCoarseEps
	}
	coarse := func(reason string) (*core.Result, *degradeInfo, error) {
		copt := opt
		copt.Context = t.ctx
		copt.CoarseEps = eps
		out, err := core.Optimize(rt, t.tech, copt)
		if err != nil {
			return nil, nil, err
		}
		return out, &degradeInfo{reason: reason, eps: eps}, nil
	}
	if time.Until(deadline) < headroom {
		// The queue ate the budget; an exact attempt cannot fit.
		return coarse("queue_pressure")
	}
	soft, cancel := context.WithDeadline(t.ctx, deadline.Add(-headroom))
	opt.Context = soft
	out, err := core.Optimize(rt, t.tech, opt)
	cancel()
	if err == nil {
		return out, nil, nil
	}
	// The exact attempt died on the soft deadline while the job itself
	// is still live: spend the reserved headroom on a coarse retry.
	if errors.Is(err, context.DeadlineExceeded) && t.ctx.Err() == nil {
		return coarse("soft_deadline")
	}
	return nil, nil, err
}

func suitePoint(s core.RootSolution) SuitePoint {
	return SuitePoint{Cost: s.Cost, ARD: s.ARD, Repeaters: s.Repeaters()}
}

func termName(tr *topo.Tree, id int) string {
	if id < 0 {
		return ""
	}
	return tr.Node(id).Term.Name
}

// StartDrain begins the graceful-shutdown handshake without stopping
// anything: new submissions are rejected with shutting_down, /readyz
// flips to 503, and /healthz stays 200 — exactly the window a load
// balancer needs to move traffic before the listener goes away. Queued
// and in-flight jobs keep running. Idempotent; Close implies it.
func (d *Daemon) StartDrain() {
	if d.draining.CompareAndSwap(false, true) {
		d.drainGauge.Set(1)
		d.log.Info("drain started: admission closed, /readyz failing, in-flight jobs continue")
	}
}

// Draining reports whether StartDrain (or Close) has been called.
func (d *Daemon) Draining() bool { return d.draining.Load() }

// Ready is the /readyz predicate: false (with a reason) while draining
// or while the queue is saturated — both states where a load balancer
// should prefer another backend even though the process is healthy.
func (d *Daemon) Ready() (bool, string) {
	if d.draining.Load() {
		return false, "draining"
	}
	d.mu.Lock()
	free := d.free
	d.mu.Unlock()
	if free == 0 {
		return false, "queue_saturated"
	}
	return true, "ok"
}

// Close stops admission and drains: queued and in-flight jobs complete
// (submitters are unblocked), workers exit, and Close returns when the
// pool is idle or ctx expires.
func (d *Daemon) Close(ctx context.Context) error {
	d.StartDrain()
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.qcond.Broadcast() // workers drain the queues, then observe closed
	d.mu.Unlock()

	idle := make(chan struct{})
	go func() {
		d.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain interrupted: %w", ctx.Err())
	}
}
