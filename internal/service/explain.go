package service

import (
	"sort"
	"sync"

	"msrnet/internal/core"
	"msrnet/internal/obs/spans"
	"msrnet/internal/solveprof"
)

// ExplainSchema identifies the JSON layout of a per-job explain report,
// so tooling can detect format drift the same way it does for
// msrnet-metrics/v1 and msrnet-trace-events/v1.
const ExplainSchema = "msrnet-explain/v1"

// Job lifecycle states surfaced by the introspection endpoints.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
)

// Outcome classes. Every finished job lands in exactly one; the
// per-class SLO latency windows (svc/latency/{queue,solve,e2e}/<class>)
// are keyed by the same strings.
const (
	OutcomeOK       = "ok"
	OutcomeDegraded = "degraded"
	OutcomeShed     = "shed"
	OutcomeError    = "error"
	// OutcomeRejected marks jobs the admission path turned away before
	// they ever queued: queue-saturation 429s and draining rejections.
	OutcomeRejected = "rejected"
	// OutcomeForwarded marks jobs this daemon could not admit and handed
	// to a fleet peer by work-stealing; the peer's own report (with
	// forwarded_from set) carries the solve.
	OutcomeForwarded = "forwarded"
)

// outcomeClasses enumerates the classes so the daemon can pre-build
// one latency window per class (no allocation on the job path).
var outcomeClasses = []string{OutcomeOK, OutcomeDegraded, OutcomeShed, OutcomeError, OutcomeRejected, OutcomeForwarded}

// outcomeOf classifies a finished result.
func outcomeOf(res Result) string {
	switch {
	case res.Status == StatusOK && res.Degraded:
		return OutcomeDegraded
	case res.Status == StatusOK:
		return OutcomeOK
	case res.Code == ErrShedLoad:
		return OutcomeShed
	default:
		return OutcomeError
	}
}

// Explain is the per-job solve report: where one job's wall-clock time
// went and what the dynamic program did to it. A report is returned on
// the job's Result when the request asks (?explain=1), kept in a
// bounded ring for GET /debug/jobs/{id}, and listed live while the job
// is still queued or running.
type Explain struct {
	Schema string `json:"schema"`
	// JobID is the daemon-assigned identity ("j<seq>"), unique per
	// executed job within one daemon lifetime; Label echoes the client's
	// job ID (or batch index). Seq orders reports.
	JobID string `json:"job_id"`
	Seq   int64  `json:"seq"`
	Label string `json:"label"`
	// TraceID is the request-scoped correlation ID (X-Msrnet-Trace-Id):
	// the same string appears on the daemon's slog lines and on the ring
	// tracer's events for this job.
	TraceID string `json:"trace_id,omitempty"`
	NetKey  string `json:"net_key,omitempty"`
	// Tenant is the submitting tenant's name (multi-tenant daemons;
	// "default" otherwise).
	Tenant string `json:"tenant,omitempty"`
	Mode   string `json:"mode"`
	State  string `json:"state"`
	// Replayed marks a job re-queued from the write-ahead job store at
	// startup rather than submitted over HTTP this run.
	Replayed bool `json:"replayed,omitempty"`
	// Outcome is ok/degraded/shed/error once State is done.
	Outcome string `json:"outcome,omitempty"`
	Code    string `json:"code,omitempty"`
	// Cached marks a result served from the LRU without queueing.
	Cached bool `json:"cached,omitempty"`
	// ServedBy is the fleet member that served this job's bytes: the
	// answering daemon's cluster ID, the shard owner's on a remote cache
	// hit, or the stealing peer's when this daemon forwarded the batch
	// (outcome=forwarded). Empty on clusterless daemons.
	ServedBy string `json:"served_by,omitempty"`
	// ForwardedFrom is the peer that handed this job over by
	// work-stealing, set on the executing daemon's report.
	ForwardedFrom string `json:"forwarded_from,omitempty"`

	// Where the time went: queue wait vs. solve vs. end-to-end (their
	// difference is scheduling and encode overhead).
	QueueWaitMs float64 `json:"queue_wait_ms"`
	SolveMs     float64 `json:"solve_ms"`
	TotalMs     float64 `json:"total_ms"`

	Solve       *SolveExplain   `json:"solve,omitempty"`
	Degradation *DegradeExplain `json:"degradation,omitempty"`

	// Profile is the msrnet-solveprof/v1 candidate-lifecycle waste
	// profile, present only when the request asked (?profile=1). It
	// rides on the explain report so the same artifact reaches the
	// result, GET /debug/jobs/{id} and postmortem bundles.
	Profile *solveprof.Profile `json:"profile,omitempty"`

	// Spans summarizes this process's span index for the job's trace at
	// completion: span count, cross-process hop count, and self-time per
	// segment class — a one-glance answer to "where did this trace spend
	// its time HERE" without running the fleet collector.
	Spans *spans.Summary `json:"spans,omitempty"`
}

// SolveExplain is the dynamic-program shape of the job: candidate
// volume, per-site prune effectiveness and PWL complexity — the numbers
// that say WHY a job was slow, not just that it was.
type SolveExplain struct {
	NodesVisited     int     `json:"nodes_visited"`
	SolutionsCreated int     `json:"solutions_created"`
	MaxSetSize       int     `json:"max_set_size"`
	MeanSetSize      float64 `json:"mean_set_size"`
	MaxSegs          int     `json:"max_pwl_segments"`
	PruneCalls       int     `json:"prune_calls"`
	Dropped          int     `json:"dropped"`
	// PruneSites breaks the pruning down by dominance-rule call site
	// (drivers, wire_widths, join, repeater).
	PruneSites map[string]core.PruneSiteStats `json:"prune_sites,omitempty"`
}

// DegradeExplain records a deadline-pressure fallback decision and its
// accuracy price.
type DegradeExplain struct {
	// Reason is queue_pressure (job reached a worker with too little
	// budget for an exact attempt) or soft_deadline (the exact attempt
	// expired and the reserved headroom ran the coarse retry).
	Reason string `json:"reason"`
	// CoarseEps is the dominance relaxation the coarse run used.
	CoarseEps float64 `json:"coarse_eps"`
	// ErrorBound is CoarseEps × the run's prune calls: the reported ARD
	// exceeds the exact optimum by at most this many nanoseconds.
	ErrorBound float64 `json:"error_bound_ns"`
}

// solveExplain converts the DP's stats into the report shape.
func solveExplain(s core.Stats) *SolveExplain {
	se := &SolveExplain{
		NodesVisited:     s.NodesVisited,
		SolutionsCreated: s.SolutionsCreated,
		MaxSetSize:       s.MaxSetSize,
		MaxSegs:          s.MaxSegs,
		PruneCalls:       s.PruneCalls,
		Dropped:          s.Dropped,
		PruneSites:       s.PruneSites,
	}
	if s.NodesVisited > 0 {
		se.MeanSetSize = float64(s.SetSizeSum) / float64(s.NodesVisited)
	}
	return se
}

// jobTable tracks explain reports: live jobs (queued/running) by id
// plus a bounded ring of the most recently finished ones. All methods
// are safe for concurrent use; reads return copies so handlers never
// serialize a report a worker is still writing.
type jobTable struct {
	mu     sync.Mutex
	done   [explainRing]*Explain // circular; next is the oldest slot, nil until first filled
	next   int
	active map[string]*Explain
}

// explainRing bounds the finished-report ring behind GET /debug/jobs.
const explainRing = 256

func newJobTable() *jobTable {
	return &jobTable{active: map[string]*Explain{}}
}

// start registers a queued job.
func (t *jobTable) start(e *Explain) {
	t.mu.Lock()
	t.active[e.JobID] = e
	t.mu.Unlock()
}

// setRunning marks a queued job as dequeued.
func (t *jobTable) setRunning(id string) {
	t.mu.Lock()
	if e, ok := t.active[id]; ok {
		e.State = JobRunning
	}
	t.mu.Unlock()
}

// detach takes a live job out of the active table and returns its
// report, handing sole ownership to the caller: once detached, no
// List/Get reader can reach the pointer, so the caller may fill the
// completion fields without racing concurrent readers before it
// retires the report (Daemon.retire).
func (t *jobTable) detach(id string) *Explain {
	t.mu.Lock()
	e := t.active[id]
	delete(t.active, id)
	t.mu.Unlock()
	return e
}

// record adds a completed report to the finished ring — jobs that
// never queued (cache hits) and detached jobs whose completion fields
// are filled. Reports are immutable after record.
func (t *jobTable) record(e *Explain) {
	t.mu.Lock()
	t.done[t.next] = e
	t.next = (t.next + 1) % explainRing
	t.mu.Unlock()
}

// recentLocked returns the finished ring newest first.
func (t *jobTable) recentLocked() []*Explain {
	var out []*Explain
	for i := 1; i <= explainRing; i++ {
		if e := t.done[(t.next-i+explainRing)%explainRing]; e != nil {
			out = append(out, e)
		}
	}
	return out
}

// List returns the live jobs (by sequence) and the finished ring
// (newest first), as copies.
func (t *jobTable) List() (active, recent []Explain) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range t.active {
		active = append(active, *e)
	}
	sort.Slice(active, func(i, j int) bool { return active[i].Seq < active[j].Seq })
	for _, e := range t.recentLocked() {
		recent = append(recent, *e)
	}
	return active, recent
}

// Get finds a report by job id, or — when no job id matches — the most
// recent report carrying the given trace id, so a client can look a job
// up by either handle.
func (t *jobTable) Get(id string) (Explain, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.active[id]; ok {
		return *e, true
	}
	var byTrace *Explain
	for _, e := range t.recentLocked() {
		if e.JobID == id {
			return *e, true
		}
		if byTrace == nil && e.TraceID != "" && e.TraceID == id {
			byTrace = e
		}
	}
	for _, e := range t.active {
		if e.TraceID != "" && e.TraceID == id && (byTrace == nil || e.Seq > byTrace.Seq) {
			byTrace = e
		}
	}
	if byTrace != nil {
		return *byTrace, true
	}
	return Explain{}, false
}
