// Package service is the long-lived serving layer of the repository:
// the msrnet-job/v1 request/response schema, a bounded job queue
// feeding a worker pool with per-job deadlines and panic isolation, and
// an LRU result cache keyed by the canonical content hash of the net
// plus its options. Command msrnetd wires it to a listener together
// with the internal/obs/export surface; see DESIGN.md §8.
package service

import (
	"fmt"
	"strings"

	"msrnet/internal/core"
	"msrnet/internal/netio"
)

// SchemaVersion identifies the wire schema. Requests must carry it;
// responses echo it.
const SchemaVersion = "msrnet-job/v1"

// Request is the body of POST /v1/jobs: one or more nets to evaluate.
type Request struct {
	Version string `json:"version"`
	Jobs    []Job  `json:"jobs"`
	// Explain asks for a per-job msrnet-explain/v1 report on every
	// result (also settable as ?explain=1 on the URL). Reports are
	// per-request decoration: they carry trace-scoped identity and are
	// never part of the cache key or the cached value.
	Explain bool `json:"explain,omitempty"`
	// Profile additionally asks for the msrnet-solveprof/v1
	// candidate-lifecycle waste profile on every optimize result (also
	// ?profile=1). Profile implies Explain: the profile rides on the
	// explain report. A profiled request always recomputes — a cached
	// result has no lifecycle to attribute — and, like the explain, the
	// profile is stripped before the result enters the cache.
	Profile bool `json:"profile,omitempty"`
}

// Job is one net plus what to compute on it.
type Job struct {
	// ID is an opaque client label echoed on the result. Optional; a
	// batch index is used when empty.
	ID string `json:"id,omitempty"`
	// Mode selects the computation: "ard" (the linear-time augmented
	// RC-diameter of the unoptimized net, §III), "msri" (the optimal
	// repeater-insertion dynamic program, §IV) or "both".
	Mode string `json:"mode"`
	// Net is the topology plus technology, in the netio on-disk form.
	Net netio.NetFile `json:"net"`
	// Options tunes the msri run; ignored in mode "ard".
	Options JobOptions `json:"options,omitempty"`
}

// JobOptions mirrors the msri command-line surface.
type JobOptions struct {
	// Optimize selects what the DP assigns: "repeaters" (default),
	// "sizing" or "both".
	Optimize string `json:"optimize,omitempty"`
	// Spec, when positive, asks for the min-cost solution with
	// ARD ≤ Spec ns (Problem 2.1) instead of the min-ARD solution.
	Spec float64 `json:"spec,omitempty"`
	// WireWidths enables wire sizing over the listed width factors.
	WireWidths []float64 `json:"wire_widths,omitempty"`
	// IncludeSelf counts u==v source/sink pairs in the ARD.
	IncludeSelf bool `json:"include_self,omitempty"`
	// The retired "parallel" and "pruner" options are still accepted
	// and ignored: the decoder skips unknown fields, the DP is serial,
	// and it always prunes with the divide-and-conquer MFS.
}

// Response is the body of a successful POST /v1/jobs: one result per
// job, in request order.
type Response struct {
	Version string   `json:"version"`
	Results []Result `json:"results"`
}

// Result statuses.
const (
	StatusOK    = "ok"
	StatusError = "error"
)

// Error codes carried on failed results and error bodies.
const (
	ErrBadRequest       = "bad_request"       // malformed request envelope or net
	ErrQueueFull        = "queue_full"        // backpressure: retry later
	ErrDeadlineExceeded = "deadline_exceeded" // per-job deadline hit
	ErrInternal         = "internal"          // panic or other fault isolated to the job
	ErrSpecUnmet        = "spec_unmet"        // no solution meets the requested timing spec
	ErrShuttingDown     = "shutting_down"     // daemon is draining
	ErrShedLoad         = "shed_load"         // job spent its deadline queued; resubmit for a fresh budget
	ErrUnauthorized     = "unauthorized"      // missing or unknown API key (multi-tenant daemons)
	ErrQuotaExceeded    = "quota_exceeded"    // per-tenant quota hit; honor the Retry-After header
)

// retryableCode reports whether a failure code describes a transient
// condition: resubmitting the identical job (safe — jobs are
// idempotent, keyed by content hash) may succeed. Client-caused
// failures (bad_request, spec_unmet) are deterministic and not
// retryable.
func retryableCode(code string) bool {
	switch code {
	case ErrDeadlineExceeded, ErrShedLoad, ErrInternal, ErrQueueFull, ErrShuttingDown, ErrQuotaExceeded:
		return true
	}
	return false
}

// Result is the outcome for one job.
type Result struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	// Code and Error describe the failure when Status is "error".
	Code  string `json:"code,omitempty"`
	Error string `json:"error,omitempty"`
	// Retryable marks a failure as transient: resubmitting the same job
	// is safe (jobs are idempotent by content hash) and may succeed.
	Retryable bool `json:"retryable,omitempty"`
	// Cached reports that the result was served from the LRU cache.
	Cached bool `json:"cached,omitempty"`
	// Degraded reports that the optimizer fell back to coarse (ε-relaxed)
	// pruning to meet the job deadline; DegradedReason says why. The
	// result is complete and valid but its ARD may exceed the exact
	// optimum by the documented bound (see OptResult.CoarseEps). Degraded
	// results are never cached — a retry with more headroom recomputes
	// exactly.
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	// NetKey is the canonical content hash of the net (the net half of
	// the cache key), so clients can correlate identical nets.
	NetKey string `json:"net_key,omitempty"`

	ARD *ARDResult `json:"ard,omitempty"`
	Opt *OptResult `json:"opt,omitempty"`

	// Explain is the per-job solve report, present only when the request
	// asked for one (Request.Explain / ?explain=1). The same report is
	// retrievable later at GET /debug/jobs/{job_id}.
	Explain *Explain `json:"explain,omitempty"`

	// Client is stamped by internal/client (never by the daemon): the
	// retry work this result cost — attempts, job-retry rounds and total
	// backoff slept.
	Client *ClientInfo `json:"client,omitempty"`
}

// ClientInfo is the client-side delivery report attached to a Result
// by internal/client.
type ClientInfo struct {
	// Attempts counts HTTP submissions that carried this job (first try
	// included).
	Attempts int `json:"attempts"`
	// Rounds counts job-level retry rounds that resubmitted this job.
	Rounds int `json:"rounds,omitempty"`
	// BackoffMs is the total backoff slept before submissions carrying
	// this job.
	BackoffMs float64 `json:"backoff_ms,omitempty"`
	// TraceID is the correlation ID the client sent on the submission.
	TraceID string `json:"trace_id,omitempty"`
}

// ARDResult reports the unoptimized augmented RC-diameter.
type ARDResult struct {
	ARD      float64 `json:"ard_ns"`
	CritSrc  string  `json:"crit_src,omitempty"`
	CritSink string  `json:"crit_sink,omitempty"`
}

// OptResult reports the dynamic program's outcome: the full Pareto
// suite, the chosen solution and its concrete assignment.
type OptResult struct {
	Suite  []SuitePoint         `json:"suite"`
	Chosen SuitePoint           `json:"chosen"`
	Assign netio.AssignmentJSON `json:"assignment"`
	Stats  core.Stats           `json:"stats"`
	// CoarseEps is the dominance relaxation the degraded run used (only
	// set when the carrying Result is Degraded). The reported ARD is at
	// most CoarseEps×Stats.PruneCalls above the exact optimum.
	CoarseEps float64 `json:"coarse_eps,omitempty"`
}

// SuitePoint is one point of the cost/ARD tradeoff frontier.
type SuitePoint struct {
	Cost      float64 `json:"cost"`
	ARD       float64 `json:"ard_ns"`
	Repeaters int     `json:"repeaters"`
}

// ErrorBody is the structured body of a non-200 response.
type ErrorBody struct {
	Version string `json:"version"`
	Code    string `json:"code"`
	Error   string `json:"error"`
	// Cause carries the msrnet-error/v1 taxonomy code (see
	// internal/validate) when the failure traces to net or technology
	// validation — machine-readable, so clients can branch without
	// parsing Error.
	Cause string `json:"cause,omitempty"`
}

// Validate checks the request envelope (not the nets — decode errors
// surface per job at submission).
func (r *Request) Validate() error {
	if r.Version != SchemaVersion {
		return fmt.Errorf("unsupported version %q (want %q)", r.Version, SchemaVersion)
	}
	if len(r.Jobs) == 0 {
		return fmt.Errorf("empty job list")
	}
	for i := range r.Jobs {
		if err := r.Jobs[i].validate(); err != nil {
			return fmt.Errorf("job %s: %w", r.Jobs[i].label(i), err)
		}
	}
	return nil
}

func (j *Job) validate() error {
	switch j.Mode {
	case "ard", "msri", "both":
	default:
		return fmt.Errorf("unknown mode %q (want ard, msri or both)", j.Mode)
	}
	switch j.Options.Optimize {
	case "", "repeaters", "sizing", "both":
	default:
		return fmt.Errorf("unknown optimize %q (want repeaters, sizing or both)", j.Options.Optimize)
	}
	return nil
}

// label names the job in errors and results: the client ID, or the
// batch index when absent.
func (j *Job) label(i int) string {
	if j.ID != "" {
		return j.ID
	}
	return fmt.Sprintf("#%d", i)
}

// cacheKey derives the result-cache key: the canonical content hash of
// the net joined with a rendering of everything else that determines
// the result. Two jobs collide exactly when they are guaranteed to
// produce identical results — so defaults are normalized ("" and
// "repeaters" collide) but WireWidths order is preserved (option order
// can break ties in the DP). The literal "pruner=divide" is kept from
// when the MFS implementation was a job option, so keys stored before
// its retirement still match.
func (j *Job) cacheKey(netKey string) string {
	var b strings.Builder
	b.WriteString(netKey)
	fmt.Fprintf(&b, "|mode=%s", j.Mode)
	if j.Mode != "ard" {
		fmt.Fprintf(&b, "|opt=%s|spec=%g|pruner=divide", j.optimize(), j.Options.Spec)
		if len(j.Options.WireWidths) > 0 {
			fmt.Fprintf(&b, "|widths=%v", j.Options.WireWidths)
		}
	}
	fmt.Fprintf(&b, "|self=%t", j.Options.IncludeSelf)
	return b.String()
}

func (j *Job) optimize() string {
	if j.Options.Optimize == "" {
		return "repeaters"
	}
	return j.Options.Optimize
}
