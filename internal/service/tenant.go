package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"time"

	"msrnet/internal/obs"
)

// This file is the multi-tenant admission and dispatch layer
// (DESIGN.md §14): API keys resolve callers to named tenants, per-tenant
// quotas (queue slots, nets/sec) bound each tenant at admission with a
// per-tenant Retry-After instead of global backpressure, and a stride
// (weighted fair-share) scheduler replaces the strict-FIFO job channel
// so a heavy tenant's backlog cannot starve a light one.

// TenantsSchema identifies the -tenants config file layout.
const TenantsSchema = "msrnet-tenants/v1"

// DefaultTenant is the implicit tenant of a daemon started without a
// tenants file: every caller, no API key required, no quotas.
const DefaultTenant = "default"

// TenantConfig is one tenant in the msrnet-tenants/v1 file.
type TenantConfig struct {
	// Name is the tenant's identity everywhere downstream: explain
	// reports, per-tenant metrics, WAL records, postmortem bundles.
	Name string `json:"name"`
	// APIKey authenticates the tenant (X-Msrnet-Api-Key). Required.
	APIKey string `json:"api_key"`
	// Weight is the tenant's fair-share of worker dispatch (default 1):
	// a weight-3 tenant drains three queued jobs for every one of a
	// weight-1 tenant while both have a backlog.
	Weight float64 `json:"weight,omitempty"`
	// QueueSlots bounds the tenant's queued-but-not-running jobs; 0
	// means bounded only by the global queue depth.
	QueueSlots int `json:"queue_slots,omitempty"`
	// NetsPerSec is the tenant's sustained admission rate in jobs per
	// second; 0 means unlimited. Enforced by a deficit token bucket, so
	// one oversized batch is admitted whole and paid off before the
	// next.
	NetsPerSec float64 `json:"nets_per_sec,omitempty"`
}

// tenantsFile is the on-disk shape of the -tenants config.
type tenantsFile struct {
	Schema  string         `json:"schema"`
	Tenants []TenantConfig `json:"tenants"`
}

// LoadTenants reads and validates a msrnet-tenants/v1 config file.
func LoadTenants(path string) ([]TenantConfig, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tenants: %w", err)
	}
	var f tenantsFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("tenants: decode %s: %w", path, err)
	}
	if f.Schema != TenantsSchema {
		return nil, fmt.Errorf("tenants: %s: schema %q (want %q)", path, f.Schema, TenantsSchema)
	}
	if len(f.Tenants) == 0 {
		return nil, fmt.Errorf("tenants: %s: empty tenant list", path)
	}
	names, keys := map[string]bool{}, map[string]bool{}
	for i := range f.Tenants {
		t := &f.Tenants[i]
		if t.Name == "" {
			return nil, fmt.Errorf("tenants: %s: tenant %d has no name", path, i)
		}
		if t.APIKey == "" {
			return nil, fmt.Errorf("tenants: %s: tenant %q has no api_key", path, t.Name)
		}
		if names[t.Name] {
			return nil, fmt.Errorf("tenants: %s: duplicate tenant name %q", path, t.Name)
		}
		if keys[t.APIKey] {
			return nil, fmt.Errorf("tenants: %s: tenant %q reuses another tenant's api_key", path, t.Name)
		}
		if t.Weight < 0 || t.QueueSlots < 0 || t.NetsPerSec < 0 {
			return nil, fmt.Errorf("tenants: %s: tenant %q has a negative quota", path, t.Name)
		}
		if t.Weight == 0 {
			t.Weight = 1
		}
		names[t.Name], keys[t.APIKey] = true, true
	}
	return f.Tenants, nil
}

// tenantState is one tenant's runtime half: its admission quotas and
// its stride-scheduler queue. All fields are guarded by Daemon.mu.
type tenantState struct {
	cfg TenantConfig

	// queue is the tenant's FIFO of admitted tasks; used counts its
	// slot-reserved (client-submitted, not WAL-recovered) members.
	queue []*task
	used  int

	// pass is the stride-scheduling virtual time: each dequeue advances
	// it by 1/weight, and the scheduler always serves the non-empty
	// queue with the smallest pass — weighted round-robin without
	// starvation.
	pass float64

	// Deficit token bucket for NetsPerSec: admission requires
	// tokens > 0 and then subtracts the whole batch, so tokens may go
	// negative (the deficit); Retry-After is the time for the bucket to
	// refill past zero.
	tokens   float64
	lastFill time.Time

	// Per-tenant observability: admission and completion counters plus
	// an end-to-end latency window, keyed svc/tenant/<name>/*.
	submitted, rejected, completed *obs.Counter
	latE2E                         *obs.WindowHist
}

// newTenantState builds the runtime state for one configured tenant.
func (d *Daemon) newTenantState(cfg TenantConfig) *tenantState {
	if cfg.Weight <= 0 {
		// LoadTenants defaults this, but Config.Tenants can be built by
		// hand; a zero weight would make the stride 1/w infinite.
		cfg.Weight = 1
	}
	name := cfg.Name
	return &tenantState{
		cfg:       cfg,
		tokens:    burstOf(cfg),
		lastFill:  time.Now(),
		submitted: d.reg.Counter("svc/tenant/" + name + "/jobs_submitted"),
		rejected:  d.reg.Counter("svc/tenant/" + name + "/jobs_rejected"),
		completed: d.reg.Counter("svc/tenant/" + name + "/jobs_completed"),
		latE2E:    d.reg.Window("svc/tenant/"+name+"/latency/e2e", 0, 0),
	}
}

// burstOf is the token-bucket capacity: one second of sustained rate,
// but at least one whole job so a slow tenant is never starved of its
// first admission.
func burstOf(cfg TenantConfig) float64 {
	return math.Max(cfg.NetsPerSec, 1)
}

// refillLocked credits tokens for the time since the last fill.
func (ts *tenantState) refillLocked(now time.Time) {
	if ts.cfg.NetsPerSec <= 0 {
		return
	}
	ts.tokens = math.Min(burstOf(ts.cfg),
		ts.tokens+now.Sub(ts.lastFill).Seconds()*ts.cfg.NetsPerSec)
	ts.lastFill = now
}

// retryAfterLocked is the whole-second wait for the bucket to refill
// past zero — the tenant's personal Retry-After, not a global guess.
func (ts *tenantState) retryAfterLocked() time.Duration {
	if ts.cfg.NetsPerSec <= 0 || ts.tokens > 0 {
		return time.Second
	}
	secs := (-ts.tokens + 1) / ts.cfg.NetsPerSec
	d := time.Duration(math.Ceil(secs)) * time.Second
	if d < time.Second {
		d = time.Second
	}
	return d
}

// apiKeyCtx carries the submission's API key (from X-Msrnet-Api-Key or
// a forwarded batch's metadata) across the HTTP boundary to Submit.
type apiKeyCtx struct{}

// WithAPIKey attaches the caller's API key to the request context; the
// HTTP layer and the cluster forward path both use it, and direct
// Submit callers (tests, embedders) may too.
func WithAPIKey(ctx context.Context, key string) context.Context {
	if key == "" {
		return ctx
	}
	return context.WithValue(ctx, apiKeyCtx{}, key)
}

func apiKeyFrom(ctx context.Context) string {
	key, _ := ctx.Value(apiKeyCtx{}).(string)
	return key
}

// tenantFor resolves the submission's tenant. Without a tenants file
// every caller is the unlimited default tenant; with one, a missing or
// unknown API key is a 401.
func (d *Daemon) tenantFor(ctx context.Context) (*tenantState, *SubmitError) {
	if !d.authRequired {
		return d.tenants[DefaultTenant], nil
	}
	key := apiKeyFrom(ctx)
	if key == "" {
		return nil, submitErr(http.StatusUnauthorized, ErrUnauthorized,
			"this daemon requires an API key (X-Msrnet-Api-Key)")
	}
	d.mu.Lock()
	ts := d.byKey[key]
	d.mu.Unlock()
	if ts == nil {
		return nil, submitErr(http.StatusUnauthorized, ErrUnauthorized, "unknown API key")
	}
	return ts, nil
}

// initTenants builds the tenant table at New: the configured tenants,
// or the implicit unlimited default when none are configured.
func (d *Daemon) initTenants(cfgs []TenantConfig) {
	d.tenants = map[string]*tenantState{}
	d.byKey = map[string]*tenantState{}
	if len(cfgs) == 0 {
		d.tenants[DefaultTenant] = d.newTenantState(TenantConfig{Name: DefaultTenant, Weight: 1})
		return
	}
	d.authRequired = true
	for _, cfg := range cfgs {
		ts := d.newTenantState(cfg)
		d.tenants[cfg.Name] = ts
		d.byKey[cfg.APIKey] = ts
	}
}

// tenantByName returns the state for a tenant name, falling back to a
// zero-quota dynamic entry for names that arrive from a WAL written
// under a different tenants file (recovery must not drop their jobs).
func (d *Daemon) tenantByName(name string) *tenantState {
	if name == "" {
		name = DefaultTenant
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	ts := d.tenants[name]
	if ts == nil {
		ts = d.newTenantState(TenantConfig{Name: name, Weight: 1})
		d.tenants[name] = ts
	}
	return ts
}

// reserve is the admission gate: under one lock it checks drain state,
// the global queue depth, the tenant's queue-slot quota and its rate
// bucket, then reserves the batch's slots. The whole batch is admitted
// or none of it — partial admission would make 429 retries recompute
// the admitted half.
func (d *Daemon) reserve(tn *tenantState, n int) *SubmitError {
	if n == 0 {
		return nil
	}
	if err := d.cfg.Faults.Fire(context.Background(), "svc/queue"); err != nil {
		return submitErr(http.StatusServiceUnavailable, ErrInternal, "queue: %v", err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed || d.draining.Load() {
		return submitErr(http.StatusServiceUnavailable, ErrShuttingDown, "daemon is draining")
	}
	if n > d.free {
		return submitErr(http.StatusTooManyRequests, ErrQueueFull,
			"queue full: %d jobs submitted, %d slots free (depth %d); retry later",
			n, d.free, d.cfg.QueueDepth)
	}
	if q := tn.cfg.QueueSlots; q > 0 && tn.used+n > q {
		se := submitErr(http.StatusTooManyRequests, ErrQuotaExceeded,
			"tenant %s queue quota exceeded: %d jobs submitted, %d of %d tenant slots free",
			tn.cfg.Name, n, q-tn.used, q)
		se.RetryAfter = time.Second
		return se
	}
	if tn.cfg.NetsPerSec > 0 {
		tn.refillLocked(time.Now())
		if tn.tokens <= 0 {
			se := submitErr(http.StatusTooManyRequests, ErrQuotaExceeded,
				"tenant %s rate quota exceeded: %.3g jobs/sec sustained; in deficit by %.1f jobs",
				tn.cfg.Name, tn.cfg.NetsPerSec, -tn.tokens)
			se.RetryAfter = tn.retryAfterLocked()
			return se
		}
		// Deficit accounting: the whole batch is admitted and paid off
		// over the following seconds, so batch submissions work at any
		// rate without per-job dribbling.
		tn.tokens -= float64(n)
	}
	d.free -= n
	tn.used += n
	d.queueDepth.Set(int64(d.cfg.QueueDepth - d.free))
	return nil
}

// unreserve rolls a reservation back (WAL append failed after reserve).
func (d *Daemon) unreserve(tn *tenantState, n int) {
	d.mu.Lock()
	d.free += n
	tn.used -= n
	d.queueDepth.Set(int64(d.cfg.QueueDepth - d.free))
	d.mu.Unlock()
}

// dispatch hands reserved (or recovered, slot-free) tasks to the stride
// scheduler. Tasks carry their tenant on t.tn.
func (d *Daemon) dispatch(ts []*task) {
	// Queue-wait spans open here — admission is done, a worker is not —
	// and close at dequeue in runTask. Outside d.mu: the span index has
	// its own lock.
	for _, t := range ts {
		_, t.qspan = d.cfg.Spans.Start(t.ctx, "queue")
	}
	d.mu.Lock()
	for _, t := range ts {
		tn := t.tn
		if len(tn.queue) == 0 {
			// An idling tenant re-enters at the scheduler's current
			// virtual time: its saved-up pass must not let it monopolize
			// the workers, nor its absence penalize it.
			tn.pass = math.Max(tn.pass, d.globalPass)
		}
		tn.queue = append(tn.queue, t)
		d.queued++
	}
	d.mu.Unlock()
	d.qcond.Broadcast()
}

// next blocks until a task is runnable and returns the fair-share pick:
// the front of the non-empty tenant queue with the smallest stride pass.
// It returns nil when the daemon is closed and every queue is empty —
// the worker-exit condition — and releases the task's queue slots as
// the old channel dequeue did.
func (d *Daemon) next() *task {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.queued == 0 {
		if d.closed {
			return nil
		}
		d.qcond.Wait()
	}
	var pick *tenantState
	for _, tn := range d.tenants {
		if len(tn.queue) > 0 && (pick == nil || tn.pass < pick.pass) {
			pick = tn
		}
	}
	t := pick.queue[0]
	pick.queue = pick.queue[1:]
	d.queued--
	d.globalPass = pick.pass
	pick.pass += 1 / pick.cfg.Weight
	if t.slotted {
		d.free++
		pick.used--
		d.queueDepth.Set(int64(d.cfg.QueueDepth - d.free))
	}
	return t
}

// tenantSnapshot is one tenant's runtime view in tenants.json of a
// postmortem bundle and in tests.
type tenantSnapshot struct {
	Name       string  `json:"name"`
	Weight     float64 `json:"weight"`
	QueueSlots int     `json:"queue_slots,omitempty"`
	NetsPerSec float64 `json:"nets_per_sec,omitempty"`
	Queued     int     `json:"queued"`
	SlotsUsed  int     `json:"slots_used"`
	Tokens     float64 `json:"tokens,omitempty"`
	Pass       float64 `json:"pass"`
	Submitted  int64   `json:"jobs_submitted"`
	Completed  int64   `json:"jobs_completed"`
	Rejected   int64   `json:"jobs_rejected"`
}

// tenantsBody is the JSON shape of the tenants.json bundle file.
type tenantsBody struct {
	Schema       string           `json:"schema"`
	AuthRequired bool             `json:"auth_required"`
	Tenants      []tenantSnapshot `json:"tenants"`
}

// TenantsState snapshots the tenancy runtime: the flight recorder
// captures it into postmortem bundles as tenants.json.
func (d *Daemon) TenantsState() any {
	d.mu.Lock()
	defer d.mu.Unlock()
	body := tenantsBody{Schema: TenantsSchema, AuthRequired: d.authRequired}
	for _, tn := range d.tenants {
		body.Tenants = append(body.Tenants, tenantSnapshot{
			Name: tn.cfg.Name, Weight: tn.cfg.Weight,
			QueueSlots: tn.cfg.QueueSlots, NetsPerSec: tn.cfg.NetsPerSec,
			Queued: len(tn.queue), SlotsUsed: tn.used,
			Tokens: tn.tokens, Pass: tn.pass,
			Submitted: tn.submitted.Value(), Completed: tn.completed.Value(),
			Rejected: tn.rejected.Value(),
		})
	}
	sortTenantSnapshots(body.Tenants)
	return body
}

func sortTenantSnapshots(s []tenantSnapshot) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].Name < s[j-1].Name; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
