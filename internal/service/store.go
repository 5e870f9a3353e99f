package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"msrnet/internal/jobstore"
	"msrnet/internal/netio"
	"msrnet/internal/obs/reqctx"
)

// This file is the daemon side of internal/jobstore (DESIGN.md §14):
// the job path's durability hooks (accepted before dispatch, result
// before delivery, ack after delivery) and startup recovery — replayed
// pending jobs re-enter the scheduler, replayed results are served from
// GET /v1/recovered byte-identical to the original run.

// RecoveredSchema identifies the GET /v1/recovered body.
const RecoveredSchema = "msrnet-recovered/v1"

// walAccept durably appends one accepted record per task (one group
// commit for the whole batch) and stamps each task with its WAL UID.
// Tasks never reach a worker before their accepted record is on disk,
// so every result record has a durable parent.
func (d *Daemon) walAccept(ctx context.Context, pending []*task) error {
	if d.cfg.Store == nil {
		return nil
	}
	recs := make([]*jobstore.Record, len(pending))
	for i, t := range pending {
		job, err := json.Marshal(t.job)
		if err != nil {
			return fmt.Errorf("encode job %s: %w", t.label, err)
		}
		recs[i] = &jobstore.Record{
			Type: jobstore.TypeAccepted, Tenant: t.tn.cfg.Name, Label: t.label,
			TraceID: t.traceID, Key: t.key, NetKey: t.netKey, Job: job,
		}
	}
	if err := d.cfg.Store.Append(ctx, recs...); err != nil {
		return err
	}
	for i, t := range pending {
		t.walUID = recs[i].UID
	}
	return nil
}

// walResult persists a finished task's outcome. Successes are stored
// with their degradation flag — replay re-queues degraded results for
// an exact re-solve instead of serving the ε-relaxed answer forever.
// Terminal (non-retryable) failures are stored so replay does not burn
// a worker re-proving them; retryable failures are not, so replay
// retries them with a fresh budget. A failed append degrades durability
// (the job would replay as pending and re-solve), never the response.
func (d *Daemon) walResult(t *task) {
	if d.cfg.Store == nil || t.walUID == "" {
		return
	}
	if t.res.Status != StatusOK && t.res.Retryable {
		return
	}
	stored := t.res
	stored.Cached = false
	stored.Explain = nil
	body, err := json.Marshal(stored)
	if err != nil {
		d.log.Warn("wal: encode result failed", "job", t.jid, "uid", t.walUID, "err", err)
		return
	}
	rec := &jobstore.Record{Type: jobstore.TypeResult, UID: t.walUID,
		Result: body, Degraded: t.res.Degraded}
	// The job context may already be expired (deadline jobs); the WAL
	// append must still land — but keep the context's identities (trace
	// ID, span parent) so the append's spans join the job's trace.
	if err := d.cfg.Store.Append(context.WithoutCancel(t.ctx), rec); err != nil {
		d.log.Warn("wal: result append failed; job will replay as pending", "job", t.jid, "uid", t.walUID, "err", err)
	}
}

// walAck acknowledges delivered tasks: one group commit marking every
// durable job of the batch as handed to the client, which lets the next
// compaction drop them.
func (d *Daemon) walAck(ctx context.Context, pending []*task) {
	if d.cfg.Store == nil {
		return
	}
	var recs []*jobstore.Record
	for _, t := range pending {
		if t.walUID != "" {
			recs = append(recs, &jobstore.Record{Type: jobstore.TypeAck, UID: t.walUID})
		}
	}
	if len(recs) == 0 {
		return
	}
	if err := d.cfg.Store.Append(ctx, recs...); err != nil {
		d.log.Warn("wal: ack append failed; jobs will replay as done", "jobs", len(recs), "err", err)
	}
}

// RecoveredJob is one WAL-replayed job's state on GET /v1/recovered.
type RecoveredJob struct {
	// UID is the durable WAL identity ("w<seq>") — stable across
	// restarts, unlike job IDs.
	UID     string `json:"uid"`
	Tenant  string `json:"tenant,omitempty"`
	Label   string `json:"label"`
	TraceID string `json:"trace_id,omitempty"`
	NetKey  string `json:"net_key,omitempty"`
	// State is "pending" while the replayed job is queued or solving,
	// "done" once its result is available below.
	State string `json:"state"`
	// Resolved marks an entry whose pre-crash result was degraded and
	// has been re-queued for an exact re-solve (satellite: ε-relaxed
	// answers are never served forever).
	Resolved bool    `json:"degraded_resolve,omitempty"`
	Result   *Result `json:"result,omitempty"`
}

// recoveredBody is the JSON shape of GET /v1/recovered.
type recoveredBody struct {
	Schema    string         `json:"schema"`
	Recovered []RecoveredJob `json:"recovered"`
}

// recoveredTable holds replayed jobs until their results are fetched
// (and thereby acknowledged) via GET /v1/recovered.
type recoveredTable struct {
	mu   sync.Mutex
	jobs map[string]*RecoveredJob
	// order preserves accept order for stable listings.
	order []string
}

func newRecoveredTable() *recoveredTable {
	return &recoveredTable{jobs: map[string]*RecoveredJob{}}
}

func (rt *recoveredTable) add(j *RecoveredJob) {
	rt.mu.Lock()
	if _, dup := rt.jobs[j.UID]; !dup {
		rt.jobs[j.UID] = j
		rt.order = append(rt.order, j.UID)
	}
	rt.mu.Unlock()
}

// complete flips a pending entry to done with its computed result.
func (rt *recoveredTable) complete(uid string, res Result) {
	rt.mu.Lock()
	if j := rt.jobs[uid]; j != nil {
		r := res
		j.State, j.Result = "done", &r
	}
	rt.mu.Unlock()
}

// list returns the entries for one tenant ("" = all), in accept order.
func (rt *recoveredTable) list(tenant string) []RecoveredJob {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := []RecoveredJob{}
	for _, uid := range rt.order {
		j := rt.jobs[uid]
		if j == nil || (tenant != "" && j.Tenant != tenant) {
			continue
		}
		out = append(out, *j)
	}
	return out
}

// takeDone removes and returns the done entries for one tenant ("" =
// all) — the fetch-acknowledge step.
func (rt *recoveredTable) takeDone(tenant string) []*RecoveredJob {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var out []*RecoveredJob
	keep := rt.order[:0]
	for _, uid := range rt.order {
		j := rt.jobs[uid]
		if j == nil {
			continue
		}
		if j.State == "done" && (tenant == "" || j.Tenant == tenant) {
			out = append(out, j)
			delete(rt.jobs, uid)
			continue
		}
		keep = append(keep, uid)
	}
	rt.order = keep
	return out
}

// Recover feeds a WAL replay back into the daemon: entries with a
// durable exact result are restored as done (served from GET
// /v1/recovered, byte-identical to the original run, and warmed into
// the result cache); pending entries — never solved, or solved only
// degraded — are re-queued through the fair-share scheduler,
// slot-free so a large backlog cannot wedge fresh admissions. It
// returns (requeued, restored). Call it once, after New and before
// serving traffic.
func (d *Daemon) Recover(rep *jobstore.Replay) (requeued, restored int) {
	if rep == nil || len(rep.Entries) == 0 {
		return 0, 0
	}
	var tasks []*task
	for _, e := range rep.Entries {
		tn := d.tenantByName(e.Tenant)
		if !e.Pending() {
			var res Result
			if err := json.Unmarshal(e.Result, &res); err != nil {
				d.log.Warn("wal: stored result undecodable; ignoring entry", "uid", e.UID, "err", err)
				continue
			}
			d.rec.add(&RecoveredJob{UID: e.UID, Tenant: e.Tenant, Label: e.Label,
				TraceID: e.TraceID, NetKey: e.NetKey, State: "done", Result: &res})
			if res.Status == StatusOK && !res.Degraded && e.Key != "" {
				d.cache.Put(e.Key, cacheable(res))
			}
			restored++
			continue
		}
		t, err := d.replayTask(e, tn)
		if err != nil {
			// The job was validated at original admission, so this means
			// the WAL entry itself is damaged — surface it as a terminal
			// error result rather than dropping the job silently.
			d.log.Warn("wal: replayed job undecodable", "uid", e.UID, "err", err)
			d.rec.add(&RecoveredJob{UID: e.UID, Tenant: e.Tenant, Label: e.Label,
				TraceID: e.TraceID, NetKey: e.NetKey, State: "done",
				Result: &Result{ID: e.Label, Status: StatusError, Code: ErrBadRequest,
					Error: fmt.Sprintf("replayed job undecodable: %v", err)}})
			continue
		}
		d.rec.add(&RecoveredJob{UID: e.UID, Tenant: e.Tenant, Label: e.Label,
			TraceID: t.traceID, NetKey: e.NetKey, State: "pending", Resolved: e.Degraded})
		d.table.start(t.explain)
		tasks = append(tasks, t)
		requeued++
	}
	d.dispatch(tasks)
	d.cfg.Store.SetLive(int64(len(rep.Entries)))
	if requeued+restored > 0 {
		d.log.Info("wal: recovery complete", "requeued", requeued, "restored", restored,
			"torn", rep.Torn, "torn_tail", rep.TornTail)
	}
	return requeued, restored
}

// replayTask rebuilds a runnable task from a WAL entry, mirroring what
// Submit does for a fresh job.
func (d *Daemon) replayTask(e *jobstore.Entry, tn *tenantState) (*task, error) {
	var job Job
	if err := json.Unmarshal(e.Job, &job); err != nil {
		return nil, fmt.Errorf("decode job: %w", err)
	}
	tr, tech, err := netio.Decode(job.Net)
	if err != nil {
		return nil, fmt.Errorf("decode net: %w", err)
	}
	seq := d.seq.Add(1)
	jid := fmt.Sprintf("j%d", seq)
	// Replayed work re-enters the ORIGINAL trace: the replay root span
	// records under the trace ID persisted at admission, so a collector
	// stitching that trace sees the pre-crash spans (if any survived)
	// and the post-crash replay in one tree. An entry logged without
	// one gets a fresh ID, because a job's spans are its clock.
	ctx, traceID := reqctx.EnsureTraceID(reqctx.WithTraceID(reqctx.WithJobID(context.Background(), jid), e.TraceID))
	t := &task{job: &job, label: e.Label, netKey: e.NetKey, key: e.Key, tr: tr, tech: tech,
		traceID: traceID, jid: jid, seq: seq, tn: tn, walUID: e.UID, replayed: true,
		done: make(chan struct{})}
	t.explain = newExplain(t)
	ctx, rspan := d.cfg.Spans.Start(ctx, "replay")
	rspan.Set("wal_uid", e.UID)
	t.rspan = rspan
	t.ctx, t.cancel = d.jobContext(ctx)
	return t, nil
}

// handleRecovered serves GET /v1/recovered: the tenant's WAL-replayed
// jobs. Fetching is delivery: done results returned here are
// acknowledged in the WAL (compacted away on the next restart) and
// leave the table, unless ?keep=1 asks for a read-only peek.
func (d *Daemon) handleRecovered(w http.ResponseWriter, r *http.Request) {
	ctx := WithAPIKey(r.Context(), r.Header.Get(reqctx.HeaderAPIKey))
	tn, serr := d.tenantFor(ctx)
	if serr != nil {
		writeErrorBody(w, serr.Status, ErrorBody{Version: SchemaVersion, Code: serr.Code, Error: serr.Msg})
		return
	}
	scope := ""
	if d.authRequired {
		scope = tn.cfg.Name
	}
	body := recoveredBody{Schema: RecoveredSchema, Recovered: d.rec.list(scope)}
	if r.URL.Query().Get("keep") != "1" {
		if done := d.rec.takeDone(scope); len(done) > 0 {
			recs := make([]*jobstore.Record, len(done))
			for i, j := range done {
				recs[i] = &jobstore.Record{Type: jobstore.TypeAck, UID: j.UID}
			}
			if err := d.cfg.Store.Append(r.Context(), recs...); err != nil {
				d.log.Warn("wal: recovered-fetch ack failed", "jobs", len(recs), "err", err)
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(body)
}
