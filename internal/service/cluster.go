package service

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"

	"msrnet/internal/cluster"
	"msrnet/internal/obs/reqctx"
)

// This file is the daemon side of internal/cluster (DESIGN.md §13):
// the Local adapter that serves inbound cluster traffic (shard-cache
// get/put, forwarded submissions, health/load for gossip), the shard-
// cache routing on the submit path, and the work-stealing forward that
// turns local queue saturation into a hop to the least-loaded peer.

// clusterLocal adapts the daemon to cluster.Local. Cache values cross
// the wire as the JSON of the stored (stripped) Result, so a remote hit
// decodes into exactly what a local hit returns.
type clusterLocal struct {
	d *Daemon
}

func (cl clusterLocal) CacheGet(key string) ([]byte, bool) {
	res, ok := cl.d.cache.Get(key)
	if !ok {
		return nil, false
	}
	val, err := json.Marshal(res)
	if err != nil {
		cl.d.log.Warn("shard cache encode failed", "key", key, "err", err)
		return nil, false
	}
	return val, true
}

func (cl clusterLocal) CachePut(key string, val []byte) {
	var res Result
	if err := json.Unmarshal(val, &res); err != nil {
		cl.d.log.Warn("shard cache put rejected: bad value", "key", key, "err", err)
		return
	}
	// Only clean successes are cacheable — the same rule the local put
	// path applies. A peer cannot push a degraded or failed result into
	// our shard.
	if res.Status != StatusOK || res.Degraded {
		return
	}
	cl.d.cache.Put(key, cacheable(res))
}

func (cl clusterLocal) Submit(ctx context.Context, body []byte, meta cluster.ForwardMeta) ([]byte, int) {
	// Submit mints a trace ID if the sender forwarded none.
	ctx = reqctx.WithTraceID(withForwardMeta(ctx, meta), meta.TraceID)
	ctx = WithAPIKey(ctx, meta.APIKey)
	var req Request
	if err := json.Unmarshal(body, &req); err != nil {
		return marshalErrorBody(ErrorBody{Version: SchemaVersion, Code: ErrBadRequest,
			Error: "decode forwarded request: " + err.Error()}), http.StatusBadRequest
	}
	resp, serr := cl.d.Submit(ctx, &req)
	if serr != nil {
		return marshalErrorBody(ErrorBody{Version: SchemaVersion, Code: serr.Code,
			Error: serr.Msg, Cause: serr.Cause}), serr.Status
	}
	out, err := json.Marshal(resp)
	if err != nil {
		return marshalErrorBody(ErrorBody{Version: SchemaVersion, Code: ErrInternal,
			Error: "encode forwarded response: " + err.Error()}), http.StatusInternalServerError
	}
	return out, http.StatusOK
}

func (cl clusterLocal) Status() (bool, int64) {
	ready, _ := cl.d.Ready()
	cl.d.mu.Lock()
	load := int64(cl.d.cfg.QueueDepth - cl.d.free)
	cl.d.mu.Unlock()
	return ready, load
}

func marshalErrorBody(body ErrorBody) []byte {
	b, err := json.Marshal(body)
	if err != nil {
		return []byte(`{"version":"` + SchemaVersion + `","code":"` + ErrInternal + `","error":"encode error body"}`)
	}
	return b
}

// forwardKey carries a forwarded submission's provenance on the request
// context: the HTTP layer parses it off the X-Msrnet-Forward-* headers,
// the in-memory transport attaches it directly.
type forwardKey struct{}

func withForwardMeta(ctx context.Context, meta cluster.ForwardMeta) context.Context {
	return context.WithValue(ctx, forwardKey{}, meta)
}

func forwardMetaFrom(ctx context.Context) cluster.ForwardMeta {
	meta, _ := ctx.Value(forwardKey{}).(cluster.ForwardMeta)
	return meta
}

// stampCluster marks a report with its fleet provenance: which member
// is answering, and which member handed the batch over when the
// submission arrived by work-stealing.
func (d *Daemon) stampCluster(e *Explain, meta cluster.ForwardMeta) {
	if n := d.cfg.Cluster; n != nil {
		e.ServedBy = string(n.Self().ID)
	}
	if meta.From != "" {
		e.ForwardedFrom = string(meta.From)
	}
}

// defaultForwardHops caps work-stealing chains when Config.ForwardHops
// is zero: one steal plus one re-steal, then the fleet answers 429.
const defaultForwardHops = 2

func (d *Daemon) forwardHops() int {
	if d.cfg.ForwardHops > 0 {
		return d.cfg.ForwardHops
	}
	return defaultForwardHops
}

// shardLookup consults the cluster shard cache after a local miss: the
// key's home peer (by the net's content hash) answers a single-hop get.
// ok is false when the daemon is clusterless, the home peer is this
// daemon (then the local miss was authoritative), or the hop missed or
// failed — errors degrade to a miss and the job solves locally.
func (d *Daemon) shardLookup(ctx context.Context, netKey, key string) (Result, cluster.ID, bool) {
	n := d.cfg.Cluster
	if n == nil {
		return Result{}, "", false
	}
	owner, ok := n.Owner(netKey)
	if !ok || n.IsSelf(owner.ID) {
		return Result{}, "", false
	}
	_, sp := d.cfg.Spans.Start(ctx, "cache/remote_get")
	sp.SetPeer(string(owner.ID))
	val, ok := n.CacheGet(ctx, owner, key)
	sp.Set("hit", strconv.FormatBool(ok))
	sp.End()
	if !ok {
		return Result{}, "", false
	}
	var res Result
	if err := json.Unmarshal(val, &res); err != nil {
		d.log.WarnContext(ctx, "shard cache decode failed", "owner", owner.ID, "key", key, "err", err)
		return Result{}, "", false
	}
	return res, owner.ID, true
}

// shardStore replicates a freshly computed cacheable result to the
// key's home peer, so the next submission of this net — to any fleet
// member — hits on one hop. Best effort: a down owner costs nothing but
// the local copy staying the only one.
func (d *Daemon) shardStore(ctx context.Context, netKey, key string, stored Result) {
	n := d.cfg.Cluster
	if n == nil {
		return
	}
	owner, ok := n.Owner(netKey)
	if !ok || n.IsSelf(owner.ID) {
		return
	}
	val, err := json.Marshal(stored)
	if err != nil {
		d.log.WarnContext(ctx, "shard cache encode failed", "key", key, "err", err)
		return
	}
	_, sp := d.cfg.Spans.Start(ctx, "cache/remote_put")
	sp.SetPeer(string(owner.ID))
	defer sp.End()
	if !n.CachePut(ctx, owner, key, val) {
		d.log.WarnContext(ctx, "shard cache put failed; local copy is the fallback",
			"owner", owner.ID, "key", key)
	}
}

// tryForward is the work-stealing path: a batch the local queue cannot
// admit (saturation, draining) is re-submitted whole to the least-loaded
// ready peer instead of bouncing to the client, as long as the hop cap
// allows. It reports whether the forward produced the response; on any
// failure the caller falls back to the original rejection, so stealing
// never makes an answer worse — only a 429/503 into a 200.
func (d *Daemon) tryForward(ctx context.Context, req *Request, pending []*task, results []Result, cause *SubmitError) (*Response, bool) {
	n := d.cfg.Cluster
	if n == nil || len(pending) == 0 {
		return nil, false
	}
	if cause.Code != ErrQueueFull && cause.Code != ErrShuttingDown {
		return nil, false
	}
	meta := forwardMetaFrom(ctx)
	if meta.Hops >= d.forwardHops() {
		return nil, false
	}
	var exclude []cluster.ID
	if meta.From != "" {
		exclude = append(exclude, meta.From)
	}
	peer, ok := n.LeastLoaded(exclude...)
	if !ok {
		return nil, false
	}
	// Only the jobs that actually need computing travel; local cache
	// hits in the same batch stay answered. Labels are pinned so the
	// peer's results and explain reports carry the client's names.
	sub := Request{Version: SchemaVersion, Jobs: make([]Job, len(pending)),
		Explain: req.Explain, Profile: req.Profile}
	for i, t := range pending {
		sub.Jobs[i] = *t.job
		if sub.Jobs[i].ID == "" {
			sub.Jobs[i].ID = t.label
		}
	}
	body, err := json.Marshal(&sub)
	if err != nil {
		return nil, false
	}
	// The hop span covers the remote round trip; its reference travels
	// with the forward so the peer's submit span links under it and the
	// stitched trace shows the hop from both sides.
	_, hop := d.cfg.Spans.Start(ctx, "forward")
	hop.SetPeer(string(peer.ID))
	out := cluster.ForwardMeta{Hops: meta.Hops + 1, From: n.Self().ID,
		TraceID: reqctx.TraceID(ctx), APIKey: apiKeyFrom(ctx), ParentSpan: hop.Ref()}
	respBody, status, ferr := n.Forward(ctx, peer, body, out)
	hop.End()
	if ferr != nil || status != http.StatusOK {
		d.log.WarnContext(ctx, "forward failed; falling back to rejection",
			"peer", peer.ID, "status", status, "err", ferr, "cause", cause.Code)
		return nil, false
	}
	var resp Response
	if err := json.Unmarshal(respBody, &resp); err != nil || len(resp.Results) != len(pending) {
		d.log.WarnContext(ctx, "forward response unusable; falling back to rejection",
			"peer", peer.ID, "err", err, "results", len(resp.Results), "want", len(pending))
		return nil, false
	}
	d.forwarded.Add(int64(len(pending)))
	for i, t := range pending {
		t.cancel()
		e := d.table.detach(t.jid)
		e.ServedBy = string(peer.ID)
		d.retire(e, OutcomeForwarded)
		results[t.idx] = resp.Results[i]
	}
	d.log.InfoContext(ctx, "batch forwarded", "peer", peer.ID, "jobs", len(pending),
		"hops", out.Hops, "cause", cause.Code)
	return &Response{Version: SchemaVersion, Results: results}, true
}
