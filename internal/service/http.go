package service

import (
	"context"
	"encoding/json"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"time"

	"msrnet/internal/buildinfo"
	"msrnet/internal/cluster"
	"msrnet/internal/obs/export"
	"msrnet/internal/obs/recorder"
	"msrnet/internal/obs/reqctx"
)

// maxRequestBytes bounds a request body; a batch of a few hundred
// multi-thousand-node nets fits comfortably.
const maxRequestBytes = 64 << 20

// Handler returns the daemon's full HTTP surface on one mux:
//
//	POST /v1/jobs          msrnet-job/v1 batch optimization (?explain=1, ?profile=1)
//	GET  /v1/recovered     WAL-replayed jobs; fetching done results acks them (?keep=1 to peek)
//	GET  /readyz           readiness: 503 while draining or saturated
//	GET  /debug/jobs       live + recent per-job explain reports
//	GET  /debug/jobs/{id}  one report, by job id or trace id
//	GET  /debug/trace      the shared ring tracer as Chrome trace JSON
//	GET  /debug/recorder   flight-recorder ring + SLO rule state (?n=…)
//	POST /debug/dump       force a postmortem bundle; returns its path
//	GET  /version          msrnet-build/v1 build identity of the binary
//	GET  /metrics          Prometheus text exposition (includes svc/* series)
//	GET  /debug/vars, /debug/pprof/*, /healthz   (internal/obs/export)
//	/cluster/*             gossip, membership, shard cache (clustered daemons)
//
// /healthz (liveness) keeps answering 200 throughout a drain; only
// /readyz flips.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", d.handleJobs)
	mux.HandleFunc("GET /v1/recovered", d.handleRecovered)
	mux.HandleFunc("GET /readyz", d.handleReadyz)
	mux.HandleFunc("GET /version", handleVersion)
	mux.HandleFunc("GET /debug/jobs", d.handleJobList)
	mux.HandleFunc("GET /debug/jobs/{id}", d.handleJobGet)
	mux.HandleFunc("GET /debug/trace", d.handleTrace)
	mux.HandleFunc("GET /debug/spans/{id}", d.handleSpans)
	mux.HandleFunc("GET /debug/recorder", d.handleRecorder)
	mux.HandleFunc("POST /debug/dump", d.handleDump)
	if d.cfg.Cluster != nil {
		mux.Handle("/cluster/", cluster.Handler(d.cfg.Cluster))
	}
	export.Register(mux, d.reg)
	return mux
}

func (d *Daemon) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, ErrBadRequest, "POST required")
		return
	}
	var req Request
	body := http.MaxBytesReader(w, r.Body, maxRequestBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, ErrBadRequest, "decode request: "+err.Error())
		return
	}
	if r.URL.Query().Get("explain") == "1" {
		req.Explain = true
	}
	if r.URL.Query().Get("profile") == "1" {
		req.Profile = true
	}
	ctx := WithAPIKey(r.Context(), r.Header.Get(reqctx.HeaderAPIKey))
	// A work-stolen submission arrives with its forward provenance on
	// the X-Msrnet-Forward-* headers: the hop count caps re-forwarding
	// and the origin shows up as forwarded_from on explain reports.
	if h := r.Header.Get(cluster.HeaderForwardHops); h != "" {
		hops, err := strconv.Atoi(h)
		if err != nil || hops < 0 {
			writeError(w, http.StatusBadRequest, ErrBadRequest, "bad "+cluster.HeaderForwardHops+": want a non-negative integer")
			return
		}
		ctx = withForwardMeta(ctx, cluster.ForwardMeta{
			Hops: hops, From: cluster.ID(r.Header.Get(cluster.HeaderForwardFrom)),
			ParentSpan: r.Header.Get(cluster.HeaderForwardSpan),
		})
	}
	resp, serr := d.Submit(ctx, &req)
	if serr != nil {
		// Both backpressure rejections are retryable with a hint: 429
		// (queue full, or a per-tenant quota with ITS OWN deficit-derived
		// wait) and 503 (draining — a rolling restart, so another peer or
		// the same one post-restart will take the retry).
		if serr.Status == http.StatusTooManyRequests || serr.Status == http.StatusServiceUnavailable {
			secs := int64(1)
			if serr.RetryAfter > time.Second {
				secs = int64(serr.RetryAfter / time.Second)
			}
			w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		}
		writeErrorBody(w, serr.Status, ErrorBody{
			Version: SchemaVersion, Code: serr.Code, Error: serr.Msg, Cause: serr.Cause,
		})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		d.log.WarnContext(r.Context(), "response write failed", "err", err)
	}
}

// handleVersion serves the binary's msrnet-build/v1 identity.
func handleVersion(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(buildinfo.Get())
}

func (d *Daemon) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ok, reason := d.Ready()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !ok {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("not ready: " + reason + "\n"))
		return
	}
	w.Write([]byte("ok\n"))
}

// jobListBody is the JSON shape of GET /debug/jobs.
type jobListBody struct {
	Schema string    `json:"schema"`
	Active []Explain `json:"active,omitempty"`
	Recent []Explain `json:"recent,omitempty"`
}

func (d *Daemon) handleJobList(w http.ResponseWriter, r *http.Request) {
	active, recent := d.table.List()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(jobListBody{Schema: ExplainSchema, Active: active, Recent: recent})
}

func (d *Daemon) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, ok := d.table.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, ErrBadRequest, "no job or trace "+id+" in the explain window")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(e)
}

func (d *Daemon) handleTrace(w http.ResponseWriter, r *http.Request) {
	if d.cfg.Tracer == nil {
		writeError(w, http.StatusNotFound, ErrBadRequest, "no ring tracer: this daemon was built without Config.Tracer")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// ?trace_id= narrows the export to events stamped with that request's
	// trace ID — the single-job view of the shared ring.
	if err := d.cfg.Tracer.WriteJSONFilter(w, r.URL.Query().Get("trace_id")); err != nil {
		d.log.WarnContext(r.Context(), "trace write failed", "err", err)
	}
}

// handleSpans serves GET /debug/spans/{traceID}: this process's spans
// for one trace as a deterministic msrnet-spans/v1 body. The fleet
// collector (msrnetctl -trace) fans this out over the membership and
// stitches the exports into one cross-process tree.
func (d *Daemon) handleSpans(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	body, ok := d.cfg.Spans.ExportJSON(id)
	if !ok {
		writeError(w, http.StatusNotFound, ErrBadRequest, "no spans for trace "+id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// handleRecorder serves the live flight-recorder state: the sampled
// ring (bounded by ?n=, newest-last) and each SLO rule's evaluation.
func (d *Daemon) handleRecorder(w http.ResponseWriter, r *http.Request) {
	if d.cfg.Recorder == nil {
		writeError(w, http.StatusNotFound, ErrBadRequest, "no flight recorder: this daemon was built without Config.Recorder")
		return
	}
	n := 0
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 0 {
			writeError(w, http.StatusBadRequest, ErrBadRequest, "bad n: want a non-negative integer")
			return
		}
		n = parsed
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(d.cfg.Recorder.State(n))
}

// handleDump forces a postmortem bundle (reason "manual"), bypassing
// the automatic-trigger cooldown, and returns the bundle path.
func (d *Daemon) handleDump(w http.ResponseWriter, r *http.Request) {
	if d.cfg.Recorder == nil {
		writeError(w, http.StatusNotFound, ErrBadRequest, "no flight recorder: this daemon was built without Config.Recorder")
		return
	}
	dir, err := d.cfg.Recorder.Trigger(recorder.ReasonManual, "POST /debug/dump from "+r.RemoteAddr)
	if err != nil {
		writeError(w, http.StatusInternalServerError, ErrInternal, "postmortem capture failed: "+err.Error())
		return
	}
	d.log.InfoContext(r.Context(), "postmortem bundle written", "bundle", dir, "reason", recorder.ReasonManual)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"schema": recorder.BundleSchema, "bundle": dir})
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeErrorBody(w, status, ErrorBody{Version: SchemaVersion, Code: code, Error: msg})
}

func writeErrorBody(w http.ResponseWriter, status int, body ErrorBody) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

// HTTPServer is the daemon's bound listener. Shutdown stops accepting,
// waits for in-flight requests (whose jobs it therefore drains), then
// closes the daemon itself.
type HTTPServer struct {
	d   *Daemon
	ln  net.Listener
	srv *http.Server
}

// Addr reports the bound address (useful with ":0").
func (s *HTTPServer) Addr() net.Addr { return s.ln.Addr() }

// StartDrain flips the daemon to draining (readyz 503, admission
// closed) while the listener keeps serving — call it a grace period
// before Shutdown so load balancers observe the transition.
func (s *HTTPServer) StartDrain() { s.d.StartDrain() }

// Shutdown performs the graceful sequence: mark not-ready, stop the
// listener, wait for in-flight requests, then drain the worker pool.
func (s *HTTPServer) Shutdown(ctx context.Context) error {
	s.d.StartDrain()
	err := s.srv.Shutdown(ctx)
	if cerr := s.d.Close(ctx); err == nil {
		err = cerr
	}
	return err
}

// Serve binds addr and serves the daemon's Handler with the standard
// access log, under the trace-propagation middleware: every request
// gets its X-Msrnet-Trace-Id (accepted or generated) on the context,
// so handler and job logs carry trace_id when logger uses
// reqctx.Handler. The server runs on its own goroutine; the caller
// owns the Shutdown.
func Serve(addr string, d *Daemon, logger *slog.Logger) (*HTTPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return ServeListener(ln, d, logger), nil
}

// ServeListener is Serve on an already-bound listener. A clustered
// daemon advertises its base URL as its fleet identity, so callers
// that need the address before the daemon exists (tests, or a future
// systemd socket activation) bind first and hand the listener over.
func ServeListener(ln net.Listener, d *Daemon, logger *slog.Logger) *HTTPServer {
	if logger == nil {
		logger = slog.Default()
	}
	srv := &http.Server{
		Handler:           reqctx.Middleware(export.LogRequests(logger, d.Handler())),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			logger.Error("msrnetd server failed", "addr", ln.Addr().String(), "err", err)
		}
	}()
	logger.Info("msrnetd listening", "addr", ln.Addr().String(),
		"endpoints", []string{"/v1/jobs", "/readyz", "/debug/jobs", "/debug/trace", "/debug/recorder", "/debug/dump", "/metrics", "/debug/vars", "/debug/pprof/", "/healthz"})
	return &HTTPServer{d: d, ln: ln, srv: srv}
}
