// Command msrnetd is the long-running batch-optimization daemon: an
// HTTP/JSON service that accepts single nets or batches (schema
// msrnet-job/v1) for the linear-time ARD pass, the optimal
// repeater-insertion dynamic program, or both, runs them on a bounded
// worker pool with per-job deadlines and backpressure, and memoizes
// results in an LRU cache keyed by the canonical content hash of the
// net plus its options. See DESIGN.md §8 and the README's "Running the
// daemon" section.
//
// Usage:
//
//	msrnetd                                  # serve on :8383 with GOMAXPROCS workers
//	msrnetd -listen :9000 -workers 8 -queue 128 -cache 1024
//	msrnetd -job-timeout 10s                 # per-job deadline
//	msrnetd -metrics m.json -trace           # snapshot/report on exit
//
// The serving listener itself exposes /metrics, /debug/vars,
// /debug/pprof/* and /healthz next to /v1/jobs, so the daemon needs no
// second observability port. SIGINT/SIGTERM trigger a graceful drain:
// in-flight and queued jobs complete before exit.
//
// An always-on flight recorder samples the full observability surface
// into a bounded ring (-recorder-interval) and writes self-contained
// postmortem bundles (-postmortem-dir) on worker panics, SLO burn-rate
// alerts (-slo), SIGQUIT, or POST /debug/dump; inspect bundles with
// msrnetctl postmortem. See DESIGN.md §11.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"msrnet/internal/cliflags"
	"msrnet/internal/cluster"
	"msrnet/internal/faultinject"
	"msrnet/internal/jobstore"
	"msrnet/internal/obs/recorder"
	"msrnet/internal/obs/reqctx"
	"msrnet/internal/obs/spans"
	"msrnet/internal/service"
)

var (
	listen     = flag.String("listen", ":8383", "serve /v1/jobs plus /metrics, /debug/vars, /debug/pprof and /healthz on this address")
	workers    = flag.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS); each worker runs one job at a time, and each job's DP runs on one goroutine")
	queue      = flag.Int("queue", 0, "bounded job-queue depth (0 = 4×workers); full queue rejects with HTTP 429")
	jobTimeout = flag.Duration("job-timeout", 30*time.Second, "per-job deadline (0 = none)")
	cacheSize  = flag.Int("cache", 512, "LRU result-cache capacity in entries (0 = disable caching)")
	drain      = flag.Duration("drain-timeout", 30*time.Second, "how long a graceful shutdown may spend draining in-flight jobs")
	drainGrace = flag.Duration("drain-grace", 0, "on SIGTERM, keep serving for this long with /readyz failing (and admission closed) before the listener stops, so load balancers drain traffic first")
	headroom   = flag.Duration("degrade-headroom", 0, "deadline slice reserved for the coarse (ε-relaxed) fallback (0 = job-timeout/4, negative = disable degradation)")
	coarseEps  = flag.Float64("coarse-eps", 0, "dominance relaxation of degraded runs in ns (0 = default 0.02)")
	shedMargin = flag.Duration("shed-margin", 0, "shed jobs at dequeue whose remaining deadline is below this margin (0 = disable shedding)")
	faults     = flag.String("faults", "", "fault-injection spec for chaos testing, e.g. 'svc/worker:panic:0.1;svc/cache/get:error:0.5' (also via "+faultinject.EnvFaults+")")
	faultSeed  = flag.Int64("fault-seed", 1, "fault-injection RNG seed (also via "+faultinject.EnvSeed+")")
	recEvery   = flag.Duration("recorder-interval", recorder.DefaultInterval, "flight-recorder sampling interval; the in-memory ring keeps the last "+fmt.Sprint(recorder.DefaultCapacity)+" samples")
	clAddr     = flag.String("cluster-addr", "", "advertised base URL of THIS daemon (e.g. http://10.0.0.1:8383); enables fleet clustering — gossip membership, the cluster-wide shard cache and work-stealing (DESIGN.md §13)")
	clPeers    = flag.String("cluster-peers", "", "comma-separated base URLs of seed peers to join through (any live member works)")
	clEvery    = flag.Duration("cluster-interval", time.Second, "gossip round period")
	clHops     = flag.Int("cluster-forward-hops", 0, "work-stealing forward-chain cap (0 = default 2)")
	pmDir      = flag.String("postmortem-dir", "", "write postmortem bundles into this directory on worker panics, SLO burns, SIGQUIT or POST /debug/dump (empty = ring-only recorder, no bundles)")
	pmKeep     = flag.Int("postmortem-keep", recorder.DefaultMaxBundles, "bounded bundle retention: the oldest bundles beyond this count are deleted")
	sloSpec    = flag.String("slo", "", "SLO burn-rate rules, semicolon-separated, e.g. 'e2e-slow:p99:e2e/ok:500ms:1m;err-fast:error_rate:0.01:1m'; a firing rule triggers a postmortem bundle")
	walDir     = flag.String("wal-dir", "", "write-ahead job log directory: accepted jobs and results are persisted and replayed on restart, so a crash or kill -9 loses nothing (empty = no durability, as before)")
	walSegment = flag.Int64("wal-segment-bytes", 0, "WAL segment rotation size in bytes (0 = default 8 MiB)")
	tenantsCfg = flag.String("tenants", "", "msrnet-tenants/v1 config file: enables API-key auth, per-tenant quotas (queue slots, nets/sec, per-tenant Retry-After on 429) and weighted fair-share dispatch (DESIGN.md §14)")
	obsFlags   = cliflags.Register(flag.CommandLine,
		cliflags.Caps{AlwaysRegistry: true, AlwaysTracer: true, TraceEvents: true})
)

func main() {
	flag.Parse()
	run, err := obsFlags.Start()
	if err != nil {
		cliflags.Fatal("msrnetd", err)
	}
	run.Finish("msrnetd", serve(run))
}

// serve runs the daemon until SIGINT or SIGTERM, then drains it. It
// returns a failed setup step or a drain that did not finish.
func serve(run *cliflags.Run) error {
	// Every log line carries the request-scoped trace_id/job_id when its
	// context has one (see internal/obs/reqctx).
	logger := reqctx.Logger(slog.NewTextHandler(os.Stderr, nil))

	// The -faults flag wins over MSRNET_FAULTS; both default to no
	// injector at all (nil is inert), so production pays nothing.
	inj, err := faultinject.FromEnv(run.Reg)
	if err != nil {
		return err
	}
	if *faults != "" {
		inj = faultinject.New(*faultSeed, run.Reg)
		if err := inj.Configure(*faults); err != nil {
			return err
		}
	}
	if inj.Active() > 0 {
		logger.Warn("fault injection ACTIVE — not a production configuration", "faults", inj.Active())
	}

	rules, err := recorder.ParseRules(*sloSpec)
	if err != nil {
		return err
	}
	// The flight recorder is always on: daemon snapshots carry Go
	// runtime state, and the ring is live at GET /debug/recorder even
	// when no -postmortem-dir is set (bundle triggers then fail).
	run.Reg.EnableRuntime()
	rec := recorder.New(recorder.Config{
		Reg:        run.Reg,
		Tracer:     run.Tracer,
		Interval:   *recEvery,
		Rules:      rules,
		Dir:        *pmDir,
		MaxBundles: *pmKeep,
		Logger:     logger,
		Info: map[string]any{
			"binary": "msrnetd", "go": runtime.Version(),
			"listen": *listen, "workers": *workers, "queue": *queue,
			"job_timeout": jobTimeout.String(), "cache": *cacheSize,
			"slo": *sloSpec, "faults_active": inj.Active(),
		},
	})

	// A daemon with an advertised address joins the fleet: peer identity
	// IS the advertised base URL, so every member (and every client)
	// derives the same consistent-hash ring with no coordination.
	var node *cluster.Node
	if *clAddr != "" {
		self := strings.TrimRight(*clAddr, "/")
		var seeds []cluster.Peer
		for _, p := range strings.Split(*clPeers, ",") {
			if p = strings.TrimRight(strings.TrimSpace(p), "/"); p != "" && p != self {
				seeds = append(seeds, cluster.Peer{ID: cluster.ID(p), Addr: p})
			}
		}
		node = cluster.NewNode(cluster.Config{
			Self:      cluster.Peer{ID: cluster.ID(self), Addr: self},
			Seeds:     seeds,
			Params:    cluster.Params{Interval: *clEvery},
			Transport: &cluster.HTTPTransport{},
			Reg:       run.Reg,
			Logger:    logger,
		})
		logger.Info("cluster enabled", "self", self, "seeds", len(seeds), "interval", clEvery.String())
	}

	// The span index records this daemon's share of every traced job
	// lifecycle (DESIGN.md §15). The process name must be the fleet
	// identity when clustered — the collector stitches spans across
	// members by matching span references ("process#id") against
	// membership addresses — and falls back to a listen-derived name for
	// standalone daemons.
	process := "msrnetd@" + *listen
	if *clAddr != "" {
		process = strings.TrimRight(*clAddr, "/")
	}
	spanIdx := spans.NewIndex(spans.Options{Process: process})
	rec.SetSource(recorder.FileSpans, func() any { return spanIdx.Dump() })

	var tenants []service.TenantConfig
	if *tenantsCfg != "" {
		tenants, err = service.LoadTenants(*tenantsCfg)
		if err != nil {
			return err
		}
		logger.Info("multi-tenant admission enabled", "tenants", len(tenants), "config", *tenantsCfg)
	}

	// The WAL opens (and replays) before the daemon exists so no request
	// can race recovery; replayed jobs re-enter the queue right after
	// New, before the listener binds.
	var store *jobstore.Store
	var replay *jobstore.Replay
	if *walDir != "" {
		store, replay, err = jobstore.Open(jobstore.Options{
			Dir: *walDir, SegmentBytes: *walSegment,
			Faults: inj, Reg: run.Reg, Spans: spanIdx, Logger: logger,
		})
		if err != nil {
			return err
		}
		logger.Info("job WAL open", "dir", *walDir, "replayed", len(replay.Entries),
			"torn", replay.Torn, "torn_tail", replay.TornTail)
	}

	d := service.New(service.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		JobTimeout:      *jobTimeout,
		CacheSize:       *cacheSize,
		DegradeHeadroom: *headroom,
		CoarseEps:       *coarseEps,
		ShedMargin:      *shedMargin,
		Faults:          inj,
		Reg:             run.Reg,
		Logger:          logger,
		Tracer:          run.Tracer,
		Recorder:        rec,
		Cluster:         node,
		ForwardHops:     *clHops,
		Tenants:         tenants,
		Store:           store,
		Spans:           spanIdx,
	})
	if store != nil {
		requeued, restored := d.Recover(replay)
		if requeued+restored > 0 {
			logger.Info("crash recovery", "requeued", requeued, "restored", restored)
		}
	}
	rec.Start()
	if node != nil {
		node.Start()
	}
	srv, err := service.Serve(*listen, d, logger)
	if err != nil {
		return err
	}

	// SIGQUIT forces a postmortem bundle and keeps serving; SIGINT and
	// SIGTERM begin the graceful drain.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGQUIT)
	var s os.Signal
	for s = range sig {
		if s != syscall.SIGQUIT {
			break
		}
		if dir, err := rec.Trigger(recorder.ReasonSIGQUIT, ""); err != nil {
			logger.Error("postmortem capture failed", "signal", s.String(), "err", err)
		} else {
			logger.Info("postmortem bundle written", "signal", s.String(), "bundle", dir)
		}
	}
	logger.Info("shutting down", "signal", s.String(), "drain_grace", *drainGrace, "drain_timeout", *drain)

	// Grace window: /readyz fails and admission is closed while the
	// listener (including /healthz, still 200) keeps serving, giving
	// load balancers time to route away before connections start
	// getting refused.
	if *drainGrace > 0 {
		srv.StartDrain()
		time.Sleep(*drainGrace)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Gossip keeps running through the drain (peers must see the
	// Ready=false heartbeats to stop stealing work to us); the loop
	// stops only once the listener is gone.
	err = srv.Shutdown(ctx)
	if node != nil {
		node.Stop()
	}
	// The WAL closes after the drain: the final fsync covers every
	// result the drain completed, and anything un-acked replays next
	// start.
	if cerr := store.Close(); cerr != nil {
		logger.Error("wal close", "err", cerr)
	}
	rec.Stop()
	if err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}
