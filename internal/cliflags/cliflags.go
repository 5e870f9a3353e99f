// Package cliflags factors the observability flag set shared by every
// command in this repository — -metrics, -trace, -trace-events,
// -listen, -cpuprofile, -memprofile — into one helper, so the flags
// keep identical names, help text and shutdown ordering everywhere
// (msri, ardcalc, experiments, netgen, synth, msrnetd).
//
// Usage:
//
//	obsFlags := cliflags.Register(flag.CommandLine, cliflags.Caps{TraceEvents: true, Listen: true})
//	flag.Parse()
//	run, err := obsFlags.Start()   // CPU profile, registry, tracer, -listen endpoint
//	if err != nil { ... }
//	defer func() {
//		if err := run.Close(); err != nil { ... }   // flush metrics/trace/memprofile
//	}()
//	reg, tcr := run.Reg, run.Tracer
//
// Start and Close mirror the lifecycle the commands previously open-
// coded: Start begins the CPU profile, creates the registry only when
// some consumer (-metrics/-trace/-listen, or Caps.AlwaysRegistry) needs
// it — a nil registry keeps the instrumented hot paths allocation-free —
// and opens the live export endpoint; Close stops the profile, prints
// the -trace report, and writes the -metrics, -trace-events and
// -memprofile files, in that order.
package cliflags

import (
	"flag"
	"fmt"
	"os"

	"msrnet/internal/obs"
	"msrnet/internal/obs/export"
	trc "msrnet/internal/obs/trace"
	"msrnet/internal/validate"
)

// Caps selects which optional flags a command exposes. Every command
// gets -metrics, -trace, -cpuprofile and -memprofile; -trace-events and
// -listen are opt-in because only the commands whose pipelines emit
// timeline events (msri, experiments) or run long enough to scrape
// (msri, experiments, msrnetd) register them.
type Caps struct {
	// TraceEvents adds -trace-events (Chrome trace-event JSON timeline).
	TraceEvents bool
	// Listen adds -listen (live /metrics, /debug/vars, /debug/pprof,
	// /healthz endpoint for the duration of the run).
	Listen bool
	// AlwaysRegistry makes Start create a registry even when no
	// observability flag is set — for daemons whose serving metrics must
	// exist regardless (msrnetd).
	AlwaysRegistry bool
	// AlwaysTracer makes Start create the ring tracer even without a
	// -trace-events file — for daemons that serve the live ring over
	// HTTP (GET /debug/trace) and only optionally dump it at exit.
	AlwaysTracer bool
}

// Set holds the parsed flag values. Fields are pointers into the
// FlagSet; read them only after FlagSet.Parse.
type Set struct {
	caps     Caps
	metrics  *string
	trace    *bool
	traceEvs *string
	listen   *string
	cpuProf  *string
	memProf  *string
}

// Register installs the observability flags selected by caps on fs
// (flag.CommandLine in the commands) and returns the Set to Start after
// parsing.
func Register(fs *flag.FlagSet, caps Caps) *Set {
	s := &Set{caps: caps}
	s.metrics = fs.String("metrics", "", "write a JSON metrics snapshot (counters, gauges, histograms) to this file")
	s.trace = fs.Bool("trace", false, "print the metrics report to stderr on exit")
	if caps.TraceEvents {
		s.traceEvs = fs.String("trace-events", "", "write a Chrome trace-event JSON timeline (Perfetto-loadable) to this file")
	}
	if caps.Listen {
		s.listen = fs.String("listen", "", "serve /metrics, /debug/vars, /debug/pprof and /healthz on this address for the duration of the run")
	}
	s.cpuProf = fs.String("cpuprofile", "", "write a CPU profile to this file")
	s.memProf = fs.String("memprofile", "", "write a heap profile to this file")
	return s
}

// Run is the live observability state of one command invocation.
type Run struct {
	// Reg is the metrics registry, or nil when no flag asked for one
	// (and Caps.AlwaysRegistry is off). Nil is a valid sink.
	Reg *obs.Registry
	// Tracer is the ring tracer behind -trace-events, or nil.
	Tracer *trc.Tracer

	set     *Set
	srv     *export.Server
	stopCPU func() error
}

// Start begins the CPU profile, creates the registry and tracer as
// demanded by the parsed flags, and opens the -listen endpoint. The
// caller must Close the returned Run.
func (s *Set) Start() (*Run, error) {
	stopCPU, err := obs.StartCPUProfile(*s.cpuProf)
	if err != nil {
		return nil, err
	}
	r := &Run{set: s, stopCPU: stopCPU}
	if *s.metrics != "" || *s.trace || s.listenAddr() != "" || s.caps.AlwaysRegistry {
		r.Reg = obs.New()
	}
	if (s.traceEvs != nil && *s.traceEvs != "") || s.caps.AlwaysTracer {
		r.Tracer = trc.New(0)
	}
	if addr := s.listenAddr(); addr != "" {
		srv, err := export.Serve(addr, r.Reg, nil)
		if err != nil {
			stopCPU()
			return nil, err
		}
		r.srv = srv
	}
	return r, nil
}

func (s *Set) listenAddr() string {
	if s.listen == nil {
		return ""
	}
	return *s.listen
}

// Close flushes everything in the order the commands relied on: stop
// the CPU profile, print the -trace report, write the -metrics
// snapshot, the -trace-events timeline and the -memprofile heap dump,
// then shut the -listen endpoint. The first error wins but every step
// still runs.
func (r *Run) Close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	keep(r.stopCPU())
	if *r.set.trace {
		fmt.Fprint(os.Stderr, r.Reg.Snapshot().Text())
	}
	keep(r.Reg.WriteMetricsFile(*r.set.metrics))
	if r.set.traceEvs != nil {
		keep(r.Tracer.WriteFile(*r.set.traceEvs))
	}
	keep(obs.WriteMemProfile(*r.set.memProf))
	if r.srv != nil {
		keep(r.srv.Close())
	}
	return first
}

// Fatal prints err the way every command in this repository reports a
// terminal failure — "tool: message", plus the msrnet-error/v1
// taxonomy code in brackets when the error carries one, so scripted
// callers can branch on the code without parsing prose — and exits 1.
func Fatal(tool string, err error) {
	if code := validate.CodeOf(err); code != "" {
		fmt.Fprintf(os.Stderr, "%s: %v [%s]\n", tool, err, code)
	} else {
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	}
	os.Exit(1)
}
