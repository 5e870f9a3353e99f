// Package recorder is the incident-grade layer of the observability
// substrate: an always-on flight recorder that continuously samples the
// full observability surface — metrics snapshots (including the
// sliding-window SLO quantiles and the DP-shape core/* aggregates),
// queue depth, and Go runtime state — into a bounded in-memory ring, an
// SLO burn-rate evaluator over configurable multi-window rules, and a
// postmortem bundle writer that, on trigger (worker panic, SLO burn,
// SIGQUIT, POST /debug/dump), captures a self-contained
// msrnet-postmortem/v1 directory: the recorder ring, the final metrics
// snapshot, the ring tracer's timeline, goroutine and heap dumps, the
// in-flight and recent per-job explain reports, and the daemon's
// config/build info.
//
// A production daemon cannot rely on a human being attached when it
// degrades: the ring means the minutes BEFORE the trigger are always
// available, and the bundle means an incident leaves a corpse that
// msrnetctl postmortem can autopsy offline. A nil *FlightRecorder is inert
// (every method no-ops), so the serving layer wires its trigger points
// unconditionally. See DESIGN.md §11.
package recorder

import (
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"time"

	"msrnet/internal/obs"
	"msrnet/internal/obs/trace"
)

// Defaults for Config zero values.
const (
	DefaultInterval   = time.Second
	DefaultCapacity   = 512 // ~8.5 minutes of history at the default interval
	DefaultMaxBundles = 8
	DefaultCooldown   = time.Minute
)

// Trigger reasons. Panic and SLO-burn triggers are automatic and
// debounced by the cooldown; manual and SIGQUIT triggers always write.
const (
	ReasonPanic   = "worker_panic"
	ReasonSLOBurn = "slo_burn"
	ReasonManual  = "manual"
	ReasonSIGQUIT = "sigquit"
)

// Config assembles a FlightRecorder.
type Config struct {
	// Reg is the sampled registry (required): its snapshot carries the
	// svc/* serving metrics, the window quantiles and the core/* DP
	// aggregates. Each sample carries the runtime state either way: with
	// EnableRuntime on it is the snapshot's own read, otherwise the
	// recorder reads the runtime itself.
	Reg *obs.Registry
	// Tracer, when non-nil, is dumped (Chrome trace JSON) into bundles.
	Tracer *trace.Tracer
	// Interval is the sampling period (DefaultInterval when <= 0).
	Interval time.Duration
	// Capacity bounds the ring (DefaultCapacity when <= 0).
	Capacity int
	// Rules are the SLO burn-rate rules evaluated every tick; a rising
	// edge (not-firing -> firing) triggers a bundle.
	Rules []Rule
	// Dir is where bundles are written. Empty disables bundle writing —
	// the ring and rules still run and stay inspectable live.
	Dir string
	// MaxBundles bounds retention in Dir: after each write the oldest
	// bundles beyond this count are deleted (DefaultMaxBundles when <= 0).
	MaxBundles int
	// Cooldown is the minimum spacing between automatic bundles (panic,
	// SLO burn), so a crash-looping worker or a flapping rule cannot
	// churn the disk (DefaultCooldown when <= 0). Manual and SIGQUIT
	// triggers ignore it.
	Cooldown time.Duration
	// Info is embedded verbatim in bundle manifests — the daemon's
	// config and build identification.
	Info any
	// Logger receives trigger/write logs; slog.Default when nil.
	Logger *slog.Logger
}

// Sample is one tick of the flight recorder's ring.
type Sample struct {
	TimeUnixMs int64 `json:"time_unix_ms"`
	// Metrics is the full registry snapshot at the tick: counters,
	// gauges (queue depth among them) and window quantiles.
	Metrics obs.Snapshot `json:"metrics"`
	// Runtime is the Go runtime's state at the tick.
	Runtime obs.RuntimeSnapshot `json:"runtime"`
	// Firing lists the SLO rules firing at this tick.
	Firing []string `json:"firing,omitempty"`
}

// FlightRecorder owns the sampling loop, the ring, the rule evaluator
// and the bundle writer. All methods are safe for concurrent use and
// nil-safe.
type FlightRecorder struct {
	cfg Config
	log *slog.Logger

	mu      sync.Mutex
	ring    []Sample // grows to capacity, then circular with next as the oldest slot
	next    int
	evals   []*ruleEval
	sources [len(sourceFiles)]func() any // by sourceFiles index; nil leaves the file out
	seq     int64
	lastAut time.Time // last automatic bundle write, for the cooldown
	ticks   int64

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	// writeMu serializes bundle writes so a panic storm and a SIGQUIT
	// cannot interleave inside one directory.
	writeMu sync.Mutex

	samples  *obs.Counter
	triggers *obs.Counter
	bundles  *obs.Counter
}

// New builds a recorder (not yet sampling; call Start).
func New(cfg Config) *FlightRecorder {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	if cfg.MaxBundles <= 0 {
		cfg.MaxBundles = DefaultMaxBundles
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = DefaultCooldown
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	f := &FlightRecorder{
		cfg:      cfg,
		log:      cfg.Logger,
		ring:     make([]Sample, 0, cfg.Capacity),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		samples:  cfg.Reg.Counter("recorder/samples"),
		triggers: cfg.Reg.Counter("recorder/triggers"),
		bundles:  cfg.Reg.Counter("recorder/bundles_written"),
	}
	for _, r := range cfg.Rules {
		f.evals = append(f.evals, &ruleEval{rule: r})
	}
	return f
}

// SetSource installs the content of one bundle file: file is FileJobs,
// FileCluster, FileTenants or FileSpans (any other name panics), and fn
// returns the JSON-serializable view each bundle writes under that
// name. Bundles write these files in that fixed order, whatever order
// they were installed in. Safe to call before or after Start; a nil fn
// leaves the file out.
func (f *FlightRecorder) SetSource(file string, fn func() any) {
	if f == nil {
		return
	}
	i := slices.Index(sourceFiles[:], file)
	if i < 0 {
		panic("recorder: unknown bundle source " + file)
	}
	f.mu.Lock()
	f.sources[i] = fn
	f.mu.Unlock()
}

// Start launches the sampling loop. Stop ends it; Start after Stop is
// not supported.
func (f *FlightRecorder) Start() {
	if f == nil {
		return
	}
	go func() {
		defer close(f.done)
		t := time.NewTicker(f.cfg.Interval)
		defer t.Stop()
		f.tick(time.Now()) // an immediate first sample, so the ring is never empty
		for {
			select {
			case now := <-t.C:
				f.tick(now)
			case <-f.stop:
				return
			}
		}
	}()
}

// Stop ends the sampling loop and waits for it to exit. The ring stays
// readable and Trigger keeps working — a drain sequence can still dump.
func (f *FlightRecorder) Stop() {
	if f == nil {
		return
	}
	f.stopOnce.Do(func() { close(f.stop) })
	<-f.done
}

// tick takes one sample, evaluates the rules and fires on rising edges.
func (f *FlightRecorder) tick(now time.Time) {
	s := Sample{TimeUnixMs: now.UnixMilli(), Metrics: f.cfg.Reg.Snapshot()}
	// A registry with runtime stats on has just read the runtime.
	if rt := s.Metrics.Runtime; rt != nil {
		s.Runtime = *rt
	} else {
		s.Runtime = obs.ReadRuntime()
	}
	f.mu.Lock()
	f.push(s) // pushed before evaluation so rules see the newest sample
	var rises []Rule
	ring := f.ringLocked()
	for _, e := range f.evals {
		if e.evaluate(now, ring) {
			rises = append(rises, e.rule)
		}
		if e.state.Firing {
			s.Firing = append(s.Firing, e.rule.Name)
		}
	}
	// Re-stamp the stored sample with the firing set computed above.
	if len(f.ring) > 0 {
		f.ring[f.lastIdxLocked()].Firing = s.Firing
	}
	f.ticks++
	f.mu.Unlock()
	f.samples.Inc()
	for _, r := range rises {
		f.log.Warn("SLO burn-rate rule firing", "rule", r.Name, "spec", r.String())
		if _, err := f.triggerLocked(ReasonSLOBurn, r.String(), false); err != nil && err != errCooldown && err != errNoDir {
			f.log.Error("postmortem bundle write failed", "reason", ReasonSLOBurn, "err", err)
		}
	}
}

// push appends to the circular ring. Callers hold f.mu.
func (f *FlightRecorder) push(s Sample) {
	if len(f.ring) < cap(f.ring) {
		f.ring = append(f.ring, s)
		return
	}
	f.ring[f.next] = s
	f.next++
	if f.next == cap(f.ring) {
		f.next = 0
	}
}

// lastIdxLocked returns the index of the newest sample.
func (f *FlightRecorder) lastIdxLocked() int {
	if len(f.ring) < cap(f.ring) {
		return len(f.ring) - 1
	}
	return (f.next - 1 + cap(f.ring)) % cap(f.ring)
}

// ringLocked returns the samples oldest-first. Callers hold f.mu; the
// returned slice is freshly allocated.
func (f *FlightRecorder) ringLocked() []Sample {
	if len(f.ring) < cap(f.ring) {
		return append([]Sample(nil), f.ring...)
	}
	out := make([]Sample, 0, len(f.ring))
	out = append(out, f.ring[f.next:]...)
	out = append(out, f.ring[:f.next]...)
	return out
}

// Samples returns the ring oldest-first (the last n samples when n > 0).
func (f *FlightRecorder) Samples(n int) []Sample {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	ring := f.ringLocked()
	f.mu.Unlock()
	if n > 0 && len(ring) > n {
		ring = ring[len(ring)-n:]
	}
	return ring
}

// RuleStates returns the last-tick evaluation state of every rule.
func (f *FlightRecorder) RuleStates() []RuleState {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]RuleState, 0, len(f.evals))
	for _, e := range f.evals {
		out = append(out, e.state)
	}
	return out
}

// State is the live view served at GET /debug/recorder.
type State struct {
	Schema string `json:"schema"`
	// IntervalMs and Capacity describe the ring's shape; Ticks counts
	// samples ever taken (ticks - len(samples) have been overwritten).
	IntervalMs int64       `json:"interval_ms"`
	Capacity   int         `json:"capacity"`
	Ticks      int64       `json:"ticks"`
	Rules      []RuleState `json:"rules,omitempty"`
	Samples    []Sample    `json:"samples"`
}

// State snapshots the recorder for live inspection: the last n samples
// (all when n <= 0) plus rule states.
func (f *FlightRecorder) State(n int) State {
	if f == nil {
		return State{Schema: BundleSchema}
	}
	f.mu.Lock()
	ticks := f.ticks
	f.mu.Unlock()
	return State{
		Schema:     BundleSchema,
		IntervalMs: f.cfg.Interval.Milliseconds(),
		Capacity:   f.cfg.Capacity,
		Ticks:      ticks,
		Rules:      f.RuleStates(),
		Samples:    f.Samples(n),
	}
}

// Sentinel errors distinguishing "did not write" cases a caller may
// want to tolerate.
var (
	errNoDir    = fmt.Errorf("recorder: no postmortem directory configured")
	errCooldown = fmt.Errorf("recorder: automatic trigger inside the cooldown window")
)

// Trigger writes a postmortem bundle now, unconditionally (manual dump
// endpoint, SIGQUIT). It returns the bundle directory path.
func (f *FlightRecorder) Trigger(reason, detail string) (string, error) {
	if f == nil {
		return "", fmt.Errorf("recorder: not configured")
	}
	return f.triggerLocked(reason, detail, true)
}

// TriggerAuto writes a bundle for an automatic trigger (worker panic),
// debounced by the cooldown: inside the window it is a cheap no-op
// returning an empty path.
func (f *FlightRecorder) TriggerAuto(reason, detail string) (string, error) {
	if f == nil {
		return "", nil
	}
	dir, err := f.triggerLocked(reason, detail, false)
	if err == errCooldown || err == errNoDir {
		return "", nil
	}
	return dir, err
}

func (f *FlightRecorder) triggerLocked(reason, detail string, force bool) (string, error) {
	f.triggers.Inc()
	if f.cfg.Dir == "" {
		return "", errNoDir
	}
	now := time.Now()
	f.mu.Lock()
	if !force && now.Sub(f.lastAut) < f.cfg.Cooldown && !f.lastAut.IsZero() {
		f.mu.Unlock()
		return "", errCooldown
	}
	if !force {
		f.lastAut = now
	}
	f.seq++
	seq := f.seq
	f.mu.Unlock()

	f.writeMu.Lock()
	defer f.writeMu.Unlock()
	dir, err := f.writeBundle(now, seq, reason, detail)
	if err != nil {
		return "", err
	}
	f.bundles.Inc()
	f.log.Warn("postmortem bundle written", "reason", reason, "detail", detail, "dir", dir)
	if err := f.enforceRetention(); err != nil {
		f.log.Error("postmortem retention sweep failed", "err", err)
	}
	return dir, nil
}
