package recorder

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"msrnet/internal/atomicfile"
	"msrnet/internal/buildinfo"
	"msrnet/internal/obs"
	"msrnet/internal/obs/spans"
)

// BundleSchema identifies the postmortem bundle layout for downstream
// tooling (msrnetctl postmortem), the same way msrnet-metrics/v1 and
// msrnet-explain/v1 version their formats.
const BundleSchema = "msrnet-postmortem/v1"

// bundlePrefix names bundle directories; the timestamp is fixed-width
// so lexical order is chronological order (retention relies on it).
const bundlePrefix = "postmortem-"

// Bundle file names.
const (
	fileManifest   = "manifest.json"
	fileRecorder   = "recorder.json"
	fileMetrics    = "metrics.json"
	fileTrace      = "trace.json"
	fileGoroutines = "goroutines.txt"
	fileHeap       = "heap.pb.gz"
	fileJobs       = "jobs.json"
	fileCluster    = "cluster.json"
	fileTenants    = "tenants.json"
	fileSpans      = "spans.json"
)

// Manifest is the bundle's index: what triggered the capture, when,
// under which daemon configuration, and which files were written.
type Manifest struct {
	Schema  string      `json:"schema"`
	Trigger TriggerInfo `json:"trigger"`
	// Info is the daemon's config/build identification, verbatim from
	// Config.Info.
	Info any `json:"info,omitempty"`
	// Build is the binary's embedded build identity (msrnet-build/v1):
	// module version, toolchain and VCS stamp — the same body GET
	// /version serves, so a bundle pins exactly which build died.
	Build buildinfo.Info `json:"build"`
	// Rules is the SLO rule state at capture time.
	Rules []RuleState `json:"rules,omitempty"`
	Files []string    `json:"files"`
}

// TriggerInfo describes what fired the capture.
type TriggerInfo struct {
	Reason     string `json:"reason"`
	Detail     string `json:"detail,omitempty"`
	TimeUnixMs int64  `json:"time_unix_ms"`
	Seq        int64  `json:"seq"`
}

// writeBundle captures everything into a fresh directory under cfg.Dir
// and returns its path. The bundle is filled under a temp name that
// neither retention nor a bundle listing matches, and appears under its
// own name whole or not at all. Callers hold writeMu.
func (f *FlightRecorder) writeBundle(now time.Time, seq int64, reason, detail string) (string, error) {
	if err := os.MkdirAll(f.cfg.Dir, 0o755); err != nil {
		return "", fmt.Errorf("recorder: creating postmortem dir: %w", err)
	}
	path := filepath.Join(f.cfg.Dir, fmt.Sprintf("%s%013d-%d-%s", bundlePrefix, now.UnixMilli(), seq, sanitize(reason)))
	err := atomicfile.WriteDir(path, func(dir string) error {
		return f.fillBundle(dir, now, seq, reason, detail)
	})
	if err != nil {
		return "", err
	}
	return path, nil
}

// fillBundle writes the bundle's files into dir, the manifest last.
func (f *FlightRecorder) fillBundle(dir string, now time.Time, seq int64, reason, detail string) error {
	man := Manifest{
		Schema:  BundleSchema,
		Trigger: TriggerInfo{Reason: reason, Detail: detail, TimeUnixMs: now.UnixMilli(), Seq: seq},
		Info:    f.cfg.Info,
		Build:   buildinfo.Get(),
		Rules:   f.RuleStates(),
	}
	keep := func(name string, err error) error {
		if err != nil {
			return fmt.Errorf("recorder: writing %s: %w", name, err)
		}
		man.Files = append(man.Files, name)
		return nil
	}

	ringDump := ringDump{Schema: BundleSchema, IntervalMs: f.cfg.Interval.Milliseconds(), Samples: f.Samples(0)}
	if err := keep(fileRecorder, writeJSONFile(filepath.Join(dir, fileRecorder), ringDump)); err != nil {
		return err
	}
	if err := keep(fileMetrics, writeJSONFile(filepath.Join(dir, fileMetrics), f.cfg.Reg.Snapshot())); err != nil {
		return err
	}
	if f.cfg.Tracer != nil {
		if err := keep(fileTrace, f.cfg.Tracer.WriteFile(filepath.Join(dir, fileTrace))); err != nil {
			return err
		}
	}
	if err := keep(fileGoroutines, writeGoroutines(filepath.Join(dir, fileGoroutines))); err != nil {
		return err
	}
	if err := keep(fileHeap, writeHeap(filepath.Join(dir, fileHeap))); err != nil {
		return err
	}
	f.mu.Lock()
	jobs, clusterFn, tenantsFn, spansFn := f.jobs, f.cluster, f.tenants, f.spans
	f.mu.Unlock()
	if jobs != nil {
		if err := keep(fileJobs, writeJSONFile(filepath.Join(dir, fileJobs), jobs())); err != nil {
			return err
		}
	}
	if clusterFn != nil {
		if err := keep(fileCluster, writeJSONFile(filepath.Join(dir, fileCluster), clusterFn())); err != nil {
			return err
		}
	}
	if tenantsFn != nil {
		if err := keep(fileTenants, writeJSONFile(filepath.Join(dir, fileTenants), tenantsFn())); err != nil {
			return err
		}
	}
	if spansFn != nil {
		if err := keep(fileSpans, writeJSONFile(filepath.Join(dir, fileSpans), spansFn())); err != nil {
			return err
		}
	}
	if err := writeJSONFile(filepath.Join(dir, fileManifest), man); err != nil {
		return fmt.Errorf("recorder: writing manifest: %w", err)
	}
	return nil
}

// ringDump is the recorder.json payload.
type ringDump struct {
	Schema     string   `json:"schema"`
	IntervalMs int64    `json:"interval_ms"`
	Samples    []Sample `json:"samples"`
}

// enforceRetention deletes the oldest bundles beyond MaxBundles.
// Bundle names embed a fixed-width millisecond timestamp, so lexical
// order is age order.
func (f *FlightRecorder) enforceRetention() error {
	entries, err := os.ReadDir(f.cfg.Dir)
	if err != nil {
		return err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), bundlePrefix) {
			names = append(names, e.Name())
		}
	}
	if len(names) <= f.cfg.MaxBundles {
		return nil
	}
	sort.Strings(names)
	var first error
	for _, name := range names[:len(names)-f.cfg.MaxBundles] {
		if err := os.RemoveAll(filepath.Join(f.cfg.Dir, name)); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, s)
}

func writeJSONFile(path string, v any) error {
	return atomicfile.Write(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}

// writeGoroutines dumps every goroutine's full stack (pprof debug=2).
func writeGoroutines(path string) error {
	return atomicfile.Write(path, func(w io.Writer) error {
		return pprof.Lookup("goroutine").WriteTo(w, 2)
	})
}

// writeHeap dumps the binary heap profile (pprof-loadable).
func writeHeap(path string) error { return obs.WriteMemProfile(path) }

// Bundle is one loaded postmortem directory.
type Bundle struct {
	Dir      string
	Manifest Manifest
	// Ring holds the flight-recorder samples (oldest first) and their
	// sampling interval.
	RingIntervalMs int64
	Ring           []Sample
	// Metrics is the final registry snapshot at capture.
	Metrics obs.Snapshot
	// Jobs are the per-job explain reports captured in the bundle
	// (zero-valued when the bundle carries none).
	Jobs JobsDump
	// GoroutineCount counts goroutines in the stack dump (0 when the
	// dump is absent).
	GoroutineCount int
	HasTrace       bool
	HasHeap        bool
	// HasCluster reports a cluster.json peer view in the bundle
	// (clustered daemons only).
	HasCluster bool
	// HasTenants reports a tenants.json tenancy view in the bundle
	// (daemons running the multi-tenant serving layer).
	HasTenants bool
	// HasSpans reports a spans.json trace dump in the bundle; Spans is
	// its decoded msrnet-spans/v1 content (zero-valued when absent), so
	// msrnetctl postmortem -trace can render a crashed daemon's traces
	// offline.
	HasSpans bool
	Spans    spans.Dump
}

// JobsDump mirrors the jobs.json payload: the explain-table view the
// serving layer exports (schema msrnet-explain/v1). Fields are a
// decoupled subset — the bundle format, not the service package,
// defines what the debugger needs.
type JobsDump struct {
	Active []JobReport `json:"active"`
	Recent []JobReport `json:"recent"`
}

// JobReport is the subset of one msrnet-explain/v1 report the incident
// report renders.
type JobReport struct {
	JobID       string     `json:"job_id"`
	Label       string     `json:"label"`
	TraceID     string     `json:"trace_id"`
	Mode        string     `json:"mode"`
	State       string     `json:"state"`
	Outcome     string     `json:"outcome"`
	Code        string     `json:"code"`
	Cached      bool       `json:"cached"`
	QueueWaitMs float64    `json:"queue_wait_ms"`
	SolveMs     float64    `json:"solve_ms"`
	TotalMs     float64    `json:"total_ms"`
	Solve       *JobSolve  `json:"solve"`
	Degradation *JobDegrad `json:"degradation"`
}

// JobSolve is the DP shape of one job.
type JobSolve struct {
	NodesVisited     int     `json:"nodes_visited"`
	SolutionsCreated int     `json:"solutions_created"`
	MaxSetSize       int     `json:"max_set_size"`
	MeanSetSize      float64 `json:"mean_set_size"`
	MaxSegs          int     `json:"max_pwl_segments"`
	PruneCalls       int     `json:"prune_calls"`
	Dropped          int     `json:"dropped"`
}

// JobDegrad is a job's degradation note.
type JobDegrad struct {
	Reason     string  `json:"reason"`
	CoarseEps  float64 `json:"coarse_eps"`
	ErrorBound float64 `json:"error_bound_ns"`
}

// LoadBundle reads a bundle directory written by the flight recorder.
// Optional files (trace, jobs) may be absent; the manifest, recorder
// ring and metrics snapshot are required.
func LoadBundle(dir string) (*Bundle, error) {
	b := &Bundle{Dir: dir}
	if err := readJSONFile(filepath.Join(dir, fileManifest), &b.Manifest); err != nil {
		return nil, fmt.Errorf("recorder: loading manifest: %w", err)
	}
	if b.Manifest.Schema != BundleSchema {
		return nil, fmt.Errorf("recorder: %s has schema %q, want %q", dir, b.Manifest.Schema, BundleSchema)
	}
	var ring ringDump
	if err := readJSONFile(filepath.Join(dir, fileRecorder), &ring); err != nil {
		return nil, fmt.Errorf("recorder: loading ring: %w", err)
	}
	b.RingIntervalMs, b.Ring = ring.IntervalMs, ring.Samples
	if err := readJSONFile(filepath.Join(dir, fileMetrics), &b.Metrics); err != nil {
		return nil, fmt.Errorf("recorder: loading metrics: %w", err)
	}
	if err := readJSONFile(filepath.Join(dir, fileJobs), &b.Jobs); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("recorder: loading jobs: %w", err)
	}
	if data, err := os.ReadFile(filepath.Join(dir, fileGoroutines)); err == nil {
		b.GoroutineCount = strings.Count(string(data), "\ngoroutine ")
		if strings.HasPrefix(string(data), "goroutine ") {
			b.GoroutineCount++
		}
	}
	if err := readJSONFile(filepath.Join(dir, fileSpans), &b.Spans); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("recorder: loading spans: %w", err)
	}
	b.HasTrace = fileExists(filepath.Join(dir, fileTrace))
	b.HasHeap = fileExists(filepath.Join(dir, fileHeap))
	b.HasCluster = fileExists(filepath.Join(dir, fileCluster))
	b.HasTenants = fileExists(filepath.Join(dir, fileTenants))
	b.HasSpans = fileExists(filepath.Join(dir, fileSpans))
	return b, nil
}

func readJSONFile(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
