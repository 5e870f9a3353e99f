package obs

import (
	"fmt"
	"runtime"
	"runtime/pprof"

	"msrnet/internal/atomicfile"
)

// StartCPUProfile begins a CPU profile for path and returns the stop
// function. The profile streams into a temp file next to path, and stop
// renames it into place, so path holds a complete profile or nothing.
// With an empty path it is a no-op and the returned stop does nothing,
// so callers can defer unconditionally.
func StartCPUProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := atomicfile.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Abort()
		return nil, fmt.Errorf("obs: starting CPU profile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Commit()
	}, nil
}

// WriteMemProfile atomically writes a heap profile to path (after a GC,
// so the numbers reflect live memory). Empty path is a no-op.
func WriteMemProfile(path string) error {
	if path == "" {
		return nil
	}
	runtime.GC()
	return atomicfile.Write(path, pprof.WriteHeapProfile)
}

// WriteMetricsFile atomically dumps the registry snapshot as indented
// JSON to path. Empty path is a no-op; a nil registry writes an empty
// snapshot.
func (r *Registry) WriteMetricsFile(path string) error {
	if path == "" {
		return nil
	}
	return atomicfile.Write(path, r.Snapshot().WriteJSON)
}
