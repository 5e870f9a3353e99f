package obs

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"msrnet/internal/atomicfile"
)

// StartCPUProfile begins a CPU profile into path and returns the stop
// function. With an empty path it is a no-op and the returned stop does
// nothing, so callers can defer unconditionally.
func StartCPUProfile(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("obs: starting CPU profile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
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
