package obs

import (
	"os"
	"path/filepath"
	"testing"
)

// TestCPUProfileAppearsOnStop: the profile streams into a temp file and
// reaches its path only when stopped, so a run killed mid-profile leaves
// no truncated profile behind.
func TestCPUProfileAppearsOnStop(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cpu.pprof")
	stop, err := StartCPUProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		stop()
		t.Fatalf("profile visible at its path before stop (stat: %v)", err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// pprof writes gzip-compressed protobuf.
	if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Errorf("profile is not gzip data: % x", b[:min(len(b), 8)])
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Errorf("directory holds %v, want only cpu.pprof", names)
	}
}
