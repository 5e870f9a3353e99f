package atomicfile

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func writeJSON(path string, v any) error {
	return Write(path, func(w io.Writer) error { return json.NewEncoder(w).Encode(v) })
}

// TestWriteJSONFileAtomic: a file appears complete or not at all. An
// encode that fails must leave nothing at the target path and no temp
// file behind, and must not disturb an earlier version.
func TestWriteJSONFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.json")
	if err := writeJSON(path, map[string]any{"bad": make(chan int)}); err == nil {
		t.Fatal("encoding a channel succeeded")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("failed write left a file at the target path (stat: %v)", err)
	}
	if err := writeJSON(path, map[string]string{"schema": "v1"}); err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(path, make(chan int)); err == nil {
		t.Fatal("encoding a channel succeeded")
	}
	var m map[string]string
	if b, err := os.ReadFile(path); err != nil || json.Unmarshal(b, &m) != nil || m["schema"] != "v1" {
		t.Fatalf("failed overwrite disturbed the earlier file: %q, %v", b, err)
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
		t.Errorf("directory holds %v, want only manifest.json", names)
	}
}
