//go:build unix

package atomicfile

import (
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestWriteNonRegularInPlace: a target that exists and is not a regular
// file — here a named pipe, standing in for /dev/stdout — is written in
// place, not replaced by a renamed temp file.
func TestWriteNonRegularInPlace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pipe")
	if err := syscall.Mkfifo(path, 0o600); err != nil {
		t.Fatal(err)
	}
	// Open the read end first (non-blocking, so the open itself does not
	// wait for a writer): it keeps the pipe's buffer alive across Write.
	r, err := os.OpenFile(path, os.O_RDONLY|syscall.O_NONBLOCK, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := Write(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "hello")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if b, err := io.ReadAll(r); err != nil || string(b) != "hello" {
		t.Fatalf("pipe read %q (%v), want %q", b, err, "hello")
	}
	fi, err := os.Lstat(path)
	if err != nil || fi.Mode()&os.ModeNamedPipe == 0 {
		t.Fatalf("pipe replaced: %v, %v", fi, err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("directory holds %d entries, want only the pipe", len(entries))
	}
}
