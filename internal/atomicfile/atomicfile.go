// Package atomicfile writes artifact files crash-consistently: a file
// written through Write is complete or absent, never truncated — so a
// reader of a postmortem bundle, a bench report, a solve profile, a
// trace, a metrics dump or a saved net never sees half of one.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// Write makes path appear complete or not at all: write fills a temp
// file in the same directory, which is fsynced, closed, renamed over
// path, and made durable by an fsync of the directory. On any error
// before the rename — including a failed Close — the temp file is
// removed and path is untouched. A target that exists and is not a
// regular file (/dev/stdout, a named pipe) cannot be replaced by a
// rename and is written in place.
func Write(path string, write func(io.Writer) error) error {
	if fi, err := os.Stat(path); err == nil && !fi.Mode().IsRegular() {
		return writeInPlace(path, write)
	}
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if err := fill(f, write); err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	if err := os.Rename(f.Name(), path); err != nil {
		os.Remove(f.Name())
		return err
	}
	return syncDir(filepath.Dir(path))
}

// fill writes the temp file's contents and makes them durable.
func fill(f *os.File, write func(io.Writer) error) error {
	if err := write(f); err != nil {
		return err
	}
	if err := f.Chmod(0o644); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	return f.Close()
}

func writeInPlace(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory, making the renames into it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
