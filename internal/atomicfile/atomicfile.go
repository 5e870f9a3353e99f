// Package atomicfile writes artifact files crash-consistently: a file
// written through Write, or streamed into a File and committed, is
// complete or absent, never truncated, and a directory filled through
// WriteDir appears whole or not at all — so a reader of a postmortem
// bundle, a bench report, a solve profile, a trace, a metrics dump, a
// CPU profile or a saved net never sees half of one.
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
	f, err := Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Abort()
		return err
	}
	return f.Commit()
}

// WriteDir makes the directory path appear whole or not at all: fill
// populates a temp directory beside path (its files written through
// Write, so they are durable), which is renamed to path and made
// durable by an fsync of the parent. The temp name starts with a dot,
// so scans for path's name prefix skip it. On any error before the
// rename the temp directory is removed and path does not appear.
func WriteDir(path string, fill func(dir string) error) error {
	tmp, err := os.MkdirTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	// MkdirTemp creates the directory 0700; path is 0755, as the
	// files Write commits are 0644.
	err = os.Chmod(tmp, 0o755)
	if err == nil {
		err = fill(tmp)
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.RemoveAll(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// File is a temp file that becomes path only on Commit, for writers
// that stream over a whole run (a CPU profile) rather than filling the
// file in one Write callback.
type File struct {
	*os.File
	path string
}

// Create opens the temp file for path in path's directory.
func Create(path string) (*File, error) {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return nil, err
	}
	return &File{File: f, path: path}, nil
}

// Commit fsyncs and closes the temp file, renames it over path and
// fsyncs the directory. On an error before the rename the temp file is
// removed and path is untouched.
func (f *File) Commit() error {
	if err := f.seal(); err != nil {
		f.Abort()
		return err
	}
	if err := os.Rename(f.Name(), f.path); err != nil {
		os.Remove(f.Name())
		return err
	}
	return syncDir(filepath.Dir(f.path))
}

// Abort closes and removes the temp file, leaving path untouched.
func (f *File) Abort() {
	f.Close()
	os.Remove(f.Name())
}

// seal makes the temp file's contents durable and closes it.
func (f *File) seal() error {
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
