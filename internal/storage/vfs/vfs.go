// Package vfs defines the virtual file system boundary between the storage
// engine and the operating system. The pager, the write-ahead log, the
// copy-on-write timestamp table and the cold-tier history runs all perform
// their I/O through the FS and File interfaces, so the entire durable state of
// a database can be redirected — in production to real files (OS), in crash
// tests to a simulated disk with deterministic fault injection (Sim). This is
// the only engine package that calls the os package's file functions.
package vfs

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
)

// File is the subset of *os.File the storage engine needs. Implementations
// must be safe for concurrent use by multiple goroutines.
type File interface {
	io.ReaderAt
	io.WriterAt
	// Sync makes all preceding writes durable. Until Sync returns nil, any
	// written data may be lost — wholly or partially, at sector granularity —
	// in a crash. A failed Sync makes NO promise about the fate of the data
	// it covered: on common filesystems the dirty pages are dropped and a
	// later Sync returns nil without ever having persisted them, so callers
	// must never retry-and-trust a failed Sync.
	Sync() error
	// Truncate changes the file size; growth reads back as zeros. Growth may
	// fail with an ENOSPC-class error when the filesystem is full.
	Truncate(size int64) error
	// Size returns the current file size in bytes.
	Size() (int64, error)
	Close() error
}

// FS opens, lists and removes files. Paths are opaque to the engine; a
// simulated FS may treat them as pure names.
type FS interface {
	// OpenFile opens the named file read-write, creating it if absent. The
	// real FS also creates a missing parent directory; a simulated one treats
	// paths as pure names and has no directories.
	OpenFile(name string) (File, error)
	// List returns the names of existing files whose name starts with
	// prefix, sorted. The WAL uses it to discover its segment files.
	List(prefix string) ([]string, error)
	// Remove deletes the named file. Removing an absent file is not an
	// error. The WAL uses it to delete dead segments at checkpoint.
	Remove(name string) error
}

// FreeSpacer is optionally implemented by an FS that can report free space,
// enabling the WAL's low-water check to fail a segment extension cleanly
// before any byte of it is written.
type FreeSpacer interface {
	// FreeBytes returns the free space available to new writes and true, or
	// (0, false) when the filesystem cannot tell.
	FreeBytes() (int64, bool)
}

// Errno classes for observability and degradation policy. ErrClass maps any
// error from a vfs.File operation onto one of these.
const (
	ClassNoSpace = "enospc"
	ClassIO      = "eio"
	ClassCrash   = "crash"
	ClassOther   = "other"
)

// ErrClass classifies an I/O error by errno family, covering both the
// simulated disk's injected errors and real OS errnos.
func ErrClass(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrNoSpace) || errors.Is(err, syscall.ENOSPC):
		return ClassNoSpace
	case errors.Is(err, ErrInjectedIO) || errors.Is(err, ErrInjectedSync) || errors.Is(err, syscall.EIO):
		return ClassIO
	case errors.Is(err, ErrCrashed):
		return ClassCrash
	default:
		return ClassOther
	}
}

// IsNoSpace reports whether err is an out-of-disk-space condition.
func IsNoSpace(err error) bool { return ErrClass(err) == ClassNoSpace }

// osFS is the production FS over the operating system.
type osFS struct{}

// OS returns the real-file implementation of FS.
func OS() FS { return osFS{} }

func (osFS) OpenFile(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE, 0o644)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.MkdirAll(filepath.Dir(name), 0o755); err != nil {
			return nil, err
		}
		f, err = os.OpenFile(name, os.O_RDWR|os.O_CREATE, 0o644)
	}
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) List(prefix string) ([]string, error) {
	dir := filepath.Dir(prefix)
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		full := filepath.Join(dir, e.Name())
		if strings.HasPrefix(full, prefix) {
			out = append(out, full)
		}
	}
	sort.Strings(out)
	return out, nil
}

func (osFS) Remove(name string) error {
	err := os.Remove(name)
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// osFile adapts *os.File to File. The only addition is Size.
type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
