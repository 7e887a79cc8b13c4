package repo

import (
	"io"
	"os"
	"time"
)

// FS is the filesystem surface the repository writes through. Production
// code uses the process filesystem (osFS); the disk-fault test matrix
// substitutes an implementation that injects short writes, ENOSPC,
// failed renames and kill-mid-write, so every crash-consistency claim in
// this package is exercised against its real write protocol instead of a
// mock of it.
type FS interface {
	// OpenFile opens name with os.OpenFile semantics.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Rename atomically replaces newname with oldname (POSIX rename).
	Rename(oldname, newname string) error
	// Remove deletes a file.
	Remove(name string) error
	// ReadDir lists a directory.
	ReadDir(name string) ([]os.DirEntry, error)
	// Stat stats a file.
	Stat(name string) (os.FileInfo, error)
	// Chtimes updates a file's times — the lease heartbeat.
	Chtimes(name string, atime, mtime time.Time) error
	// MkdirAll creates the repository root.
	MkdirAll(path string, perm os.FileMode) error
}

// File is the open-file surface the write protocol needs: sequential
// writes, whole-file reads, durability (Sync) and Close.
type File interface {
	io.Reader
	io.Writer
	// Sync flushes the file to stable storage (fsync).
	Sync() error
	Close() error
}

// osFS is the process filesystem.
type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) Rename(oldname, newname string) error         { return os.Rename(oldname, newname) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) Stat(name string) (os.FileInfo, error)        { return os.Stat(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) Chtimes(name string, atime, mtime time.Time) error {
	return os.Chtimes(name, atime, mtime)
}
