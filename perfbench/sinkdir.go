package main

import (
	"errors"
	"fmt"
	"io/fs"
	"sync"

	"repro/internal/pfs"
)

// sinkDir is a follower's WAL device: it keeps the namespace and each
// file's length, not its bytes. Followers never compact their logs (the
// apply path has no checkpoint trigger), so on a pfs.MemDir the two
// followers would grow the heap by every replicated byte, ~50 MB/s here,
// burying everything live_heap_mib is meant to show. A follower reads
// its directory only at boot, when it is empty, and on promotion, which
// a clean run never does; a read of discarded bytes fails loudly.
type sinkDir struct {
	mu    sync.Mutex
	files map[string]*sinkFile
}

func newSinkDir() *sinkDir { return &sinkDir{files: map[string]*sinkFile{}} }

type sinkFile struct {
	mu sync.Mutex
	n  int64
}

func (f *sinkFile) Write(p []byte) (int, error) {
	f.mu.Lock()
	f.n += int64(len(p))
	f.mu.Unlock()
	return len(p), nil
}

func (f *sinkFile) Sync() error  { return nil }
func (f *sinkFile) Close() error { return nil }

var errDiscarded = errors.New("sinkdir: file contents are not kept")

func (d *sinkDir) Create(name string) (pfs.LogFile, error) {
	f := &sinkFile{}
	d.mu.Lock()
	d.files[name] = f
	d.mu.Unlock()
	return f, nil
}

func (d *sinkDir) ReadFile(name string) ([]byte, error) {
	d.mu.Lock()
	f, ok := d.files[name]
	d.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("sinkdir: %s: %w", name, fs.ErrNotExist)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.n > 0 {
		return nil, fmt.Errorf("sinkdir: %s: %w", name, errDiscarded)
	}
	return nil, nil
}

func (d *sinkDir) List() ([]string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	names := make([]string, 0, len(d.files))
	for name := range d.files {
		names = append(names, name)
	}
	return names, nil
}

func (d *sinkDir) Rename(oldname, newname string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[oldname]
	if !ok {
		return fmt.Errorf("sinkdir: rename %s: %w", oldname, fs.ErrNotExist)
	}
	d.files[newname] = f
	delete(d.files, oldname)
	return nil
}

func (d *sinkDir) Remove(name string) error {
	d.mu.Lock()
	delete(d.files, name)
	d.mu.Unlock()
	return nil
}

func (d *sinkDir) Sync() error { return nil }
