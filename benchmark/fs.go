package main

import (
	"io/fs"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xpdl/internal/faultfs"
)

// timedFS wraps the daemon's store filesystem. It always counts
// operations and bytes written; while a tracer is attached it also
// records a span per write, fsync, directory fsync and rename, filed
// under the job the path belongs to.
type timedFS struct {
	inner faultfs.FS
	ops   atomic.Int64
	bytes atomic.Int64

	mu   sync.Mutex
	tr   *tracer
	jobs map[string]jobSpan // daemon job id → the client's job span
}

type jobSpan struct {
	id   int64
	span int
}

func newTimedFS(inner faultfs.FS) *timedFS {
	return &timedFS{inner: inner, jobs: map[string]jobSpan{}}
}

// trace attaches tr (nil detaches) and forgets the job map.
func (f *timedFS) trace(tr *tracer) {
	f.mu.Lock()
	f.tr = tr
	f.jobs = map[string]jobSpan{}
	f.mu.Unlock()
}

// adopt files the store operations of daemon job jobID under a span.
func (f *timedFS) adopt(jobID string, js jobSpan) {
	f.mu.Lock()
	f.jobs[jobID] = js
	f.mu.Unlock()
}

// timed runs op, recording a span when tracing.
func (f *timedFS) timed(name, path string, op func() error) error {
	f.ops.Add(1)
	f.mu.Lock()
	tr := f.tr
	js, ok := f.jobs[jobOf(path)]
	f.mu.Unlock()
	if tr == nil {
		return op()
	}
	t0 := time.Now()
	err := op()
	if !ok {
		js = jobSpan{span: -1}
	}
	tr.add(name, js.id, js.span, t0, time.Now())
	return err
}

// jobOf extracts the job id from a store path (<root>/jobs/<id>/...).
func jobOf(path string) string {
	i := strings.Index(path, "/jobs/")
	if i < 0 {
		return ""
	}
	rest := path[i+len("/jobs/"):]
	if j := strings.IndexByte(rest, '/'); j >= 0 {
		return rest[:j]
	}
	return rest
}

func (f *timedFS) MkdirAll(name string, perm fs.FileMode) error {
	f.ops.Add(1)
	return f.inner.MkdirAll(name, perm)
}

func (f *timedFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	f.bytes.Add(int64(len(data)))
	return f.timed("faultfs.WriteFile", name, func() error { return f.inner.WriteFile(name, data, perm) })
}

func (f *timedFS) Sync(name string) error {
	return f.timed("faultfs.Sync", name, func() error { return f.inner.Sync(name) })
}

func (f *timedFS) SyncDir(name string) error {
	return f.timed("faultfs.SyncDir", name, func() error { return f.inner.SyncDir(name) })
}

func (f *timedFS) Rename(oldname, newname string) error {
	return f.timed("faultfs.Rename", newname, func() error { return f.inner.Rename(oldname, newname) })
}

func (f *timedFS) Remove(name string) error {
	f.ops.Add(1)
	return f.inner.Remove(name)
}

func (f *timedFS) ReadFile(name string) ([]byte, error) {
	f.ops.Add(1)
	return f.inner.ReadFile(name)
}

func (f *timedFS) ReadDir(name string) ([]fs.DirEntry, error) {
	f.ops.Add(1)
	return f.inner.ReadDir(name)
}
