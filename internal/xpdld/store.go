package xpdld

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"xpdl/internal/faultfs"
	"xpdl/internal/snap"
)

// Store is the daemon's on-disk artifact store. Every job owns one
// directory under <root>/jobs/:
//
//	jobs/<id>/spec.json    — the normalized spec, written once at admit
//	jobs/<id>/status.json  — the latest status, rewritten on transitions
//	jobs/<id>/ckpt.snap    — the newest checkpoint (sim snapshot or
//	                         cosim combined checkpoint)
//	jobs/<id>/report.json  — the canonical report, written before the
//	                         job is marked done
//
// Every write is write-temp, fsync, rename, fsync-parent-directory: a
// crash at any byte offset — process SIGKILL or power loss — leaves
// either the previous version or the new one, fully durable, never a
// torn file. The only crash residue is a stranded *.tmp, which the
// recovery sweep removes; temp files are never read, so torn state is
// structurally unadoptable. All I/O goes through a faultfs.FS, which
// is how the torture suite attacks every one of these paths with
// injected ENOSPC/EIO/short-write/fsync faults. Checkpoint integrity
// is not verified here — the snapshot container's own CRC/version
// checks do that on restore, and the runner surfaces their typed
// errors in the job status.
type Store struct {
	root string
	fs   faultfs.FS
	// mu serializes writes: temp names are deterministic (path + ".tmp")
	// so the fault injector can target them, which means two concurrent
	// writers of the same file would race on the same temp. Writes are
	// small and rare; serializing them is cheaper than unique names.
	mu sync.Mutex
}

// OpenStoreFS creates/opens the store over an explicit filesystem —
// the fault-injection seam.
func OpenStoreFS(dir string, fsys faultfs.FS) (*Store, error) {
	if fsys == nil {
		fsys = faultfs.OS()
	}
	if err := fsys.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		return nil, err
	}
	return &Store{root: dir, fs: fsys}, nil
}

func (s *Store) jobDir(id string) string { return filepath.Join(s.root, "jobs", id) }

// storeErr wraps a persistence failure in the typed job-error taxonomy.
func storeErr(err error) *JobError {
	return &JobError{Kind: ErrStore, Detail: err.Error()}
}

// atomicWrite persists data at path durably: same-directory temp file,
// fsync the contents, rename over the destination, fsync the parent
// directory so the rename itself survives power loss. Any failure
// leaves the destination untouched (old version or absent) and
// best-effort removes the temp; a temp stranded by a crash or a failed
// remove is swept at the next recovery.
func (s *Store) atomicWrite(path string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	tmp := path + ".tmp"
	if err := s.fs.WriteFile(tmp, data, 0o644); err != nil {
		_ = s.fs.Remove(tmp)
		return err
	}
	if err := s.fs.Sync(tmp); err != nil {
		_ = s.fs.Remove(tmp)
		return err
	}
	if err := s.fs.Rename(tmp, path); err != nil {
		_ = s.fs.Remove(tmp)
		return err
	}
	return s.fs.SyncDir(filepath.Dir(path))
}

// CreateJob allocates the job directory and persists its spec.
func (s *Store) CreateJob(id string, sp Spec) error {
	if err := s.fs.MkdirAll(s.jobDir(id), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(sp, "", "  ")
	if err != nil {
		return err
	}
	return s.atomicWrite(filepath.Join(s.jobDir(id), "spec.json"), b)
}

// ReadSpec loads a job's spec.
func (s *Store) ReadSpec(id string) (Spec, error) {
	var sp Spec
	b, err := s.fs.ReadFile(filepath.Join(s.jobDir(id), "spec.json"))
	if err != nil {
		return sp, err
	}
	return sp, json.Unmarshal(b, &sp)
}

// WriteStatus persists a job's status.
func (s *Store) WriteStatus(id string, st Status) error {
	b, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	return s.atomicWrite(filepath.Join(s.jobDir(id), "status.json"), b)
}

// ReadStatus loads a job's persisted status.
func (s *Store) ReadStatus(id string) (Status, error) {
	var st Status
	b, err := s.fs.ReadFile(filepath.Join(s.jobDir(id), "status.json"))
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(b, &st)
}

// WriteCheckpoint persists the newest checkpoint blob.
func (s *Store) WriteCheckpoint(id string, data []byte) error {
	return s.atomicWrite(filepath.Join(s.jobDir(id), "ckpt.snap"), data)
}

// ReadCheckpoint loads the newest checkpoint; ok is false when the job
// has none.
func (s *Store) ReadCheckpoint(id string) (data []byte, ok bool, err error) {
	b, err := s.fs.ReadFile(filepath.Join(s.jobDir(id), "ckpt.snap"))
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return b, true, nil
}

// CheckpointPath exposes the checkpoint location (the corruption tests
// flip bits in it through this).
func (s *Store) CheckpointPath(id string) string {
	return filepath.Join(s.jobDir(id), "ckpt.snap")
}

// WriteReport persists the canonical report bytes.
func (s *Store) WriteReport(id string, data []byte) error {
	return s.atomicWrite(filepath.Join(s.jobDir(id), "report.json"), data)
}

// ReadReport loads the canonical report bytes.
func (s *Store) ReadReport(id string) ([]byte, error) {
	return s.fs.ReadFile(filepath.Join(s.jobDir(id), "report.json"))
}

// Jobs lists persisted job IDs in ascending numeric order.
func (s *Store) Jobs() ([]string, error) {
	ents, err := s.fs.ReadDir(filepath.Join(s.root, "jobs"))
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range ents {
		if e.IsDir() && strings.HasPrefix(e.Name(), "j") {
			ids = append(ids, e.Name())
		}
	}
	sort.Slice(ids, func(i, j int) bool { return jobSeq(ids[i]) < jobSeq(ids[j]) })
	return ids, nil
}

// SweepTemps removes stranded *.tmp files from every job directory —
// the residue of a process that died (or a device that errored)
// between writing a temp file and renaming it into place. Returns how
// many were removed. Removal failures are counted but not fatal: a
// temp that survives a sweep is retried at the next one, and is never
// read meanwhile.
func (s *Store) SweepTemps() (removed int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids, err := s.Jobs()
	if err != nil {
		return 0, err
	}
	for _, id := range ids {
		ents, err := s.fs.ReadDir(s.jobDir(id))
		if err != nil {
			continue
		}
		for _, e := range ents {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".tmp") {
				continue
			}
			if rerr := s.fs.Remove(filepath.Join(s.jobDir(id), e.Name())); rerr == nil {
				removed++
			}
		}
	}
	return removed, nil
}

// FormatID renders a sequence number as a job ID.
func FormatID(seq int) string { return fmt.Sprintf("j%06d", seq) }

// jobSeq parses the sequence number out of a job ID (0 when malformed).
func jobSeq(id string) int {
	n, _ := strconv.Atoi(strings.TrimLeft(strings.TrimPrefix(id, "j"), "0"))
	return n
}

// classifySnapshotErr maps a checkpoint-restore failure onto the job
// error taxonomy: the snapshot container's typed version/corruption
// errors keep their identity, and anything else (a fingerprint
// mismatch, a torn read) is reported as corruption — the job's
// checkpoint is unusable either way, and the status must say so
// rather than panic or silently restart.
func classifySnapshotErr(err error) *JobError {
	var ve *snap.VersionError
	if errors.As(err, &ve) {
		return &JobError{Kind: ErrSnapVersion, Detail: err.Error()}
	}
	return &JobError{Kind: ErrSnapCorrupt, Detail: err.Error()}
}
