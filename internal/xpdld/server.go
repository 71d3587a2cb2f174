package xpdld

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"xpdl/internal/faultfs"
)

// Config tunes a Server.
type Config struct {
	// StateDir is the artifact-store root. Required.
	StateDir string
	// Workers is the pool width (default: GOMAXPROCS — the pool
	// saturates all cores; negative: no workers at all, for tests that
	// need jobs to stay queued).
	Workers int
	// CheckpointEvery is the default snapshot interval in cycles for
	// jobs that do not set their own (default 50_000).
	CheckpointEvery int
	// Quota is the per-tenant admission policy.
	Quota Quota
	// MaxQueue bounds the global admission queue (default 256): a
	// submission that would push the queued-job count past it is shed
	// with a 503 + Retry-After instead of admitted — saturation
	// degrades into client backoff, not unbounded memory growth.
	MaxQueue int
	// MaxAttempts bounds crash-loop retries (default 3): a job
	// re-enqueued by crash recovery more than this many times without
	// writing a checkpoint is quarantined instead of retried.
	MaxAttempts int
	// FS is the artifact store's filesystem (default: the real one).
	// The torture suite plugs a faultfs.Faulty in here.
	FS faultfs.FS
	// Logf receives operational log lines (degradation events,
	// recovery sweeps). Default: the standard logger.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Workers < 0 {
		c.Workers = 0
	} else if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 50_000
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	c.Quota = c.Quota.withDefaults()
	return c
}

// job is the in-memory record of one job. The persisted Status in the
// store mirrors it at every transition.
type job struct {
	id   string
	spec Spec

	mu        sync.Mutex
	state     State
	progress  Progress
	attempts  int // crash-recovery re-enqueues since last durable progress
	jerr      *JobError
	resumable bool
	cancel    context.CancelFunc // non-nil while running
	preempt   bool               // shutdown preemption, not user cancel
	watchers  []chan Status
}

// statusLocked snapshots the job; j.mu must be held.
func (j *job) statusLocked() Status {
	return Status{
		ID:        j.id,
		Spec:      j.spec,
		State:     j.state,
		Progress:  j.progress,
		Attempts:  j.attempts,
		Error:     j.jerr,
		Resumable: j.resumable,
	}
}

// Status snapshots the job.
func (j *job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

// publishLocked fans a status out to every watcher; j.mu must be held.
// Sends never block (a slow watcher drops intermediate updates); a
// terminal status closes every watcher channel, and the event handler
// re-reads the final status after the close, so the last word is never
// lost to a full buffer.
func (j *job) publishLocked(st Status) {
	for _, ch := range j.watchers {
		select {
		case ch <- st:
		default:
		}
	}
	if st.State.Terminal() {
		for _, ch := range j.watchers {
			close(ch)
		}
		j.watchers = nil
	}
}

// subscribe registers a watcher and returns it with the current status.
func (j *job) subscribe() (chan Status, Status) {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.statusLocked()
	if st.State.Terminal() {
		return nil, st
	}
	ch := make(chan Status, 16)
	j.watchers = append(j.watchers, ch)
	return ch, st
}

// unsubscribe removes a watcher (the events handler's client went away).
func (j *job) unsubscribe(ch chan Status) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i, w := range j.watchers {
		if w == ch {
			j.watchers = append(j.watchers[:i], j.watchers[i+1:]...)
			return
		}
	}
}

// Server is the simulation service: an artifact store, a compile
// cache, a worker pool, and the HTTP API over them. It implements
// http.Handler.
type Server struct {
	cfg     Config
	store   *Store
	cache   *Cache
	metrics *Metrics
	mux     *http.ServeMux

	mu      sync.Mutex
	cond    *sync.Cond
	jobs    map[string]*job
	order   []string // submission order, for listing
	pending []*job   // FIFO run queue
	seq     int
	closing bool

	busy atomic.Int64
	wg   sync.WaitGroup
}

// New opens the state directory, recovers any jobs a previous process
// left queued or running, and starts the worker pool.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.StateDir == "" {
		return nil, errors.New("xpdld: Config.StateDir is required")
	}
	store, err := OpenStoreFS(cfg.StateDir, cfg.FS)
	if err != nil {
		return nil, err
	}
	metrics := NewMetrics()
	s := &Server{
		cfg:     cfg,
		store:   store,
		cache:   NewCache(metrics),
		metrics: metrics,
		jobs:    make(map[string]*job),
	}
	s.cond = sync.NewCond(&s.mu)
	if err := s.recover(); err != nil {
		return nil, err
	}
	s.routes()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// recover scans the store and adopts every persisted job: terminal
// jobs as history, queued/running jobs back onto the run queue — a
// job that was mid-flight when the process died resumes from its last
// checkpoint with the work before it intact. Each re-enqueue bumps the
// job's attempt counter; a job past MaxAttempts with no durable
// progress in between is crash-looping (it, or the state it restores,
// kills the daemon every time) and is quarantined instead of being
// retried forever. Stranded temp files from interrupted writes are
// swept first — they are never read, so this is hygiene, not safety.
func (s *Server) recover() error {
	if n, err := s.store.SweepTemps(); err == nil && n > 0 {
		s.metrics.Add("xpdld_temps_swept_total", uint64(n))
		s.cfg.Logf("xpdld: recovery swept %d stranded temp file(s)", n)
	}
	ids, err := s.store.Jobs()
	if err != nil {
		return err
	}
	for _, id := range ids {
		sp, err := s.store.ReadSpec(id)
		if errors.Is(err, os.ErrNotExist) {
			// A job directory with no durable spec is the residue of an
			// admission whose spec write failed — the client saw an error
			// and no status was ever written, so nothing was promised.
			// Skip it, but burn its sequence number so a fresh submission
			// never reuses the haunted ID.
			s.metrics.Inc("xpdld_ghost_jobs_skipped_total")
			s.cfg.Logf("xpdld: recover: skipping %s (no durable spec; admission never completed)", id)
			if n := jobSeq(id); n > s.seq {
				s.seq = n
			}
			continue
		}
		if err != nil {
			return fmt.Errorf("xpdld: recover %s: %w", id, err)
		}
		j := &job{id: id, spec: sp, state: StateQueued}
		if st, err := s.store.ReadStatus(id); err == nil {
			j.progress = st.Progress
			j.attempts = st.Attempts
			if st.State.Terminal() {
				j.state = st.State
				j.jerr = st.Error
				j.resumable = st.Resumable
			}
		} else if !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("xpdld: recover %s: %w", id, err)
		}
		s.jobs[id] = j
		s.order = append(s.order, id)
		if n := jobSeq(id); n > s.seq {
			s.seq = n
		}
		if j.state.Terminal() {
			continue
		}
		j.attempts++
		if j.attempts > s.cfg.MaxAttempts {
			j.state = StateQuarantined
			j.resumable = true
			j.jerr = &JobError{Kind: ErrQuarantined, Detail: fmt.Sprintf(
				"crash-looping: %d recovery attempts without durable progress (limit %d); resume -force to retry",
				j.attempts, s.cfg.MaxAttempts)}
			s.metrics.Inc("xpdld_jobs_quarantined_total")
			s.cfg.Logf("xpdld: %s quarantined after %d crash-recovery attempts", id, j.attempts)
		} else {
			s.pending = append(s.pending, j)
			s.metrics.Inc("xpdld_jobs_recovered_total")
		}
		// Persisting the bumped attempt counter (or the quarantine) may
		// itself hit a failing disk; that must not stop recovery — the
		// in-memory queue is correct, and the next transition retries
		// the write.
		if err := s.store.WriteStatus(id, j.Status()); err != nil {
			s.metrics.Inc("xpdld_store_write_failures_total")
			s.cfg.Logf("xpdld: recover %s: status write failed (continuing): %v", id, err)
		}
	}
	return nil
}

// Metrics exposes the counter registry (the runner and tests use it).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Store exposes the artifact store (tests corrupt checkpoints in it).
func (s *Server) Store() *Store { return s.store }

// Close shuts the pool down gracefully: running jobs are preempted at
// their next cycle boundary, checkpointed, and persisted back to
// queued — the next process on this state directory picks them up with
// no lost work. Blocks until every worker has exited.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closing = true
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.cancel != nil {
			j.preempt = true
			j.cancel()
		}
		j.mu.Unlock()
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// Submit admits a job: normalize the spec, shed load if the admission
// queue is full, check the tenant quota, persist, enqueue. A store
// failure while persisting rejects the submission with a typed store
// error and leaves no ghost job behind.
func (s *Server) Submit(sp Spec) (Status, error) {
	if jerr := sp.normalize(s.cfg); jerr != nil {
		return Status{}, jerr
	}
	s.mu.Lock()
	if len(s.pending) >= s.cfg.MaxQueue {
		queued := len(s.pending)
		s.mu.Unlock()
		s.metrics.Inc("xpdld_overload_denied_total")
		return Status{}, &OverloadError{Queued: queued, Limit: s.cfg.MaxQueue, RetryAfter: time.Second}
	}
	active := 0
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.spec.Tenant == sp.Tenant && !j.state.Terminal() {
			active++
		}
		j.mu.Unlock()
	}
	if active >= s.cfg.Quota.MaxActive {
		s.mu.Unlock()
		s.metrics.Inc("xpdld_quota_denied_total")
		return Status{}, &QuotaError{Tenant: sp.Tenant, Active: active, Limit: s.cfg.Quota.MaxActive}
	}
	s.seq++
	id := FormatID(s.seq)
	j := &job{id: id, spec: sp, state: StateQueued}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()

	// Persist before enqueueing: a worker must never observe (or
	// outrun the durability of) a job the store has not admitted.
	st := j.Status()
	err := s.store.CreateJob(id, sp)
	if err == nil {
		err = s.store.WriteStatus(id, st)
	}
	if err != nil {
		s.metrics.Inc("xpdld_store_write_failures_total")
		s.mu.Lock()
		delete(s.jobs, id)
		if n := len(s.order); n > 0 && s.order[n-1] == id {
			s.order = s.order[:n-1]
		}
		s.mu.Unlock()
		return Status{}, storeErr(err)
	}
	s.mu.Lock()
	s.pending = append(s.pending, j)
	s.cond.Signal()
	s.mu.Unlock()
	s.metrics.Inc(fmt.Sprintf("xpdld_jobs_submitted_total{kind=%q}", sp.Kind))
	return st, nil
}

// jobByID looks a job up.
func (s *Server) jobByID(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// JobStatus looks a job's status up.
func (s *Server) JobStatus(id string) (Status, bool) {
	j, ok := s.jobByID(id)
	if !ok {
		return Status{}, false
	}
	return j.Status(), true
}

// Cancel stops a job. A queued job goes terminal immediately; a
// running one is interrupted at its next cycle boundary, where the
// runner persists a resumable checkpoint. Terminal jobs return an
// error.
func (s *Server) Cancel(id string) (Status, error) {
	j, ok := s.jobByID(id)
	if !ok {
		return Status{}, os.ErrNotExist
	}
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		j.state = StateCanceled
		j.resumable = true
		j.jerr = &JobError{Kind: "canceled", Detail: "canceled while queued"}
		st := j.statusLocked()
		j.publishLocked(st)
		j.mu.Unlock()
		s.metrics.Inc("xpdld_jobs_canceled_total")
		_ = s.store.WriteStatus(id, st)
		return st, nil
	case StateRunning:
		j.cancel()
		st := j.statusLocked()
		j.mu.Unlock()
		return st, nil
	default:
		st := j.statusLocked()
		j.mu.Unlock()
		return st, fmt.Errorf("job %s is already %s", id, st.State)
	}
}

// Resume re-enqueues a canceled job. It restarts from its persisted
// checkpoint when one exists, from scratch otherwise; either way the
// final report is identical to an uninterrupted run's. A quarantined
// job resumes only with force — the explicit human override that
// breaks a crash-loop quarantine — which also resets its attempt
// counter.
func (s *Server) Resume(id string, force bool) (Status, error) {
	j, ok := s.jobByID(id)
	if !ok {
		return Status{}, os.ErrNotExist
	}
	j.mu.Lock()
	switch {
	case j.state == StateCanceled:
	case j.state == StateQuarantined && force:
	case j.state == StateQuarantined:
		st := j.statusLocked()
		j.mu.Unlock()
		return st, fmt.Errorf("job %s is quarantined after %d crash-recovery attempts; resume -force to retry", id, st.Attempts)
	default:
		st := j.statusLocked()
		j.mu.Unlock()
		return st, fmt.Errorf("job %s is %s, only canceled jobs resume", id, st.State)
	}
	j.state = StateQueued
	j.jerr = nil
	j.attempts = 0
	st := j.statusLocked()
	j.mu.Unlock()
	if err := s.store.WriteStatus(id, st); err != nil {
		return st, err
	}
	s.mu.Lock()
	s.pending = append(s.pending, j)
	s.cond.Signal()
	s.mu.Unlock()
	return st, nil
}

// next blocks until a queued job is available; nil means shutdown.
func (s *Server) next() *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closing {
			return nil
		}
		for len(s.pending) > 0 {
			j := s.pending[0]
			s.pending = s.pending[1:]
			j.mu.Lock()
			queued := j.state == StateQueued
			j.mu.Unlock()
			if queued {
				return j
			}
		}
		s.cond.Wait()
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j := s.next()
		if j == nil {
			return
		}
		s.exec(j)
	}
}

// exec runs one job from queued to its next persisted state.
func (s *Server) exec(j *job) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j.mu.Lock()
	if j.state != StateQueued { // canceled while pending
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.cancel = cancel
	st := j.statusLocked()
	j.publishLocked(st)
	j.mu.Unlock()
	_ = s.store.WriteStatus(j.id, st)

	s.busy.Add(1)
	out := s.run(ctx, j)
	s.busy.Add(-1)

	// The report is made durable BEFORE the job is published as done:
	// a client that observes done can always fetch the report, and a
	// crash between the two writes recovers as a running job that
	// reruns to the same canonical bytes. A report that cannot be
	// persisted fails the job with a typed store error — done without
	// a durable report would be a lie.
	if !out.canceled && out.jerr == nil && out.report != nil {
		b, err := out.report.Canon()
		if err == nil {
			err = s.store.WriteReport(j.id, b)
		}
		if err != nil {
			s.metrics.Inc("xpdld_store_write_failures_total")
			s.cfg.Logf("xpdld: %s: report write failed: %v", j.id, err)
			out.jerr = storeErr(err)
		}
	}

	j.mu.Lock()
	j.cancel = nil
	preempt := j.preempt
	j.preempt = false
	switch {
	case out.canceled && preempt:
		// Graceful shutdown: back to queued, to be recovered by the
		// next process on this state directory.
		j.state = StateQueued
		s.metrics.Inc("xpdld_jobs_preempted_total")
	case out.canceled:
		j.state = StateCanceled
		j.resumable = true
		j.jerr = &JobError{Kind: "canceled", Detail: "canceled by request"}
		s.metrics.Inc("xpdld_jobs_canceled_total")
	case out.jerr != nil:
		j.state = StateFailed
		j.jerr = out.jerr
		s.metrics.Inc(fmt.Sprintf("xpdld_jobs_failed_total{kind=%q}", out.jerr.Kind))
	default:
		j.state = StateDone
		j.jerr = nil
		s.metrics.Inc("xpdld_jobs_done_total")
	}
	st = j.statusLocked()
	j.publishLocked(st)
	j.mu.Unlock()

	if err := s.store.WriteStatus(j.id, st); err != nil {
		// The terminal state lives in memory and on the event stream; a
		// crash before a later successful write reruns the job, which
		// converges on the same canonical outcome.
		s.metrics.Inc("xpdld_store_write_failures_total")
		s.cfg.Logf("xpdld: %s: status write failed (in-memory state %s stands): %v", j.id, st.State, err)
	}
}

// gauges renders the live (non-monotonic) series.
func (s *Server) gauges() map[string]uint64 {
	g := map[string]uint64{
		"xpdld_workers":                   uint64(s.cfg.Workers),
		"xpdld_workers_busy":              uint64(s.busy.Load()),
		"xpdld_designs_cached":            uint64(s.cache.Len()),
		"xpdld_checkpoint_lag_cycles_max": 0,
	}
	for _, state := range States() {
		g[fmt.Sprintf("xpdld_jobs{state=%q}", state)] = 0
	}
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	var maxLag uint64
	for _, j := range jobs {
		j.mu.Lock()
		g[fmt.Sprintf("xpdld_jobs{state=%q}", j.state)]++
		if j.state == StateRunning {
			if lag := j.progress.Cycle - j.progress.CheckpointCycle; lag > 0 && uint64(lag) > maxLag {
				maxLag = uint64(lag)
			}
		}
		j.mu.Unlock()
	}
	g["xpdld_checkpoint_lag_cycles_max"] = maxLag
	return g
}

// ---------------------------------------------------------------------------
// HTTP API

func (s *Server) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /jobs/{id}/resume", s.handleResume)
	mux.HandleFunc("GET /jobs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux = mux
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// writeJSON emits a JSON body with a status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// errorBody is the wire shape of every API error.
type errorBody struct {
	Error JobError `json:"error"`
}

func writeError(w http.ResponseWriter, code int, kind, detail string) {
	writeJSON(w, code, errorBody{Error: JobError{Kind: kind, Detail: detail}})
}

// maxSpecBytes bounds a submitted spec's JSON body. Real specs, design
// source included, are tens of KiB; a larger body is refused with 413
// before any of it is decoded into a job.
const maxSpecBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var sp Spec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes)).Decode(&sp); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, ErrSpec,
				fmt.Sprintf("spec body exceeds %d bytes", maxSpecBytes))
			return
		}
		writeError(w, http.StatusBadRequest, ErrSpec, "bad JSON: "+err.Error())
		return
	}
	st, err := s.Submit(sp)
	if err != nil {
		var qe *QuotaError
		var oe *OverloadError
		var je *JobError
		switch {
		case errors.As(err, &qe):
			// Per-tenant quota: this tenant is over ITS limit; the
			// daemon has capacity. 429, no Retry-After — admission
			// reopens when the tenant's own jobs go terminal.
			writeError(w, http.StatusTooManyRequests, ErrQuota, qe.Error())
		case errors.As(err, &oe):
			// Global saturation: everyone backs off. 503 + Retry-After.
			secs := int(oe.RetryAfter / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			writeError(w, http.StatusServiceUnavailable, ErrOverload, oe.Error())
		case errors.As(err, &je) && je.Kind == ErrStore:
			// Transient persistence failure; the submission left no
			// trace, so a retry is safe.
			writeError(w, http.StatusInternalServerError, ErrStore, je.Detail)
		case errors.As(err, &je):
			writeError(w, http.StatusBadRequest, je.Kind, je.Detail)
		default:
			writeError(w, http.StatusInternalServerError, ErrRun, err.Error())
		}
		return
	}
	writeJSON(w, http.StatusCreated, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	tenant := r.URL.Query().Get("tenant")
	s.mu.Lock()
	order := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]Status, 0, len(order))
	for _, id := range order {
		if j, ok := s.jobByID(id); ok {
			st := j.Status()
			if tenant == "" || st.Spec.Tenant == tenant {
				out = append(out, st)
			}
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*job, bool) {
	j, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ErrSpec, "no such job "+r.PathValue("id"))
		return nil, false
	}
	return j, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	st, err := s.Cancel(j.id)
	if err != nil {
		writeError(w, http.StatusConflict, ErrSpec, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	force := r.URL.Query().Get("force") == "1"
	st, err := s.Resume(j.id, force)
	if err != nil {
		kind := ErrSpec
		if st.State == StateQuarantined {
			kind = ErrQuarantined
		}
		writeError(w, http.StatusConflict, kind, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if st := j.Status(); st.State != StateDone {
		writeError(w, http.StatusConflict, ErrSpec,
			fmt.Sprintf("job %s is %s; reports exist only for done jobs", j.id, st.State))
		return
	}
	b, err := s.store.ReadReport(j.id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, ErrRun, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(b)
}

// handleEvents streams newline-delimited status JSON until the job is
// terminal or the client disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	emit := func(st Status) {
		b, _ := json.Marshal(st)
		_, _ = w.Write(append(b, '\n'))
		if flusher != nil {
			flusher.Flush()
		}
	}
	ch, cur := j.subscribe()
	emit(cur)
	if ch == nil {
		return
	}
	for {
		select {
		case st, open := <-ch:
			if !open {
				emit(j.Status()) // terminal close: re-read the final word
				return
			}
			emit(st)
			if st.State.Terminal() {
				j.unsubscribe(ch)
				return
			}
		case <-r.Context().Done():
			j.unsubscribe(ch)
			return
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.metrics.Render(w, s.gauges())
}
