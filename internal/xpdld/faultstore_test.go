package xpdld

// The in-process robustness suite for PR 10: torn-state sweeping at
// recovery, graceful degradation under injected storage faults, the
// crash-loop quarantine boundary, load shedding, client retry/backoff,
// quota accounting on the new terminal paths, and the storage-fault
// storm that exercises all of it at once.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"xpdl/internal/faultfs"
)

// waitServerState polls a job on an in-process server (no HTTP) until
// it reaches want, failing on any other terminal state.
func waitServerState(t *testing.T, s *Server, id string, want State) Status {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st, ok := s.JobStatus(id)
		if !ok {
			t.Fatalf("job %s unknown", id)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s: state %s (error %+v), want %s", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s waiting for %s", id, st.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// globTemps lists every *.tmp under a state directory.
func globTemps(t *testing.T, dir string) []string {
	t.Helper()
	var temps []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".tmp") {
			temps = append(temps, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return temps
}

// TestRecoverySweepsTornState pins the crash-point matrix: a daemon
// that died between write-temp and rename leaves torn (or even fully
// valid but unrenamed) *.tmp files beside every artifact kind.
// Recovery must sweep them all and adopt only the renamed versions —
// the done job stays done with its report byte-intact, no matter what
// the temps claim.
func TestRecoverySweepsTornState(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Config{StateDir: dir, Workers: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s1.Submit(Spec{Kind: KindCompile, Design: "base"})
	if err != nil {
		t.Fatal(err)
	}
	id := st.ID
	waitServerState(t, s1, id, StateDone)
	want, err := s1.Store().ReadReport(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Plant crash residue beside every artifact: torn JSON prefixes for
	// spec and report, garbage for the checkpoint, and — the sharpest
	// case — a fully valid status temp that contradicts the real one.
	// If recovery ever read temps, this one would resurrect a done job.
	jd := filepath.Join(dir, "jobs", id)
	lying, err := json.Marshal(Status{ID: id, State: StateRunning, Attempts: 99})
	if err != nil {
		t.Fatal(err)
	}
	plants := map[string][]byte{
		"spec.json.tmp":   []byte(`{"kind": "chao`),
		"status.json.tmp": lying,
		"ckpt.snap.tmp":   {0xde, 0xad, 0xbe, 0xef},
		"report.json.tmp": []byte(`{"kind": "comp`),
	}
	for name, b := range plants {
		if err := os.WriteFile(filepath.Join(jd, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2, err := New(Config{StateDir: dir, Workers: -1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Metrics().Get("xpdld_temps_swept_total"); got != uint64(len(plants)) {
		t.Errorf("temps_swept_total = %d, want %d", got, len(plants))
	}
	if temps := globTemps(t, dir); len(temps) != 0 {
		t.Errorf("temp files survived recovery: %v", temps)
	}
	st2, ok := s2.JobStatus(id)
	if !ok || st2.State != StateDone || st2.Attempts != 0 {
		t.Fatalf("recovered job adopted torn state: %+v", st2)
	}
	got, err := s2.Store().ReadReport(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("report changed across a recovery with planted temps:\n%s\nvs\n%s", got, want)
	}
}

// TestCheckpointWriteFailureDoesNotFailJob pins graceful degradation:
// with every checkpoint write failing, a sim and a cosim job still run
// to done — only recovery granularity is lost, never the job — with
// the failure visible in the checkpoint-write-failures counter and a
// report byte-identical to a healthy run's.
func TestCheckpointWriteFailureDoesNotFailJob(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"sim", Spec{
			Kind: KindChaos, Design: "base", Asm: loopAsm(20_000),
			Seed: 7, Engine: "vm", CheckpointEvery: 2_000, MaxCycles: 5_000_000,
		}},
		{"cosim", Spec{
			Kind: KindCosim, Design: "base", Asm: loopAsm(2_000),
			CheckpointEvery: 500, MaxCycles: 5_000_000,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := runToDone(t, tc.spec)
			ffs := faultfs.New(faultfs.OS(), faultfs.Config{
				Seed:        1,
				WriteErrPct: 100,
				Match:       func(name string) bool { return strings.Contains(name, "ckpt.snap") },
			})
			s, c := newTestServer(t, Config{Workers: 1, FS: ffs, Logf: t.Logf})
			st, err := c.Submit(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, c, st.ID, StateDone)
			got, err := c.Report(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("report under checkpoint-write failures differs from healthy run:\n%s\nvs\n%s", got, want)
			}
			if n := s.Metrics().Get("xpdld_checkpoint_write_failures_total"); n == 0 {
				t.Error("no checkpoint write failures counted under 100%% injection")
			}
			if n := s.Metrics().Get("xpdld_checkpoints_written_total"); n != 0 {
				t.Errorf("%d checkpoints written through a 100%%-failing store", n)
			}
		})
	}
}

// TestReportWriteFailureFailsTyped pins the other side of the line: a
// report that cannot be made durable fails the job with a typed store
// error — done without a durable report would be a lie.
func TestReportWriteFailureFailsTyped(t *testing.T) {
	ffs := faultfs.New(faultfs.OS(), faultfs.Config{
		Seed:        1,
		WriteErrPct: 100,
		Match:       func(name string) bool { return strings.Contains(name, "report.json") },
	})
	s, c := newTestServer(t, Config{Workers: 1, FS: ffs, Logf: t.Logf})
	st, err := c.Submit(Spec{Kind: KindCompile, Design: "base"})
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, c, st.ID, StateFailed)
	if final.Error == nil || final.Error.Kind != ErrStore {
		t.Fatalf("report-write failure surfaced as %+v, want kind %s", final.Error, ErrStore)
	}
	if n := s.Metrics().Get("xpdld_store_write_failures_total"); n == 0 {
		t.Error("store_write_failures_total not bumped")
	}
}

// TestSubmitStoreFailureLeavesNoGhost pins admission durability: when
// the spec cannot be persisted the submission is rejected with a typed
// store error over HTTP 500, and no job — in memory or in listings —
// is left behind, so a client retry is safe.
func TestSubmitStoreFailureLeavesNoGhost(t *testing.T) {
	ffs := faultfs.New(faultfs.OS(), faultfs.Config{
		Seed:        1,
		WriteErrPct: 100,
		Match:       func(name string) bool { return strings.Contains(name, "spec.json") },
	})
	_, c := newTestServer(t, Config{Workers: 1, FS: ffs, Logf: t.Logf})
	_, err := c.Submit(Spec{Kind: KindCompile, Design: "base"})
	if err == nil {
		t.Fatal("submission admitted through a failing store")
	}
	if !strings.Contains(err.Error(), ErrStore) || !strings.Contains(err.Error(), "500") {
		t.Fatalf("submit error = %v, want kind %s over HTTP 500", err, ErrStore)
	}
	jobs, err := c.List("")
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Fatalf("ghost jobs after failed admission: %+v", jobs)
	}
}

// TestQuarantineBoundary pins the crash-loop quarantine at its exact
// boundary: with MaxAttempts=2, a job that is crash-recovered twice is
// still retried, and the third recovery quarantines it. The state is
// sticky across further restarts, refuses a plain resume, frees the
// tenant's quota slot, and yields only to an explicit force-resume,
// which resets the attempt counter and lets the job finish.
func TestQuarantineBoundary(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		StateDir: dir, Workers: -1, MaxAttempts: 2,
		Quota: Quota{MaxActive: 1}, Logf: t.Logf,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(Spec{Kind: KindCompile, Design: "base", Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	id := st.ID
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Two crash recoveries: still queued, attempts counted exactly.
	for i := 1; i <= 2; i++ {
		s, err = New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cur, _ := s.JobStatus(id)
		if cur.State != StateQueued || cur.Attempts != i {
			t.Fatalf("recovery %d: state %s attempts %d, want queued/%d", i, cur.State, cur.Attempts, i)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// The third recovery crosses MaxAttempts: quarantined, exactly once.
	for round := 0; round < 2; round++ { // second round: quarantine is sticky
		s, err = New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cur, _ := s.JobStatus(id)
		if cur.State != StateQuarantined || cur.Attempts != 3 || !cur.Resumable {
			t.Fatalf("round %d: %+v, want quarantined/attempts=3/resumable", round, cur)
		}
		if cur.Error == nil || cur.Error.Kind != ErrQuarantined {
			t.Fatalf("round %d: error %+v, want kind %s", round, cur.Error, ErrQuarantined)
		}
		want := uint64(1 - round) // bumped only when the transition happens
		if got := s.Metrics().Get("xpdld_jobs_quarantined_total"); got != want {
			t.Errorf("round %d: jobs_quarantined_total = %d, want %d", round, got, want)
		}
		if round == 0 {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Quarantine is terminal: the tenant's quota slot is free again.
	if _, err := s.Submit(Spec{Kind: KindCompile, Design: "base", Tenant: "acme"}); err != nil {
		t.Fatalf("quarantine did not free the quota slot: %v", err)
	}

	// A plain resume is refused with the typed kind over HTTP; force
	// succeeds and resets the counter.
	hs := httptest.NewServer(s)
	c := NewClient(hs.URL)
	if _, err := c.Resume(id); err == nil {
		t.Fatal("plain resume accepted a quarantined job")
	} else if !strings.Contains(err.Error(), ErrQuarantined) || !strings.Contains(err.Error(), "409") {
		t.Fatalf("plain resume error = %v, want kind %s over HTTP 409", err, ErrQuarantined)
	}
	forced, err := c.ResumeForce(id)
	if err != nil {
		t.Fatalf("resume -force: %v", err)
	}
	if forced.State != StateQueued || forced.Attempts != 0 || forced.Error != nil {
		t.Fatalf("force-resumed job: %+v, want queued with attempts reset", forced)
	}
	hs.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// With workers back, the force-resumed job completes.
	run, err := New(Config{StateDir: dir, Workers: 2, MaxAttempts: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	waitServerState(t, run, id, StateDone)
}

// TestCanceledJobStaysTerminalAcrossRestart pins that crash recovery
// leaves terminal jobs alone: a canceled job is adopted as history —
// not re-enqueued, no attempt bump, no quota held — and still resumes
// on request afterwards.
func TestCanceledJobStaysTerminalAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{StateDir: dir, Workers: -1, Quota: Quota{MaxActive: 1}, Logf: t.Logf}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(Spec{Kind: KindCompile, Design: "base", Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	id := st.ID
	if _, err := s.Cancel(id); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	cur, _ := s2.JobStatus(id)
	if cur.State != StateCanceled || cur.Attempts != 0 {
		t.Fatalf("canceled job after restart: %+v, want canceled/attempts=0", cur)
	}
	if got := s2.Metrics().Get("xpdld_jobs_recovered_total"); got != 0 {
		t.Errorf("jobs_recovered_total = %d for a terminal-only store, want 0", got)
	}
	// The cancel freed the slot exactly once: one new submission fits,
	// a second is over quota.
	if _, err := s2.Submit(Spec{Kind: KindCompile, Design: "base", Tenant: "acme"}); err != nil {
		t.Fatalf("cancel did not free the quota slot: %v", err)
	}
	if _, err := s2.Submit(Spec{Kind: KindCompile, Design: "base", Tenant: "acme"}); err == nil {
		t.Fatal("quota slot freed more than once")
	}
	if _, err := s2.Resume(id, false); err != nil {
		t.Fatalf("resume after restart: %v", err)
	}
}

// TestOverloadSheds503 pins load shedding and its wire shape: past
// MaxQueue, submissions get 503 with a Retry-After header (global
// saturation), which is distinct from the per-tenant 429.
func TestOverloadSheds503(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: -1, MaxQueue: 2, Logf: t.Logf})
	for i := 0; i < 2; i++ {
		if _, err := c.Submit(Spec{Kind: KindCompile, Design: "base"}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	b, err := json.Marshal(Spec{Kind: KindCompile, Design: "base"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(c.Base+"/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-MaxQueue submit: HTTP %d, want 503", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error.Kind != ErrOverload {
		t.Fatalf("503 body error = %+v (%v), want kind %s", eb.Error, err, ErrOverload)
	}
	if _, err := c.Submit(Spec{Kind: KindCompile, Design: "base"}); err == nil {
		t.Fatal("client submit admitted over MaxQueue")
	} else if !strings.Contains(err.Error(), ErrOverload) {
		t.Fatalf("client overload error = %v, want kind %s", err, ErrOverload)
	}
	if got := s.Metrics().Get("xpdld_overload_denied_total"); got != 2 {
		t.Errorf("overload_denied_total = %d, want 2", got)
	}
}

// TestClientRetryBackoff pins the client's retry layer: off by
// default, retrying 503s until success when enabled, honoring the
// Retry-After hint, and never retrying hard client errors.
func TestClientRetryBackoff(t *testing.T) {
	okBody, err := json.Marshal(Status{ID: "j000001", State: StateDone})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	failures := int32(2)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= failures {
			w.Header().Set("Retry-After", "0")
			writeError(w, http.StatusServiceUnavailable, ErrOverload, "synthetic shed")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(okBody)
	}))
	defer hs.Close()

	// Fail fast by default.
	c := NewClient(hs.URL)
	if _, err := c.Status("j000001"); err == nil {
		t.Fatal("zero RetryFor retried a 503")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("fail-fast made %d requests, want 1", got)
	}

	// With a budget, the third attempt lands.
	calls.Store(0)
	c.RetryFor = 10 * time.Second
	st, err := c.Status("j000001")
	if err != nil {
		t.Fatalf("retrying status: %v", err)
	}
	if st.State != StateDone {
		t.Fatalf("retried status = %+v", st)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("retry made %d requests, want 3", got)
	}

	// A Retry-After hint larger than the backoff stretches the wait.
	calls.Store(0)
	failures = 1
	hsSlow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= failures {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, ErrOverload, "synthetic shed")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(okBody)
	}))
	defer hsSlow.Close()
	cSlow := NewClient(hsSlow.URL)
	cSlow.RetryFor = 10 * time.Second
	start := time.Now()
	if _, err := cSlow.Status("j000001"); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 500*time.Millisecond {
		t.Errorf("Retry-After: 1 honored in %v, want at least half the hint", elapsed)
	}

	// Hard client errors are not retried.
	calls.Store(0)
	hs404 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeError(w, http.StatusNotFound, ErrSpec, "no such job")
	}))
	defer hs404.Close()
	c404 := NewClient(hs404.URL)
	c404.RetryFor = 5 * time.Second
	if _, err := c404.Status("j999999"); err == nil {
		t.Fatal("404 did not error")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("404 retried: %d requests, want 1", got)
	}
}

// stormSpecs is the fault-storm job mix: one of every kind, sized to
// finish fast but checkpoint often enough to exercise every store
// path.
func stormSpecs() []Spec {
	return []Spec{
		{Kind: KindCompile, Design: "base"},
		{Kind: KindSimulate, Design: "base", Asm: loopAsm(20_000),
			Engine: "vm", CheckpointEvery: 2_000, MaxCycles: 5_000_000},
		{Kind: KindChaos, Design: "base", Asm: loopAsm(20_000),
			Seed: 7, Engine: "vm", CheckpointEvery: 2_000, MaxCycles: 5_000_000},
		{Kind: KindCosim, Design: "base", Asm: loopAsm(2_000),
			CheckpointEvery: 500, MaxCycles: 5_000_000},
		{Kind: KindBveq, Design: "base", BveqLen: 1},
	}
}

func stormSeeds() []uint64 {
	env := os.Getenv("XPDLD_STORM_SEEDS")
	if env == "" {
		return []uint64{1, 2, 3}
	}
	var seeds []uint64
	for _, f := range strings.Split(env, ",") {
		if n, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64); err == nil {
			seeds = append(seeds, n)
		}
	}
	return seeds
}

// TestStorageFaultStorm is the in-process torture core (the
// torture-smoke CI gate): the daemon runs every job kind over a store
// that injects the Default fault mix, clients retry through the 500s,
// and every job reaches a terminal state — done with a report
// byte-identical to a fault-free run, or failed with a typed store
// error. A clean restart then sweeps all crash residue and converges
// the rest.
func TestStorageFaultStorm(t *testing.T) {
	specs := stormSpecs()
	baselines := make([][]byte, len(specs))
	for i, sp := range specs {
		baselines[i] = runToDone(t, sp)
	}
	for _, seed := range stormSeeds() {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			ffs := faultfs.New(faultfs.OS(), faultfs.Default(seed))
			s1, err := New(Config{StateDir: dir, Workers: 2, FS: ffs, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			hs := httptest.NewServer(s1)
			c := NewClient(hs.URL)
			c.RetryFor = 30 * time.Second

			ids := make([]string, len(specs))
			for i, sp := range specs {
				st, err := c.Submit(sp)
				if err != nil {
					t.Fatalf("submit %d under faults (with retry): %v", i, err)
				}
				ids[i] = st.ID
			}
			for i, id := range ids {
				st, err := c.Wait(testCtx(t), id)
				if err != nil {
					t.Fatalf("wait %s: %v", id, err)
				}
				switch st.State {
				case StateDone:
					got, err := c.Report(id)
					if err != nil {
						t.Fatalf("done job %s has no readable report: %v", id, err)
					}
					if !bytes.Equal(got, baselines[i]) {
						t.Errorf("job %s: report under faults differs from baseline:\n%s\nvs\n%s", id, got, baselines[i])
					}
				case StateFailed:
					if st.Error == nil || st.Error.Kind != ErrStore {
						t.Errorf("job %s failed untyped under storage faults: %+v", id, st.Error)
					}
				default:
					t.Errorf("job %s: unexpected terminal state %s", id, st.State)
				}
			}
			hs.Close()
			if err := s1.Close(); err != nil {
				t.Fatal(err)
			}
			if ffs.Injected() == 0 {
				t.Fatalf("seed %d injected no faults; the storm tested nothing (stats %v)", seed, ffs.Stats())
			}
			t.Logf("seed %d injected faults: %v", seed, ffs.Stats())

			// Clean restart: crash residue is swept, every job converges
			// terminal, done reports still match the fault-free baseline.
			s2, err := New(Config{StateDir: dir, Workers: 2, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			// Look under the store's write lock: s2's workers are already
			// resuming the recovered jobs, and an atomic write in progress
			// (temp written, not yet renamed) is not crash residue.
			temps := func() []string {
				s2.store.mu.Lock()
				defer s2.store.mu.Unlock()
				return globTemps(t, dir)
			}()
			if len(temps) != 0 {
				t.Errorf("temp files survived the clean restart: %v", temps)
			}
			for i, id := range ids {
				deadline := time.Now().Add(2 * time.Minute)
				for {
					st, ok := s2.JobStatus(id)
					if !ok {
						t.Fatalf("job %s lost across restart", id)
					}
					if st.State.Terminal() {
						switch st.State {
						case StateDone:
							got, err := s2.Store().ReadReport(id)
							if err != nil {
								t.Fatalf("done job %s report unreadable after restart: %v", id, err)
							}
							if !bytes.Equal(got, baselines[i]) {
								t.Errorf("job %s: post-restart report diverged", id)
							}
						case StateFailed:
							if st.Error == nil || st.Error.Kind != ErrStore {
								t.Errorf("job %s failed untyped: %+v", id, st.Error)
							}
						default:
							t.Errorf("job %s: unexpected state %s after clean restart", id, st.State)
						}
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("job %s not terminal after clean restart (state %s)", id, st.State)
					}
					time.Sleep(5 * time.Millisecond)
				}
			}
		})
	}
}
