package xpdld

// Cancellation, corruption and recovery: DELETE mid-run leaves a
// resumable job whose resumed report is byte-identical to an
// uninterrupted run; a corrupted or future-version checkpoint surfaces
// as a typed error in the job's status (never a panic); a gracefully
// preempted server hands its running jobs to the next daemon on the
// same state directory.

import (
	"os"
	"testing"
	"time"
)

// runToDone submits a spec on a fresh server and returns the canonical
// report bytes of its uninterrupted run.
func runToDone(t *testing.T, sp Spec) []byte {
	t.Helper()
	_, c := newTestServer(t, Config{Workers: 2})
	st, err := c.Submit(sp)
	if err != nil {
		t.Fatalf("baseline submit: %v", err)
	}
	waitState(t, c, st.ID, StateDone)
	b, err := c.Report(st.ID)
	if err != nil {
		t.Fatalf("baseline report: %v", err)
	}
	return b
}

// cancelAtCheckpoint streams a job's events and cancels it as soon as
// its first checkpoint lands, returning the terminal status.
func cancelAtCheckpoint(t *testing.T, c *Client, id string) Status {
	t.Helper()
	sent := false
	st, err := c.Events(testCtx(t), id, func(ev Status) bool {
		if !sent && ev.Progress.Checkpoints >= 1 {
			sent = true
			if _, err := c.Cancel(id); err != nil {
				t.Errorf("cancel: %v", err)
			}
		}
		return true
	})
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	if !sent {
		t.Fatalf("job %s went terminal (%s) before its first checkpoint", id, st.State)
	}
	return st
}

// TestCancelResumeEquivalence pins satellite 4: DELETE cancels a
// running sim or cosim job at a snapshot boundary, the job stays
// resumable, and the resumed run's report is byte-identical to an
// uninterrupted one.
func TestCancelResumeEquivalence(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"chaos", Spec{
			Kind: KindChaos, Design: "all", Asm: loopAsm(60_000),
			Seed: 9, CheckpointEvery: 4_000, MaxCycles: 5_000_000,
		}},
		{"cosim", Spec{
			Kind: KindCosim, Design: "base", Asm: loopAsm(4_000),
			CheckpointEvery: 1_000, MaxCycles: 5_000_000,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := runToDone(t, tc.spec)

			s, c := newTestServer(t, Config{Workers: 2})
			st, err := c.Submit(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			id := st.ID
			st = cancelAtCheckpoint(t, c, id)
			if st.State != StateCanceled || !st.Resumable {
				t.Fatalf("canceled job: state %s resumable %v, want canceled+resumable", st.State, st.Resumable)
			}
			if _, err := os.Stat(s.Store().CheckpointPath(id)); err != nil {
				t.Fatalf("canceled job left no checkpoint: %v", err)
			}

			if _, err := c.Resume(id); err != nil {
				t.Fatalf("resume: %v", err)
			}
			waitState(t, c, id, StateDone)
			got, err := c.Report(id)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("resumed report differs from uninterrupted run:\n%s\nvs\n%s", got, want)
			}
		})
	}
}

// TestCosimCheckpointProgressAcrossResume pins that a cosim job's
// reported checkpoint cycle is absolute: canceled after its second
// checkpoint and resumed, the job's Progress.CheckpointCycle never goes
// backwards on the events streams of either run.
func TestCosimCheckpointProgressAcrossResume(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	st, err := c.Submit(Spec{
		Kind: KindCosim, Design: "base", Asm: loopAsm(4_000),
		CheckpointEvery: 1_000, MaxCycles: 5_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	id := st.ID
	var seen []int
	record := func(ev Status) {
		if n := len(seen); n == 0 || ev.Progress.CheckpointCycle != seen[n-1] {
			seen = append(seen, ev.Progress.CheckpointCycle)
		}
	}
	sent := false
	st, err = c.Events(testCtx(t), id, func(ev Status) bool {
		record(ev)
		// Cancel past the second checkpoint, so the resumed run's first
		// checkpoint is not also the run's second.
		if !sent && ev.Progress.Checkpoints >= 2 {
			sent = true
			if _, err := c.Cancel(id); err != nil {
				t.Errorf("cancel: %v", err)
			}
		}
		return true
	})
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	if st.State != StateCanceled || !st.Resumable {
		t.Fatalf("canceled job: state %s resumable %v, want canceled+resumable", st.State, st.Resumable)
	}
	if _, err := c.Resume(id); err != nil {
		t.Fatalf("resume: %v", err)
	}
	st, err = c.Events(testCtx(t), id, func(ev Status) bool { record(ev); return true })
	if err != nil {
		t.Fatalf("events after resume: %v", err)
	}
	if st.State != StateDone {
		t.Fatalf("resumed job ended %s (error %+v), want done", st.State, st.Error)
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] < seen[i-1] {
			t.Fatalf("checkpoint cycle went backwards across the resume: %v", seen)
		}
	}
	if len(seen) < 3 {
		t.Fatalf("too few checkpoint cycles observed to cover the resume: %v", seen)
	}
}

// TestPreemptRestartCompletes pins graceful preemption: Close()
// checkpoints running jobs back to queued, and a new server on the same
// state directory recovers and finishes them with the uninterrupted
// report.
func TestPreemptRestartCompletes(t *testing.T) {
	sp := Spec{
		Kind: KindChaos, Design: "base", Asm: loopAsm(120_000),
		Seed: 5, Engine: "vm", CheckpointEvery: 5_000, MaxCycles: 5_000_000,
	}
	start := time.Now()
	want := runToDone(t, sp)
	uninterrupted := time.Since(start)

	dir := t.TempDir()
	cfg := Config{StateDir: dir, Workers: 2}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s1.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	id := st.ID
	deadline := time.Now().Add(time.Minute)
	for {
		cur, ok := s1.JobStatus(id)
		if ok && cur.Progress.Checkpoints >= 1 {
			break
		}
		if cur.State.Terminal() {
			t.Fatalf("job went terminal before first checkpoint: %+v", cur)
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint within a minute")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := s1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// The preempted job is persisted as queued, not canceled or lost.
	onDisk, err := s1.Store().ReadStatus(id)
	if err != nil {
		t.Fatal(err)
	}
	if onDisk.State != StateQueued {
		t.Fatalf("preempted job persisted as %s, want queued", onDisk.State)
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Metrics().Get("xpdld_jobs_recovered_total"); got != 1 {
		t.Errorf("jobs_recovered_total = %d, want 1", got)
	}
	// The recovered run repeats at most the whole job, so its budget
	// scales with the uninterrupted run's duration: a slow host (or the
	// race detector) stretches both alike.
	budget := max(time.Minute, 3*uninterrupted)
	deadline = time.Now().Add(budget)
	for {
		cur, ok := s2.JobStatus(id)
		if !ok {
			t.Fatalf("job %s unknown to the recovered server", id)
		}
		if cur.State.Terminal() {
			if cur.State != StateDone {
				t.Fatalf("recovered job: %+v", cur)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered job did not finish within %v", budget)
		}
		time.Sleep(5 * time.Millisecond)
	}
	got, err := s2.Store().ReadReport(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("recovered report differs from uninterrupted run:\n%s\nvs\n%s", got, want)
	}
	if got := s2.Metrics().Get("xpdld_jobs_resumed_total"); got == 0 {
		t.Error("recovered job did not resume from its checkpoint")
	}
}

// TestCheckpointCorruption pins satellite 2: a truncated blob, a bit
// flip, and a future-version stamp in a job's checkpoint each fail the
// resumed job with the matching typed error in its status JSON — and
// the daemon survives to run the next job.
func TestCheckpointCorruption(t *testing.T) {
	cases := []struct {
		name    string
		kind    string // job kind carrying the checkpoint
		corrupt func(b []byte) []byte
		errKind string
	}{
		{"truncated", KindChaos, func(b []byte) []byte {
			return b[:len(b)/2]
		}, ErrSnapCorrupt},
		{"crc-flip", KindChaos, func(b []byte) []byte {
			b[len(b)-9] ^= 0x01 // last payload byte, just before the CRC trailer
			return b
		}, ErrSnapCorrupt},
		{"future-version", KindChaos, func(b []byte) []byte {
			b[4] = 0x63 // version varint right after the 4-byte magic
			return b
		}, ErrSnapVersion},
		// The cosim path restores inside cosim.Run; its snap errors must
		// keep their identity through classifyRunErr.
		{"cosim-truncated", KindCosim, func(b []byte) []byte {
			return b[:len(b)/2]
		}, ErrSnapCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, c := newTestServer(t, Config{Workers: 2})
			sp := Spec{
				Kind: KindChaos, Design: "base", Asm: loopAsm(60_000),
				Seed: 3, Engine: "vm", CheckpointEvery: 4_000, MaxCycles: 5_000_000,
			}
			if tc.kind == KindCosim {
				sp = Spec{
					Kind: KindCosim, Design: "base", Asm: loopAsm(4_000),
					CheckpointEvery: 1_000, MaxCycles: 5_000_000,
				}
			}
			st, err := c.Submit(sp)
			if err != nil {
				t.Fatal(err)
			}
			id := st.ID
			if st := cancelAtCheckpoint(t, c, id); st.State != StateCanceled {
				t.Fatalf("cancel: %+v", st)
			}

			path := s.Store().CheckpointPath(id)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.corrupt(b), 0o644); err != nil {
				t.Fatal(err)
			}

			if _, err := c.Resume(id); err != nil {
				t.Fatal(err)
			}
			final, err := c.Wait(testCtx(t), id)
			if err != nil {
				t.Fatal(err)
			}
			if final.State != StateFailed || final.Error == nil || final.Error.Kind != tc.errKind {
				t.Fatalf("resumed-from-corruption job: state %s error %+v, want failed/%s",
					final.State, final.Error, tc.errKind)
			}

			// The daemon took the hit as a job failure, not a crash.
			ok, err := c.Submit(Spec{Kind: KindCompile, Design: "base"})
			if err != nil {
				t.Fatalf("daemon unhealthy after corrupt restore: %v", err)
			}
			waitState(t, c, ok.ID, StateDone)
		})
	}
}
