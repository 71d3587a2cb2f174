package xpdld

// TestDaemonTorture is PR 10's capstone: the real xpdld binary running
// with -fault-seed (every store write subject to the Default
// ENOSPC/EIO/short-write/torn-rename mix), SIGKILLed repeatedly
// mid-storm, with clients retrying through the outages — and every job
// still reaches a terminal state whose report is byte-identical to an
// uninterrupted fault-free run, or a typed store failure. A second
// phase crash-loops a checkpoint-less job into quarantine and breaks
// it out with force-resume. A final restart with faults off proves the
// state directory holds no torn or stranded artifacts.
//
// Scaling knobs (the nightly `make torture` turns these up):
//
//	XPDLD_TORTURE_SEEDS  comma-separated fault seeds (default "1,2")
//	XPDLD_TORTURE_KILLS  SIGKILL/restart cycles per seed (default 2)
//	XPDLD_TORTURE_DIR    when set, state dirs are created under it and
//	                     kept for artifact upload instead of cleaned up

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

func tortureSeeds() []uint64 {
	env := os.Getenv("XPDLD_TORTURE_SEEDS")
	if env == "" {
		return []uint64{1, 2}
	}
	var seeds []uint64
	for _, f := range strings.Split(env, ",") {
		if n, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64); err == nil {
			seeds = append(seeds, n)
		}
	}
	return seeds
}

func tortureKills() int {
	if n, err := strconv.Atoi(os.Getenv("XPDLD_TORTURE_KILLS")); err == nil && n > 0 {
		return n
	}
	return 2
}

// tortureDir allocates a state directory: ephemeral by default, kept
// under $XPDLD_TORTURE_DIR (for CI artifact upload) when set.
func tortureDir(t *testing.T, label string) string {
	t.Helper()
	if base := os.Getenv("XPDLD_TORTURE_DIR"); base != "" {
		if err := os.MkdirAll(base, 0o755); err != nil {
			t.Fatal(err)
		}
		dir, err := os.MkdirTemp(base, label+"-")
		if err != nil {
			t.Fatal(err)
		}
		return dir
	}
	return t.TempDir()
}

func TestDaemonTorture(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and SIGKILLs the real daemon binary under storage faults")
	}
	if raceEnabled {
		t.Skip("the spawned binary is not race-instrumented; TestStorageFaultStorm covers the server under race")
	}
	bin := daemonBinary(t)
	kills := tortureKills()
	specs, chaosIdx := killSpecs([]uint64{1})

	// Uninterrupted fault-free baselines, in-process. The specs are
	// fixed across torture seeds — only the fault pattern and kill
	// timing vary — so one baseline set serves every seed.
	baseline := make([][]byte, len(specs))
	for i, sp := range specs {
		baseline[i] = runToDone(t, sp)
	}

	for _, seed := range tortureSeeds() {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			tortureStorm(t, bin, seed, kills, specs, chaosIdx, baseline)
			tortureQuarantine(t, bin, seed)
		})
	}
}

// tortureStorm is phase one: storage faults × SIGKILLs × client
// retries over the full job mix.
func tortureStorm(t *testing.T, bin string, seed uint64, kills int, specs []Spec, chaosIdx []int, baseline [][]byte) {
	state := tortureDir(t, fmt.Sprintf("storm-seed%d", seed))
	faultArgs := []string{
		"-fault-seed", strconv.FormatUint(seed, 10),
		// Kills land faster than checkpoint intervals; a generous
		// attempt budget keeps honest jobs out of quarantine (phase two
		// owns the quarantine path).
		"-max-attempts", "100",
	}
	d := startDaemon(t, bin, state, 4, faultArgs...)
	alive := true
	t.Cleanup(func() {
		if alive {
			d.shutdown()
		}
	})
	c := NewClient(d.addr)
	c.RetryFor = 60 * time.Second

	ids := make([]string, len(specs))
	for i, sp := range specs {
		st, err := c.Submit(sp)
		if err != nil {
			t.Fatalf("seed %d: submit %d through the fault storm: %v", seed, i, err)
		}
		ids[i] = st.ID
	}

	rng := rand.New(rand.NewSource(int64(seed)))
	for cycle := 1; cycle <= kills; cycle++ {
		// Let the checkpointing jobs make durable progress, idle a
		// random slice of an interval, then SIGKILL mid-everything. If
		// the whole mix already finished there is nothing left to kill.
		deadline := time.Now().Add(2 * time.Minute)
		for {
			if time.Now().After(deadline) {
				t.Fatalf("seed %d kill %d: no checkpoint progress in time", seed, cycle)
			}
			ready, running := 0, 0
			for _, i := range chaosIdx {
				st, err := c.Status(ids[i])
				if err != nil {
					t.Fatalf("seed %d: status: %v", seed, err)
				}
				if st.State.Terminal() || st.Progress.Checkpoints >= 1 {
					ready++
				}
				if !st.State.Terminal() {
					running++
				}
			}
			if ready == len(chaosIdx) {
				if running == 0 {
					cycle = kills // everything terminal; stop killing
				}
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		time.Sleep(time.Duration(rng.Intn(150)) * time.Millisecond)
		d.kill()
		alive = false

		d = startDaemon(t, bin, state, 4, faultArgs...)
		alive = true
		c = NewClient(d.addr)
		c.RetryFor = 60 * time.Second
	}

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	finals := make([]Status, len(ids))
	for i, id := range ids {
		st, err := c.Wait(ctx, id)
		if err != nil {
			t.Fatalf("seed %d: wait %s (spec %d): %v", seed, id, i, err)
		}
		finals[i] = st
		switch st.State {
		case StateDone:
			got, err := c.Report(id)
			if err != nil {
				t.Fatalf("seed %d: done job %s has no fetchable report: %v", seed, id, err)
			}
			if string(got) != string(baseline[i]) {
				t.Errorf("seed %d: %s job %s: report under torture differs from uninterrupted run:\n%s\nvs\n%s",
					seed, specs[i].Kind, id, got, baseline[i])
			}
		case StateFailed:
			if st.Error == nil || st.Error.Kind != ErrStore {
				t.Errorf("seed %d: job %s failed untyped under storage faults: %+v", seed, id, st.Error)
			}
		default:
			t.Errorf("seed %d: job %s: unexpected terminal state %s (error %+v)", seed, id, st.State, st.Error)
		}
	}
	d.shutdown()
	alive = false
	// Temps whose write and cleanup both hit a fault.
	residue := globTemps(t, state)

	// Final restart with faults OFF: recovery sweeps every stranded
	// temp, adopts no torn state, and the store serves the same
	// reports. The sweep runs before the daemon listens, so its count
	// is final by now; the directory itself is only checked after a
	// clean shutdown, because a job whose terminal status write was
	// eaten reruns at once, and its atomic writes in flight (temp
	// written, not yet renamed) are not crash residue.
	d = startDaemon(t, bin, state, 4)
	alive = true
	c = NewClient(d.addr)
	text, err := c.Metrics()
	if err != nil {
		t.Fatalf("seed %d: metrics after clean restart: %v", seed, err)
	}
	swept := uint64(0)
	if strings.Contains(text, "xpdld_temps_swept_total ") {
		swept = metricValue(t, text, "xpdld_temps_swept_total")
	}
	if swept != uint64(len(residue)) {
		t.Errorf("seed %d: recovery swept %d temp file(s), want the %d left behind: %v", seed, swept, len(residue), residue)
	}
	for i, id := range ids {
		st, err := c.Wait(ctx, id)
		if err != nil {
			t.Fatalf("seed %d: post-restart wait %s: %v", seed, id, err)
		}
		// A job whose terminal status write was eaten by a fault reruns
		// and converges; one whose write landed keeps its state.
		switch st.State {
		case StateDone:
			got, err := c.Report(id)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(baseline[i]) {
				t.Errorf("seed %d: job %s: post-restart report diverged from baseline", seed, id)
			}
		case StateFailed:
			if st.Error == nil || st.Error.Kind != ErrStore {
				t.Errorf("seed %d: job %s failed untyped after clean restart: %+v", seed, id, st.Error)
			}
		default:
			t.Errorf("seed %d: job %s: state %s after clean restart", seed, id, st.State)
		}
	}
	d.shutdown()
	alive = false
	if temps := globTemps(t, state); len(temps) != 0 {
		t.Errorf("seed %d: temp files survived the clean restart: %v", seed, temps)
	}
}

// tortureQuarantine is phase two: a job that never records durable
// progress (checkpointing disabled), crash-looped past MaxAttempts by
// real SIGKILLs, lands in quarantined — and only an explicit
// force-resume revives it.
func tortureQuarantine(t *testing.T, bin string, seed uint64) {
	const maxAttempts = 2
	state := tortureDir(t, fmt.Sprintf("quarantine-seed%d", seed))
	args := []string{"-max-attempts", strconv.Itoa(maxAttempts)}
	d := startDaemon(t, bin, state, 2, args...)
	alive := true
	t.Cleanup(func() {
		if alive {
			d.shutdown()
		}
	})
	c := NewClient(d.addr)
	c.RetryFor = 30 * time.Second

	// The crasher: a long interp run with checkpointing disabled, so no
	// recovery attempt ever counts as progress.
	st, err := c.Submit(Spec{
		Kind: KindChaos, Design: "base", Asm: loopAsm(50_000_000),
		Seed: seed, Engine: "interp", CheckpointEvery: -1, MaxCycles: 9_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	id := st.ID

	for attempt := 1; attempt <= maxAttempts+1; attempt++ {
		d.kill()
		alive = false
		d = startDaemon(t, bin, state, 2, args...)
		alive = true
		c = NewClient(d.addr)
		c.RetryFor = 30 * time.Second
		cur, err := c.Status(id)
		if err != nil {
			t.Fatalf("seed %d: status after kill %d: %v", seed, attempt, err)
		}
		if cur.Attempts != attempt {
			t.Fatalf("seed %d: after kill %d: attempts = %d, want %d", seed, attempt, cur.Attempts, attempt)
		}
		if attempt <= maxAttempts {
			if cur.State == StateQuarantined {
				t.Fatalf("seed %d: quarantined after only %d attempts (limit %d)", seed, attempt, maxAttempts)
			}
		} else if cur.State != StateQuarantined || cur.Error == nil || cur.Error.Kind != ErrQuarantined {
			t.Fatalf("seed %d: after %d kills: %+v, want quarantined/%s", seed, attempt, cur, ErrQuarantined)
		}
	}

	if _, err := c.Resume(id); err == nil {
		t.Fatalf("seed %d: plain resume accepted a quarantined job", seed)
	} else if !strings.Contains(err.Error(), ErrQuarantined) {
		t.Fatalf("seed %d: plain resume error = %v, want kind %s", seed, err, ErrQuarantined)
	}
	forced, err := c.ResumeForce(id)
	if err != nil {
		t.Fatalf("seed %d: resume -force: %v", seed, err)
	}
	if forced.Attempts != 0 {
		t.Fatalf("seed %d: force-resume left attempts at %d", seed, forced.Attempts)
	}
	// The revived crasher is not worth running to completion; cancel it
	// so the directory ends with every job terminal.
	if _, err := c.Cancel(id); err != nil {
		t.Fatalf("seed %d: cancel revived job: %v", seed, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	final, err := c.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !final.State.Terminal() {
		t.Fatalf("seed %d: crasher not terminal at the end: %+v", seed, final)
	}
}
