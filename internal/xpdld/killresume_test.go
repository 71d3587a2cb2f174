package xpdld

// TestDaemonKillResume is the tentpole's end-to-end proof: the real
// xpdld binary, SIGKILLed mid-job at a random checkpoint, restarted on
// the same state directory, finishes every job with a report
// byte-identical to an uninterrupted run — for every job kind, across
// multiple chaos seeds.
//
// Scaling knobs (the nightly soak turns these up):
//
//	XPDLD_KILL_SEEDS   comma-separated chaos seeds (default "1,2,3,4")
//	XPDLD_KILL_CYCLES  SIGKILL/restart cycles per run (default 1)

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

var (
	buildOnce sync.Once
	buildDir  string // removed by TestMain
	buildBin  string
	buildErr  error
)

// daemonBinary builds cmd/xpdld once per test process.
func daemonBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "xpdld-bin")
		if err != nil {
			buildErr = err
			return
		}
		buildDir = dir
		buildBin = filepath.Join(dir, "xpdld")
		out, err := exec.Command("go", "build", "-o", buildBin, "xpdl/cmd/xpdld").CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("go build xpdld: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return buildBin
}

// daemon is one running xpdld process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
}

// startDaemon launches the binary on an ephemeral port and waits for
// its address file. Extra flags (e.g. -fault-seed) are appended.
func startDaemon(t *testing.T, bin, state string, workers int, extra ...string) *daemon {
	t.Helper()
	addrFile := filepath.Join(state, "xpdld.addr")
	_ = os.Remove(addrFile)
	args := []string{
		"-addr", "127.0.0.1:0",
		"-state", state,
		"-workers", strconv.Itoa(workers),
	}
	args = append(args, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start xpdld: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		b, err := os.ReadFile(addrFile)
		if err == nil && len(b) > 0 {
			return &daemon{cmd: cmd, addr: "http://" + strings.TrimSpace(string(b))}
		}
		if cmd.ProcessState != nil || time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			t.Fatalf("xpdld did not come up (addr file: %v)", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// kill SIGKILLs the daemon and reaps it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	_, _ = d.cmd.Process.Wait()
}

// shutdown terminates the daemon gracefully (cleanup path).
func (d *daemon) shutdown() {
	_ = d.cmd.Process.Signal(os.Interrupt)
	done := make(chan struct{})
	go func() { _, _ = d.cmd.Process.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		d.kill()
	}
}

func killSeeds() []uint64 {
	env := os.Getenv("XPDLD_KILL_SEEDS")
	if env == "" {
		return []uint64{1, 2, 3, 4}
	}
	var seeds []uint64
	for _, f := range strings.Split(env, ",") {
		n, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
		if err == nil {
			seeds = append(seeds, n)
		}
	}
	return seeds
}

func killCycles() int {
	if n, err := strconv.Atoi(os.Getenv("XPDLD_KILL_CYCLES")); err == nil && n > 0 {
		return n
	}
	return 1
}

// killSpecs is the job mix: one chaos job per seed plus one job of
// every other kind, all long enough to be mid-flight when the SIGKILL
// lands.
func killSpecs(seeds []uint64) (specs []Spec, chaosIdx []int) {
	for _, seed := range seeds {
		chaosIdx = append(chaosIdx, len(specs))
		specs = append(specs, Spec{
			Kind: KindChaos, Design: "all", Asm: loopAsm(100_000),
			Seed: seed, Engine: "vm", CheckpointEvery: 5_000, MaxCycles: 5_000_000,
		})
	}
	specs = append(specs,
		Spec{Kind: KindCompile, Design: "all"},
		Spec{Kind: KindSimulate, Design: "base", Asm: loopAsm(50_000),
			Engine: "vm", CheckpointEvery: 5_000, MaxCycles: 5_000_000},
		Spec{Kind: KindCosim, Design: "base", Asm: loopAsm(4_000),
			CheckpointEvery: 1_000, MaxCycles: 5_000_000},
		Spec{Kind: KindBveq, Design: "base", BveqLen: 2},
	)
	return specs, chaosIdx
}

func TestDaemonKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and SIGKILLs the real daemon binary")
	}
	if raceEnabled {
		t.Skip("the spawned binary is not race-instrumented; the in-process suites cover the server under race")
	}
	bin := daemonBinary(t)
	seeds := killSeeds()
	cycles := killCycles()
	specs, chaosIdx := killSpecs(seeds)

	// Uninterrupted baselines, in-process (same runner code, no daemon).
	baseline := make([][]byte, len(specs))
	for i, sp := range specs {
		baseline[i] = runToDone(t, sp)
	}

	state := t.TempDir()
	d := startDaemon(t, bin, state, 4)
	alive := true
	t.Cleanup(func() {
		if alive {
			d.shutdown()
		}
	})
	c := NewClient(d.addr)
	ids := make([]string, len(specs))
	for i, sp := range specs {
		st, err := c.Submit(sp)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = st.ID
	}

	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for cycle := 1; cycle <= cycles; cycle++ {
		// Let the chaos jobs reach a checkpoint, idle a random slice of a
		// checkpoint interval, then SIGKILL mid-everything.
		deadline := time.Now().Add(time.Minute)
		inFlight := false
		for !inFlight {
			if time.Now().After(deadline) {
				t.Fatalf("kill cycle %d: no chaos job reached a checkpoint in time", cycle)
			}
			ready, running := 0, 0
			for _, i := range chaosIdx {
				st, err := c.Status(ids[i])
				if err != nil {
					t.Fatalf("status: %v", err)
				}
				if st.State.Terminal() || st.Progress.Checkpoints >= 1 {
					ready++
				}
				if !st.State.Terminal() {
					running++
				}
			}
			inFlight = ready == len(chaosIdx) && running > 0
			if !inFlight {
				time.Sleep(10 * time.Millisecond)
			}
		}
		time.Sleep(time.Duration(rng.Intn(150)) * time.Millisecond)
		d.kill()
		alive = false

		d = startDaemon(t, bin, state, 4)
		alive = true
		c = NewClient(d.addr)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	for i, id := range ids {
		st, err := c.Wait(ctx, id)
		if err != nil {
			t.Fatalf("wait %s (spec %d): %v", id, i, err)
		}
		if st.State != StateDone {
			t.Fatalf("job %s (%s): state %s error %+v, want done",
				id, specs[i].Kind, st.State, st.Error)
		}
		got, err := c.Report(id)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(baseline[i]) {
			t.Errorf("%s job %s: report after SIGKILL/resume differs from uninterrupted run:\n%s\nvs\n%s",
				specs[i].Kind, id, got, baseline[i])
		}
	}

	// The recovered daemon's metrics acknowledge the recovery.
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, text, "xpdld_jobs_recovered_total"); got == 0 {
		t.Error("restarted daemon recovered no jobs")
	}
}
