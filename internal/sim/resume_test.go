// Resume-equivalence differential suite: the proof that snapshots are
// faithful. For every variant × workload × chaos seed × executor, a
// run that is snapshotted at a pseudo-random mid-run cycle, restored
// into a freshly built machine and continued must be cycle-exactly
// identical to the uninterrupted run — same retirement trace (iids and
// cycle numbers included), same registers, memory, CSRs and counters.
// The snapshot itself must also round-trip save→restore→save to the
// exact same bytes, and be byte-identical across all three executors
// (machine state is executor-independent by construction).
package sim_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"xpdl/internal/designs"
	"xpdl/internal/fault"
	"xpdl/internal/sim"
	"xpdl/internal/workloads"
)

// resumeBuild constructs a booted, loaded processor with a seeded
// injector (and storm, when the variant is interrupt-capable), exactly
// like chaosRun but without running it.
func resumeBuild(t *testing.T, v designs.Variant, w workloads.Workload, seed uint64, engine string) *designs.Processor {
	t.Helper()
	cfg := sim.Config{Engine: engine}
	var inj *fault.Injector
	if seed != 0 {
		inj = fault.New(fault.Default(seed))
		cfg.Faults = inj
	}
	p, err := designs.BuildCfg(v, cfg)
	if err != nil {
		t.Fatalf("build %s: %v", v, err)
	}
	prog, err := w.Assemble()
	if err != nil {
		t.Fatalf("assemble %s: %v", w.Name, err)
	}
	if err := p.Load(prog); err != nil {
		t.Fatal(err)
	}
	if err := p.Boot(); err != nil {
		t.Fatal(err)
	}
	if inj != nil {
		p.AttachStorm(inj)
	}
	return p
}

// splitmix is a tiny stateless PRNG draw used to pick the snapshot
// cycle deterministically per (seed, run length).
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// resumeWorkloads spans the three kernel shapes the acceptance matrix
// names: pure ALU recursion, memory streaming, and a table-driven loop.
func resumeWorkloads(t *testing.T) []workloads.Workload {
	t.Helper()
	want := map[string]bool{"fib": true, "memcpy": true, "crc": true}
	var out []workloads.Workload
	for _, w := range workloads.All() {
		if want[w.Name] {
			out = append(out, w)
		}
	}
	if len(out) != len(want) {
		t.Fatalf("workload set changed: found %d of %d", len(out), len(want))
	}
	return out
}

func TestResumeEquivalence(t *testing.T) {
	vs := designs.Variants()
	ws := resumeWorkloads(t)
	seeds := chaosSeeds
	if testing.Short() {
		vs = []designs.Variant{designs.Base, designs.All}
		ws = ws[:2]
		seeds = seeds[:2]
	}
	for _, v := range vs {
		for _, w := range ws {
			t.Run(v.String()+"/"+w.Name, func(t *testing.T) {
				t.Parallel()
				for _, seed := range seeds {
					var refSnap []byte
					engines := sim.Engines()
					for ei, engine := range engines {
						snap := resumeCell(t, v, w, seed, engine)
						// The machine snapshot is executor-independent:
						// all executors at the same cycle of the same
						// seeded run serialize to identical bytes.
						if ei == 0 {
							refSnap = snap
						} else if !bytes.Equal(refSnap, snap) {
							t.Fatalf("seed %#x: %s and %s snapshots differ", seed, engines[0], engine)
						}
					}
				}
			})
		}
	}
}

// resumeCell runs one matrix cell and returns the mid-run snapshot it
// verified (for the cross-executor byte comparison).
func resumeCell(t *testing.T, v designs.Variant, w workloads.Workload, seed uint64, engine string) []byte {
	t.Helper()
	budget := w.MaxSteps * 32

	// Uninterrupted reference run.
	ref := resumeBuild(t, v, w, seed, engine)
	n, err := ref.Run(budget)
	if err != nil {
		t.Fatalf("seed %#x %s: reference run: %v", seed, engine, err)
	}
	if n < 2 {
		t.Fatalf("seed %#x: run too short to snapshot (%d cycles)", seed, n)
	}

	// Fresh identical machine, stopped at a seed-determined mid cycle.
	k := 1 + int(splitmix(seed^uint64(n))%uint64(n-1))
	mid := resumeBuild(t, v, w, seed, engine)
	if _, err := mid.Run(k); err != nil {
		var cb *sim.CycleBudgetError
		if !errors.As(err, &cb) {
			t.Fatalf("seed %#x %s: run to cycle %d: %v", seed, engine, k, err)
		}
	}
	snap1, err := mid.M.SaveBytes()
	if err != nil {
		t.Fatalf("seed %#x: save at cycle %d: %v", seed, k, err)
	}

	// Restore into a freshly built machine; save→restore→save must be
	// byte-identical.
	res := resumeBuild(t, v, w, seed, engine)
	if err := res.M.Restore(bytes.NewReader(snap1)); err != nil {
		t.Fatalf("seed %#x: restore at cycle %d: %v", seed, k, err)
	}
	snap2, err := res.M.SaveBytes()
	if err != nil {
		t.Fatalf("seed %#x: re-save: %v", seed, err)
	}
	if !bytes.Equal(snap1, snap2) {
		t.Fatalf("seed %#x %s: save/restore/save differs at cycle %d (%d vs %d bytes)",
			seed, engine, k, len(snap1), len(snap2))
	}

	// Continue the restored machine to completion: it must be
	// cycle-exactly the reference run.
	rem, err := res.M.Run(budget - k)
	if err != nil {
		t.Fatalf("seed %#x %s: resumed run from cycle %d: %v", seed, engine, k, err)
	}
	if k+rem != n {
		t.Fatalf("seed %#x %s: resumed run took %d cycles total, straight run %d",
			seed, engine, k+rem, n)
	}
	compareMachines(t, "resumed", "reference", res, ref, k+rem, n)
	return snap1
}

// TestRestoreRejectsOtherDesign pins the structural fingerprint: a
// snapshot from one variant must not restore into another.
func TestRestoreRejectsOtherDesign(t *testing.T) {
	w := resumeWorkloads(t)[0]
	src := resumeBuild(t, designs.All, w, 0, "closure")
	if _, err := src.Run(50); err != nil {
		var cb *sim.CycleBudgetError
		if !errors.As(err, &cb) {
			t.Fatal(err)
		}
	}
	snap, err := src.M.SaveBytes()
	if err != nil {
		t.Fatal(err)
	}
	dst := resumeBuild(t, designs.Base, w, 0, "closure")
	err = dst.M.Restore(bytes.NewReader(snap))
	if err == nil || !strings.Contains(err.Error(), "design mismatch") {
		t.Fatalf("cross-variant restore: got %v, want design mismatch", err)
	}
}

// TestRestoreRejectsOtherSeed pins the fault-identity check: a chaos
// snapshot only restores into a machine that will replay the same
// fault decisions.
func TestRestoreRejectsOtherSeed(t *testing.T) {
	w := resumeWorkloads(t)[0]
	src := resumeBuild(t, designs.Base, w, 0xC0FFEE01, "closure")
	if _, err := src.Run(50); err != nil {
		var cb *sim.CycleBudgetError
		if !errors.As(err, &cb) {
			t.Fatal(err)
		}
	}
	snap, err := src.M.SaveBytes()
	if err != nil {
		t.Fatal(err)
	}
	other := resumeBuild(t, designs.Base, w, 0xC0FFEE02, "closure")
	err = other.M.Restore(bytes.NewReader(snap))
	if err == nil || !strings.Contains(err.Error(), "fault seed") {
		t.Fatalf("cross-seed restore: got %v, want fault seed mismatch", err)
	}
	unfaulted := resumeBuild(t, designs.Base, w, 0, "closure")
	err = unfaulted.M.Restore(bytes.NewReader(snap))
	if err == nil || !strings.Contains(err.Error(), "fault injection") {
		t.Fatalf("faulted snapshot into unfaulted machine: got %v, want fault injection mismatch", err)
	}
}

// contextWithCycleLimit returns a context canceled from inside the
// machine's own cycle loop once it reaches the given cycle — a
// deterministic stand-in for an operator's Ctrl-C or deadline.
func contextWithCycleLimit(p *designs.Processor, limit int) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	p.M.OnCycle(func(m *sim.Machine) {
		if m.Cycle() >= limit {
			cancel()
		}
	})
	return ctx, cancel
}

// TestRunCtxCancelLeavesResumableSnapshot proves the cancellation
// contract: a canceled run yields a *sim.CanceledError whose snapshot,
// restored into a fresh machine, completes identically to an
// uninterrupted run.
func TestRunCtxCancelLeavesResumableSnapshot(t *testing.T) {
	w := resumeWorkloads(t)[0]
	seed := uint64(0xC0FFEE03)
	budget := w.MaxSteps * 32

	ref := resumeBuild(t, designs.All, w, seed, "closure")
	n, err := ref.Run(budget)
	if err != nil {
		t.Fatal(err)
	}

	run := resumeBuild(t, designs.All, w, seed, "closure")
	ctx, cancel := contextWithCycleLimit(run, n/2)
	defer cancel()
	_, err = run.RunCtx(ctx, budget)
	var ce *sim.CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("canceled run: got %v, want *sim.CanceledError", err)
	}
	if ce.Snapshot == nil {
		t.Fatal("CanceledError carries no snapshot")
	}

	res := resumeBuild(t, designs.All, w, seed, "closure")
	if err := res.M.Restore(bytes.NewReader(ce.Snapshot)); err != nil {
		t.Fatalf("restore canceled snapshot: %v", err)
	}
	rem, err := res.M.Run(budget)
	if err != nil {
		t.Fatalf("resume canceled run: %v", err)
	}
	compareMachines(t, "reference", "resumed", ref, res, n, ce.Cycle+rem)
}
