// Cosim resume equivalence: a lockstep run checkpointed mid-flight and
// resumed under identical Options must complete with the same cycle
// count and retirement total as the straight-through run — and, because
// the harness diffs every cycle and re-runs the final OIAT diff, any
// restored-state skew in either machine would surface as a divergence.
package cosim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"

	"xpdl/internal/designs"
	"xpdl/internal/sim"
	"xpdl/internal/workloads"
)

// drive runs opts to drain the way xpdld and xpdlsim do: New, then
// Restore(resume) or Boot, then sim.RunCheckpointed with save called
// every `every` cycles, then Finish.
func drive(ctx context.Context, opts Options, resume []byte, every int, save func(int, []byte) error) (*Result, error) {
	h, err := New(opts)
	if err != nil {
		return nil, err
	}
	if resume != nil {
		err = h.Restore(resume)
	} else {
		err = h.Boot()
	}
	if err != nil {
		return nil, err
	}
	if err := sim.RunCheckpointed(ctx, h, h.opts.MaxCycles, every, save); err != nil {
		return nil, err
	}
	return h.Finish()
}

// checkpointedRun runs opts straight through while capturing the last
// checkpoint taken at the given interval, returning both.
func checkpointedRun(t *testing.T, opts Options, every int) (*Result, []byte) {
	t.Helper()
	var last []byte
	res, err := drive(context.Background(), opts, nil, every, func(_ int, b []byte) error {
		last = append(last[:0], b...)
		return nil
	})
	if err != nil {
		t.Fatalf("%s: checkpointed run: %v", opts.Variant, err)
	}
	if last == nil {
		t.Fatalf("%s: run finished in fewer than %d cycles; no checkpoint taken", opts.Variant, every)
	}
	return res, last
}

func resumeCase(t *testing.T, opts Options) {
	t.Helper()
	ref := run(t, opts)
	if ref.Cycles < 8 {
		t.Fatalf("run too short to checkpoint (%d cycles)", ref.Cycles)
	}
	chk, snap := checkpointedRun(t, opts, ref.Cycles/2)
	if chk.Cycles != ref.Cycles || chk.Retired != ref.Retired {
		t.Fatalf("checkpointing perturbed the run: %+v vs %+v", chk, ref)
	}
	res, err := drive(context.Background(), opts, snap, 0, nil)
	if err != nil {
		t.Fatalf("%s: resumed run: %v", opts.Variant, err)
	}
	if res.Cycles != ref.Cycles || res.Retired != ref.Retired {
		t.Fatalf("resumed run diverged: %+v, straight run %+v", res, ref)
	}
}

func TestCosimResumeEquivalence(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"fatal/loop", Options{Variant: designs.Fatal, Program: nil}},
		{"all/loop", Options{Variant: designs.All, Program: nil}},
		{"all/loop-interp", Options{Variant: designs.All, Engine: "interp"}},
		{"all/loop-vm", Options{Variant: designs.All, Engine: "vm"}},
		{"all/chaos", Options{Variant: designs.All, ChaosSeed: 0xC051}},
		{"all/storm", Options{Variant: designs.All, ChaosSeed: 0xC052, Storm: true}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			c.opts.Program = mustAsm(t, progLoop)
			resumeCase(t, c.opts)
		})
	}
}

// TestCosimCancelLeavesResumableCheckpoint proves the cancellation
// contract end to end: a canceled cosim returns a *sim.CanceledError whose
// snapshot resumes to the same result as the uninterrupted run. The
// cancel fires from the checkpoint callback, so the stopping cycle is
// deterministic.
func TestCosimCancelLeavesResumableCheckpoint(t *testing.T) {
	opts := Options{Variant: designs.All, Program: mustAsm(t, progLoop), ChaosSeed: 0xC053}
	ref := run(t, opts)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := drive(ctx, opts, nil, ref.Cycles/2, func(int, []byte) error { cancel(); return nil })
	var ce *sim.CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("canceled cosim: got %v, want *sim.CanceledError", err)
	}
	if ce.Snapshot == nil {
		t.Fatal("CanceledError carries no checkpoint")
	}
	if ce.Cycle != ref.Cycles/2 {
		t.Fatalf("canceled at cycle %d, want %d", ce.Cycle, ref.Cycles/2)
	}

	res, err := drive(context.Background(), opts, ce.Snapshot, 0, nil)
	if err != nil {
		t.Fatalf("resume canceled cosim: %v", err)
	}
	if res.Cycles != ref.Cycles || res.Retired != ref.Retired {
		t.Fatalf("resumed run diverged: %+v, straight run %+v", res, ref)
	}
}

// TestCosimCancelBeforeFirstCycle: a run canceled before its first
// lockstep cycle (a deadline that expires while the harness is built)
// still leaves a checkpoint that resumes to the uninterrupted result.
func TestCosimCancelBeforeFirstCycle(t *testing.T) {
	opts := Options{Variant: designs.All, Program: mustAsm(t, progLoop), ChaosSeed: 0xC053}
	ref := run(t, opts)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := drive(ctx, opts, nil, 0, nil)
	var ce *sim.CanceledError
	if !errors.As(err, &ce) || ce.Cycle != 0 || ce.Snapshot == nil {
		t.Fatalf("canceled cosim: got %v, want a *sim.CanceledError at cycle 0 with a checkpoint", err)
	}
	res, err := drive(context.Background(), opts, ce.Snapshot, 0, nil)
	if err != nil {
		t.Fatalf("resume from cycle 0: %v", err)
	}
	if *res != *ref {
		t.Fatalf("resumed run %+v, straight run %+v", *res, *ref)
	}
}

// TestCosimCheckpointDeterministic pins byte-determinism of the
// combined container: two identical runs checkpointing at the same
// cycle produce identical bytes.
func TestCosimCheckpointDeterministic(t *testing.T) {
	opts := Options{Variant: designs.All, Program: mustAsm(t, progLoop), ChaosSeed: 0xC054}
	ref := run(t, opts)
	_, a := checkpointedRun(t, opts, ref.Cycles/2)
	_, b := checkpointedRun(t, opts, ref.Cycles/2)
	if !bytes.Equal(a, b) {
		t.Fatalf("checkpoint bytes differ across identical runs (%d vs %d bytes)", len(a), len(b))
	}
}

// TestCosimResumeRejectsWrongVariant: a checkpoint carries the sim's
// structural fingerprint, so resuming under a different variant fails
// loudly instead of silently diverging.
func TestCosimResumeRejectsWrongVariant(t *testing.T) {
	opts := Options{Variant: designs.All, Program: mustAsm(t, progLoop)}
	ref := run(t, opts)
	_, snap := checkpointedRun(t, opts, ref.Cycles/2)
	bad := opts
	bad.Variant = designs.Fatal
	if _, err := drive(context.Background(), bad, snap, 0, nil); err == nil {
		t.Fatal("cross-variant cosim resume accepted")
	}
}

// TestCosimEngineIndependent: cosim is a property of the design, not of
// the executor driving its simulator side. On every variant, fib with
// and without chaos ends with the same Result under every sim engine,
// and the combined checkpoint taken every 7 cycles is byte-identical.
// An unknown engine must fail, so Options.Engine provably reaches the
// simulator.
func TestCosimEngineIndependent(t *testing.T) {
	w, err := workloads.ByName("fib")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := w.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Options{Variant: designs.Base, Program: prog, Engine: "turbo"}); err == nil {
		t.Fatal("cosim accepted engine \"turbo\"")
	}
	type trace struct {
		res  *Result
		sums [][sha256.Size]byte
	}
	runEngine := func(t *testing.T, opts Options) trace {
		var tr trace
		res, err := drive(context.Background(), opts, nil, 7, func(_ int, b []byte) error {
			tr.sums = append(tr.sums, sha256.Sum256(b))
			return nil
		})
		if err != nil {
			t.Fatalf("%s on %s: %v", opts.Variant, opts.Engine, err)
		}
		tr.res = res
		return tr
	}
	for _, v := range designs.Variants() {
		for _, seed := range []uint64{0, 77} {
			t.Run(fmt.Sprintf("%s/seed%d", v, seed), func(t *testing.T) {
				opts := Options{Variant: v, Program: prog, MaxCycles: 8 * w.MaxSteps, ChaosSeed: seed}
				engines := sim.Engines()
				opts.Engine = engines[0]
				ref := runEngine(t, opts)
				if len(ref.sums) == 0 {
					t.Fatalf("run of %d cycles took no checkpoint", ref.res.Cycles)
				}
				for _, e := range engines[1:] {
					opts.Engine = e
					got := runEngine(t, opts)
					if *got.res != *ref.res {
						t.Fatalf("%s: result %+v, %s: %+v", e, *got.res, engines[0], *ref.res)
					}
					if len(got.sums) != len(ref.sums) {
						t.Fatalf("%s took %d checkpoints, %s took %d", e, len(got.sums), engines[0], len(ref.sums))
					}
					for i := range ref.sums {
						if got.sums[i] != ref.sums[i] {
							t.Fatalf("checkpoint at cycle %d differs between %s and %s", 7*(i+1), e, engines[0])
						}
					}
				}
			})
		}
	}
}
