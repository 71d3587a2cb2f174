package xpdld

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"runtime/debug"

	"xpdl/internal/asm"
	"xpdl/internal/bveq"
	"xpdl/internal/cosim"
	"xpdl/internal/designs"
	"xpdl/internal/fault"
	"xpdl/internal/sim"
)

// outcome is what a runner hands back to the worker loop.
type outcome struct {
	report *Report
	jerr   *JobError
	// canceled marks a run stopped by context cancellation; the
	// resumable checkpoint (when the kind supports one) has already
	// been persisted.
	canceled bool
}

func failed(kind string, err error) outcome {
	return outcome{jerr: &JobError{Kind: kind, Detail: err.Error()}}
}

// run executes one job to an outcome. It never panics the daemon: a
// panic that escapes the simulator's own containment is converted to a
// typed internal error on the job.
func (s *Server) run(ctx context.Context, j *job) (out outcome) {
	defer func() {
		if r := recover(); r != nil {
			out = outcome{jerr: &JobError{
				Kind:   ErrInternal,
				Detail: fmt.Sprintf("runner panic: %v\n%s", r, debug.Stack()),
			}}
		}
	}()
	switch j.spec.Kind {
	case KindCompile:
		return s.runCompile(ctx, j)
	case KindSimulate, KindChaos, KindCosim:
		return s.runSim(ctx, j)
	case KindBveq:
		return s.runBveq(ctx, j)
	}
	return outcome{jerr: &JobError{Kind: ErrSpec, Detail: "unknown kind " + j.spec.Kind}}
}

// designSource resolves the XPDL source a spec addresses.
func designSource(sp Spec) string {
	if sp.Source != "" {
		return sp.Source
	}
	v, _ := VariantByName(sp.Design)
	return designs.Source(v)
}

// runCompile pushes a design through the front end (via the cache) and
// reports its shape. Pure and idempotent: a crash mid-compile simply
// reruns it.
func (s *Server) runCompile(ctx context.Context, j *job) outcome {
	src := designSource(j.spec)
	d, err := s.cache.Compile(src)
	if err != nil {
		return failed(ErrCompile, err)
	}
	if ctx.Err() != nil {
		return outcome{canceled: true}
	}
	return outcome{report: &Report{
		Kind:       KindCompile,
		Design:     j.spec.Design,
		DesignHash: DesignHash(src),
		Pipes:      len(d.Translations),
	}}
}

// runSim executes a simulate, chaos or cosim job. A simulate or chaos
// job runs the design's machine and cross-checks the drained state
// against the sequential golden model; a cosim job runs the simulator
// and the emitted Verilog in lockstep, with the harness's combined
// checkpoint as the durable unit. Both run through drive.
func (s *Server) runSim(ctx context.Context, j *job) outcome {
	sp := j.spec
	v, _ := VariantByName(sp.Design)
	src := designSource(sp)
	prog, jerr := sp.program()
	if jerr != nil {
		return outcome{jerr: jerr}
	}
	rep := &Report{
		Kind:       sp.Kind,
		Design:     sp.Design,
		DesignHash: DesignHash(src),
		Workload:   sp.Workload,
		ProgHash:   progHash(prog),
		Engine:     engineName(sp.Engine),
		Seed:       sp.Seed,
		GoldenOK:   true,
	}
	var r runner
	var finish func() error
	if sp.Kind == KindCosim {
		h, err := cosim.New(cosim.Options{
			Variant:   v,
			Program:   prog,
			MaxCycles: sp.MaxCycles,
			Engine:    sp.Engine,
			// Storm-free chaos (seed 0 disables injection) keeps the
			// golden cross-check meaningful.
			ChaosSeed: sp.Seed,
		})
		if err != nil {
			return classifyRunErr(err)
		}
		r = h
		finish = func() error {
			_, err := h.Finish()
			return err
		}
	} else {
		d, err := s.cache.Compile(src)
		if err != nil {
			return failed(ErrCompile, err)
		}
		cfg := sim.Config{
			Engine:   sp.Engine,
			Externs:  designs.Externs(),
			MaxTrace: sp.MaxTrace,
		}
		if sp.Kind == KindChaos {
			// Timing faults only — interrupt storms write mip directly,
			// which the golden model cannot mirror (same policy as
			// xpdlsim).
			cfg.Faults = fault.New(fault.Default(sp.Seed))
		}
		m, err := d.NewMachine(cfg)
		if err != nil {
			return failed(ErrCompile, err)
		}
		p := &designs.Processor{Variant: v, Design: d, M: m}
		if err := p.Load(prog); err != nil {
			return failed(ErrAssemble, err)
		}
		r = p
		finish = func() error {
			rep.Checksum = fmt.Sprintf("%#x", p.DMemWord(0))
			rep.StateCRC = stateCRC(p)
			o := designs.OIAT{Variant: v, Text: prog.Text, Data: prog.Data}
			if mm := s.oiat.Check(m, &o); mm != nil {
				return mm
			}
			return nil
		}
	}
	if out, done := s.drive(ctx, j, r); !done {
		return out
	}
	rep.Cycles, rep.Retired = r.Cycle(), r.RetiredCount()
	if err := finish(); err != nil {
		return classifyRunErr(err)
	}
	return outcome{report: rep}
}

// runner is what a simulate, chaos or cosim job runs: a
// *designs.Processor or a *cosim.Harness.
type runner interface {
	sim.Runner
	Boot() error
	Restore(b []byte) error
	RetiredCount() int
}

// drive resumes r from the job's stored checkpoint, or boots it, and
// runs it to drain under the spec's cycle budget, persisting a
// checkpoint at every multiple of CheckpointEvery cycles and on
// cancellation. That one path serves preemption, user cancellation and
// crash recovery alike. done reports a drained run; otherwise out is
// the job's outcome.
func (s *Server) drive(ctx context.Context, j *job, r runner) (out outcome, done bool) {
	if ckpt, ok, err := s.store.ReadCheckpoint(j.id); err != nil {
		return outcome{jerr: classifySnapshotErr(err)}, false
	} else if ok {
		if err := r.Restore(ckpt); err != nil {
			return outcome{jerr: classifySnapshotErr(err)}, false
		}
		s.metrics.Inc("xpdld_jobs_resumed_total")
	} else if err := r.Boot(); err != nil {
		return failed(ErrRun, err), false
	}
	// Graceful degradation: a checkpoint that cannot be persisted must
	// not fail a healthy running job. It only costs resume granularity:
	// the job resumes from its previous durable checkpoint (or scratch)
	// and still converges on the same report.
	persist := func(cycle int, b []byte) error {
		if err := s.store.WriteCheckpoint(j.id, b); err != nil {
			s.checkpointFailed(j, err)
		} else {
			s.checkpointed(j, cycle, r.RetiredCount())
		}
		return nil
	}
	err := sim.RunCheckpointed(ctx, r, j.spec.MaxCycles, j.spec.CheckpointEvery, persist)
	var ce *sim.CanceledError
	switch {
	case errors.As(err, &ce):
		if ce.Snapshot != nil {
			persist(ce.Cycle, ce.Snapshot)
		}
		return outcome{canceled: true}, false
	case err != nil:
		return classifyRunErr(err), false
	}
	return outcome{}, true
}

// runBveq executes a bounded-equivalence job. Verify is a pure
// function of (design, bounds) and its canonical report bytes exclude
// engine and wall time, so the job is idempotent: crash recovery
// reruns it and necessarily reproduces the same bytes.
func (s *Server) runBveq(ctx context.Context, j *job) outcome {
	sp := j.spec
	v, _ := VariantByName(sp.Design)
	t, err := bveq.NewVariantTarget(v, sp.BveqWidth, nil)
	if err != nil {
		return failed(ErrCompile, err)
	}
	rep, err := bveq.Verify(t, bveq.Bounds{
		K:      sp.BveqLen,
		Width:  sp.BveqWidth,
		Window: sp.BveqWindow,
		Engine: sp.Engine,
	})
	if err != nil {
		return failed(ErrRun, err)
	}
	if ctx.Err() != nil {
		return outcome{canceled: true}
	}
	canon, err := rep.Canon()
	if err != nil {
		return failed(ErrRun, err)
	}
	return outcome{report: &Report{
		Kind:       KindBveq,
		Design:     sp.Design,
		DesignHash: DesignHash(designSource(sp)),
		Bveq:       canon,
	}}
}

// classifyRunErr maps typed simulator/cosim errors onto job errors.
func classifyRunErr(err error) outcome {
	var (
		cb  *sim.CycleBudgetError
		dl  *sim.DeadlockError
		ie  *sim.InternalError
		div *cosim.DivergenceError
		mm  *designs.Mismatch
	)
	switch {
	case errors.As(err, &cb):
		return failed(ErrBudget, err)
	case errors.As(err, &dl):
		return failed(ErrDeadlock, err)
	case errors.As(err, &ie):
		return failed(ErrInternal, err)
	case errors.As(err, &div):
		return failed(ErrDivergence, err)
	case errors.As(err, &mm):
		return failed(ErrGolden, err)
	}
	return failed(ErrRun, err)
}

// engineName resolves the report's engine label (the spec may leave it
// empty for the default).
func engineName(engine string) string {
	e, err := sim.ParseEngine(engine)
	if err != nil {
		return engine
	}
	return e
}

// progHash content-addresses an assembled program image.
func progHash(p *asm.Program) string {
	h := crc64.New(crc64.MakeTable(crc64.ECMA))
	var b [4]byte
	for _, w := range p.Text {
		binary.LittleEndian.PutUint32(b[:], w)
		h.Write(b[:])
	}
	h.Write([]byte{0xff})
	for _, w := range p.Data {
		binary.LittleEndian.PutUint32(b[:], w)
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// stateCRC digests the architectural state (registers + data memory).
func stateCRC(p *designs.Processor) string {
	h := crc64.New(crc64.MakeTable(crc64.ECMA))
	var b [4]byte
	for i := uint32(0); i < 32; i++ {
		binary.LittleEndian.PutUint32(b[:], p.Reg(i))
		h.Write(b[:])
	}
	for i := uint32(0); i < designs.DMemWords; i++ {
		binary.LittleEndian.PutUint32(b[:], p.DMemWord(i))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// checkpointed records a durable checkpoint: progress counters,
// metrics, persisted status, event publication. Durable progress also
// resets the crash-recovery attempt counter — a job that checkpoints
// is not crash-looping, however many times the daemon around it dies.
func (s *Server) checkpointed(j *job, cycle, retired int) {
	s.metrics.Inc("xpdld_checkpoints_written_total")
	j.mu.Lock()
	j.progress.Cycle, j.progress.Retired = cycle, retired
	j.progress.CheckpointCycle = cycle
	j.progress.Checkpoints++
	j.attempts = 0
	st := j.statusLocked()
	j.publishLocked(st)
	j.mu.Unlock()
	if err := s.store.WriteStatus(j.id, st); err != nil {
		s.metrics.Inc("xpdld_store_write_failures_total")
		s.cfg.Logf("xpdld: %s: status write failed after checkpoint (continuing): %v", j.id, err)
	}
}

// checkpointFailed records a checkpoint write that could not be made
// durable. The job keeps running: the cost is recovery granularity
// (a crash resumes from the previous checkpoint), never correctness,
// so the right response is a counter and a log line — not a failed
// job.
func (s *Server) checkpointFailed(j *job, err error) {
	s.metrics.Inc("xpdld_checkpoint_write_failures_total")
	s.cfg.Logf("xpdld: %s: checkpoint write failed (continuing with stale checkpoint): %v", j.id, err)
}
