package xpdld

import (
	"bytes"
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
	"xpdl/internal/snap"
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
	case KindSimulate, KindChaos:
		return s.runSim(ctx, j)
	case KindCosim:
		return s.runCosim(ctx, j)
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

// runSim executes a simulate or chaos job: the design's machine runs
// the program in CheckpointEvery-sized chunks, persisting a snapshot at
// every chunk boundary, then cross-checks the drained state against the
// sequential golden model. A fresh invocation resumes from the stored
// checkpoint when one exists — that one code path serves preemption,
// user cancellation and crash recovery alike.
func (s *Server) runSim(ctx context.Context, j *job) outcome {
	sp := j.spec
	v, _ := VariantByName(sp.Design)
	src := designSource(sp)
	d, err := s.cache.Compile(src)
	if err != nil {
		return failed(ErrCompile, err)
	}
	prog, jerr := sp.program()
	if jerr != nil {
		return outcome{jerr: jerr}
	}
	cfg := sim.Config{
		Engine:   sp.Engine,
		Externs:  designs.Externs(),
		MaxTrace: sp.MaxTrace,
	}
	if sp.Kind == KindChaos {
		// Timing faults only — interrupt storms write mip directly,
		// which the golden model cannot mirror (same policy as xpdlsim).
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
	if ckpt, ok, err := s.store.ReadCheckpoint(j.id); err != nil {
		return outcome{jerr: classifySnapshotErr(err)}
	} else if ok {
		if err := m.Restore(bytes.NewReader(ckpt)); err != nil {
			return outcome{jerr: classifySnapshotErr(err)}
		}
		s.metrics.Inc("xpdld_jobs_resumed_total")
	} else if err := p.Boot(); err != nil {
		return failed(ErrRun, err)
	}

	for {
		left := sp.MaxCycles - m.Cycle()
		if left <= 0 {
			return outcome{jerr: &JobError{
				Kind:   ErrBudget,
				Detail: fmt.Sprintf("cycle budget of %d exhausted with work in flight", sp.MaxCycles),
			}}
		}
		chunk := left
		if sp.CheckpointEvery > 0 && sp.CheckpointEvery < chunk {
			chunk = sp.CheckpointEvery
		}
		_, err := p.RunCtx(ctx, chunk)
		if err == nil {
			break // pipeline drained — the workload halted and retired
		}
		var ce *sim.CanceledError
		if errors.As(err, &ce) {
			if ce.Snapshot != nil {
				// A failed write here only costs resume granularity: the
				// job resumes from its previous durable checkpoint (or
				// scratch) and still converges on the same report.
				if werr := s.store.WriteCheckpoint(j.id, ce.Snapshot); werr != nil {
					s.checkpointFailed(j, werr)
				} else {
					s.checkpointed(j, m.Cycle(), p.RetiredCount())
				}
			}
			return outcome{canceled: true}
		}
		var cb *sim.CycleBudgetError
		if errors.As(err, &cb) && m.Cycle() < sp.MaxCycles {
			b, serr := m.SaveBytes()
			if serr != nil {
				return failed(ErrRun, serr)
			}
			// Graceful degradation: a checkpoint that cannot be persisted
			// must not fail a healthy running job — keep computing with
			// the previous (stale) checkpoint as the recovery point.
			if werr := s.store.WriteCheckpoint(j.id, b); werr != nil {
				s.checkpointFailed(j, werr)
			} else {
				s.checkpointed(j, m.Cycle(), p.RetiredCount())
			}
			continue
		}
		return classifyRunErr(err)
	}

	rep := &Report{
		Kind:       sp.Kind,
		Design:     sp.Design,
		DesignHash: DesignHash(src),
		Workload:   sp.Workload,
		ProgHash:   progHash(prog),
		Engine:     engineName(sp.Engine),
		Seed:       sp.Seed,
		Cycles:     m.Cycle(),
		Retired:    p.RetiredCount(),
		Checksum:   fmt.Sprintf("%#x", p.DMemWord(0)),
		StateCRC:   stateCRC(p),
	}
	o := designs.OIAT{Variant: v, Text: prog.Text, Data: prog.Data}
	if mm := new(designs.Checker).Check(m, &o); mm != nil {
		return failed(ErrGolden, mm)
	}
	rep.GoldenOK = true
	return outcome{report: rep}
}

// runCosim executes a cosim job: the simulator and the emitted Verilog
// in lockstep, with the harness's combined checkpoint as the durable
// unit.
func (s *Server) runCosim(ctx context.Context, j *job) outcome {
	sp := j.spec
	v, _ := VariantByName(sp.Design)
	prog, jerr := sp.program()
	if jerr != nil {
		return outcome{jerr: jerr}
	}
	opts := cosim.Options{
		Variant:   v,
		Program:   prog,
		MaxCycles: sp.MaxCycles,
		Engine:    sp.Engine,
		// Storm-free chaos (seed 0 disables injection) keeps the golden
		// cross-check meaningful.
		ChaosSeed: sp.Seed,
		Ctx:       ctx,
	}
	if sp.CheckpointEvery > 0 {
		opts.CheckpointEvery = sp.CheckpointEvery
		opts.Checkpoint = func(cycle int, b []byte) error {
			// Never propagate a store failure into cosim.Run — it would
			// abort a healthy lockstep run. Degrade to the stale
			// checkpoint instead.
			if err := s.store.WriteCheckpoint(j.id, b); err != nil {
				s.checkpointFailed(j, err)
				return nil
			}
			s.checkpointed(j, cycle, 0)
			return nil
		}
	}
	if ckpt, ok, err := s.store.ReadCheckpoint(j.id); err != nil {
		return outcome{jerr: classifySnapshotErr(err)}
	} else if ok {
		opts.Resume = ckpt
		s.metrics.Inc("xpdld_jobs_resumed_total")
	}
	res, err := cosim.Run(opts)
	if err != nil {
		var ce *cosim.CanceledError
		if errors.As(err, &ce) {
			if ce.Snapshot != nil {
				if werr := s.store.WriteCheckpoint(j.id, ce.Snapshot); werr != nil {
					s.checkpointFailed(j, werr)
				} else {
					s.checkpointed(j, ce.Cycle, 0)
				}
			}
			return outcome{canceled: true}
		}
		return classifyRunErr(err)
	}
	return outcome{report: &Report{
		Kind:       KindCosim,
		Design:     sp.Design,
		DesignHash: DesignHash(designSource(sp)),
		Workload:   sp.Workload,
		ProgHash:   progHash(prog),
		Engine:     engineName(sp.Engine),
		Seed:       sp.Seed,
		Cycles:     res.Cycles,
		Retired:    res.Retired,
		GoldenOK:   true,
	}}
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
// Snapshot container errors can surface here too (a cosim resume
// restores inside Run); they keep their snapshot-* identity.
func classifyRunErr(err error) outcome {
	var (
		cb  *sim.CycleBudgetError
		dl  *sim.DeadlockError
		ie  *sim.InternalError
		div *cosim.DivergenceError
		mm  *designs.Mismatch
		cie *cosim.InternalError
		sve *snap.VersionError
		sce *snap.CorruptError
	)
	switch {
	case errors.As(err, &sve), errors.As(err, &sce):
		return outcome{jerr: classifySnapshotErr(err)}
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
	case errors.As(err, &cie):
		return failed(ErrInternal, err)
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
	j.progress.Cycle = cycle
	if retired > 0 {
		j.progress.Retired = retired
	}
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
