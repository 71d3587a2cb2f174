// Package xpdld is the multi-tenant simulation service: a long-running
// job daemon over the XPDL toolchain. It accepts compile, simulate,
// chaos, cosim and bveq jobs over HTTP/JSON, schedules them on a worker
// pool, and makes every job crash-proof: simulation-shaped jobs
// checkpoint at snapshot boundaries (internal/snap via Machine.Save and
// the cosim combined checkpoint), so a job preempted by shutdown,
// canceled by its owner, or interrupted by a SIGKILL resumes with no
// lost work and finishes with a report byte-identical to an
// uninterrupted run. Pure jobs (compile, bveq) are idempotent and
// restart from scratch instead — their reports are canonical bytes, so
// the same equivalence holds trivially.
//
// The service layers:
//
//   - job.go     — the job model: specs, states, errors, reports
//   - store.go   — the on-disk artifact store (specs, statuses,
//     checkpoints, reports; atomic writes; crash recovery)
//   - cache.go   — the content-addressed compile cache
//   - metrics.go — Prometheus-style counters behind /metrics
//   - quota.go   — per-tenant admission control
//   - runner.go  — per-kind execution with checkpoint/resume
//   - server.go  — the worker pool and HTTP API
//   - client.go  — the Go client used by cmd/xpdlctl and the tests
package xpdld

import (
	"encoding/json"
	"fmt"

	"xpdl/internal/asm"
	"xpdl/internal/designs"
	"xpdl/internal/sim"
	"xpdl/internal/workloads"
)

// Job kinds.
const (
	KindCompile  = "compile"
	KindSimulate = "simulate"
	KindChaos    = "chaos"
	KindCosim    = "cosim"
	KindBveq     = "bveq"
)

// Kinds lists the accepted job kinds in a stable order.
func Kinds() []string {
	return []string{KindCompile, KindSimulate, KindChaos, KindCosim, KindBveq}
}

// State is a job's lifecycle state.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
	// StateQuarantined is the crash-loop terminus: a job re-enqueued by
	// crash recovery more than MaxAttempts times without durable
	// progress is parked here instead of being retried forever. Only an
	// explicit forced resume (xpdlctl resume -force) re-enqueues it.
	StateQuarantined State = "quarantined"
)

// Terminal reports whether the state is final (no runner will touch the
// job again until an explicit resume).
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled || s == StateQuarantined
}

// States lists the lifecycle states in a stable order (metrics render
// one gauge per state).
func States() []State {
	return []State{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled, StateQuarantined}
}

// Error kinds surfaced in job status JSON. Each maps a typed error from
// the underlying packages (sim, cosim, snap) onto a stable wire name,
// so clients can dispatch without parsing prose.
const (
	ErrSpec        = "spec"             // invalid job spec (rejected at submit)
	ErrQuota       = "quota"            // tenant over its admission quota
	ErrCompile     = "compile"          // XPDL front-end rejected the design
	ErrAssemble    = "assemble"         // assembler rejected the program
	ErrBudget      = "cycle-budget"     // sim.CycleBudgetError
	ErrDeadlock    = "deadlock"         // sim.DeadlockError
	ErrInternal    = "internal"         // sim.InternalError / runner panic
	ErrDivergence  = "divergence"       // cosim.DivergenceError
	ErrGolden      = "golden-mismatch"  // golden-model cross-check failed
	ErrSnapCorrupt = "snapshot-corrupt" // snap.CorruptError restoring a checkpoint
	ErrSnapVersion = "snapshot-version" // snap.VersionError restoring a checkpoint
	ErrStore       = "store"            // artifact-store write failed (report not durable)
	ErrQuarantined = "quarantined"      // crash-looped past MaxAttempts; resume -force to retry
	ErrOverload    = "overloaded"       // admission queue full; retry after backoff (503)
	ErrRun         = "run"              // any other execution failure
)

// JobError is the typed error carried by a failed job's status.
type JobError struct {
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
}

func (e *JobError) Error() string { return fmt.Sprintf("%s: %s", e.Kind, e.Detail) }

// Spec describes one job. Submitted specs are normalized (defaults
// filled in, quota clamps applied) and persisted verbatim, so a crash
// recovery re-runs exactly the job that was admitted.
type Spec struct {
	// Kind selects the pipeline: compile|simulate|chaos|cosim|bveq.
	Kind string `json:"kind"`
	// Tenant scopes quotas; empty means the anonymous tenant.
	Tenant string `json:"tenant,omitempty"`
	// Design names a processor variant (base|fatal|trap|csr|all).
	Design string `json:"design,omitempty"`
	// Source is inline XPDL text; compile jobs accept it instead of a
	// variant name (content-addressed like everything else).
	Source string `json:"source,omitempty"`
	// Workload names a built-in kernel (fib, crc, ...); Asm supplies
	// inline RV32IM assembly instead. Exactly one for run-shaped kinds.
	Workload string `json:"workload,omitempty"`
	Asm      string `json:"asm,omitempty"`
	// Engine selects the executor (interp|closure|vm). Empty picks the
	// kind's default: closure for simulate/chaos/cosim, vm for bveq.
	Engine string `json:"engine,omitempty"`
	// Seed drives the deterministic fault injector (chaos jobs) or the
	// optional chaos layer of a cosim job (0 = no injection for cosim).
	Seed uint64 `json:"seed,omitempty"`
	// MaxCycles bounds the run; exhausting it fails the job with a
	// cycle-budget error. Clamped to the tenant cycle quota at submit.
	MaxCycles int `json:"max_cycles,omitempty"`
	// CheckpointEvery is the snapshot interval in cycles; 0 takes the
	// server default. Negative disables checkpointing (the job is then
	// only crash-proof by rerun).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// MaxTrace caps the retained retirement trace (default 4096); the
	// cap bounds checkpoint size for long jobs.
	MaxTrace int `json:"max_trace,omitempty"`
	// Bveq bounds (bveq jobs): program length, immediate width,
	// interrupt window.
	BveqLen    int `json:"bveq_len,omitempty"`
	BveqWidth  int `json:"bveq_width,omitempty"`
	BveqWindow int `json:"bveq_window,omitempty"`
}

// runShaped reports whether the kind executes a program on a machine
// (and therefore needs a workload and supports cycle checkpoints).
func runShaped(kind string) bool {
	return kind == KindSimulate || kind == KindChaos || kind == KindCosim
}

// normalize validates a submitted spec and fills defaults in place.
// The returned error is always a *JobError with kind ErrSpec.
func (sp *Spec) normalize(defaults Config) *JobError {
	specErr := func(format string, args ...any) *JobError {
		return &JobError{Kind: ErrSpec, Detail: fmt.Sprintf(format, args...)}
	}
	switch sp.Kind {
	case KindCompile, KindSimulate, KindChaos, KindCosim, KindBveq:
	default:
		return specErr("unknown job kind %q", sp.Kind)
	}
	if sp.Kind == KindCompile && sp.Source != "" {
		if sp.Design != "" {
			return specErr("compile jobs take a design or inline source, not both")
		}
	} else {
		if sp.Source != "" {
			return specErr("inline XPDL source is only valid for compile jobs")
		}
		if sp.Design == "" {
			sp.Design = "all"
		}
		if _, ok := VariantByName(sp.Design); !ok {
			return specErr("unknown design %q", sp.Design)
		}
	}
	if sp.Engine != "" {
		eng, err := sim.ParseEngine(sp.Engine)
		if err != nil {
			return specErr("%v", err)
		}
		sp.Engine = eng
	}
	if runShaped(sp.Kind) {
		if sp.Workload == "" && sp.Asm == "" {
			return specErr("%s jobs need a workload name or inline asm", sp.Kind)
		}
		if sp.Workload != "" && sp.Asm != "" {
			return specErr("workload and inline asm are mutually exclusive")
		}
		if sp.Workload != "" {
			if _, err := workloads.ByName(sp.Workload); err != nil {
				return specErr("%v", err)
			}
		}
		if sp.Asm != "" {
			if _, err := asm.Assemble(sp.Asm); err != nil {
				return specErr("assemble: %v", err)
			}
		}
		if sp.MaxCycles <= 0 {
			sp.MaxCycles = 1_000_000
		}
		if sp.MaxCycles > defaults.Quota.MaxCycles {
			sp.MaxCycles = defaults.Quota.MaxCycles
		}
		if sp.CheckpointEvery == 0 {
			sp.CheckpointEvery = defaults.CheckpointEvery
		}
		if sp.CheckpointEvery < 0 {
			sp.CheckpointEvery = 0
		}
		if sp.MaxTrace <= 0 {
			sp.MaxTrace = 4096
		}
	} else {
		if sp.Workload != "" || sp.Asm != "" {
			return specErr("%s jobs take no program", sp.Kind)
		}
	}
	switch sp.Kind {
	case KindChaos:
		if sp.Seed == 0 {
			sp.Seed = 1
		}
	case KindBveq:
		if sp.BveqLen <= 0 {
			sp.BveqLen = 2
		}
		if sp.BveqWidth <= 0 {
			sp.BveqWidth = 2
		}
		if sp.BveqWindow <= 0 {
			sp.BveqWindow = 4
		}
	}
	return nil
}

// program assembles the spec's workload or inline asm.
func (sp *Spec) program() (*asm.Program, *JobError) {
	src := sp.Asm
	if sp.Workload != "" {
		w, err := workloads.ByName(sp.Workload)
		if err != nil {
			return nil, &JobError{Kind: ErrSpec, Detail: err.Error()}
		}
		src = w.Source
	}
	prog, err := asm.Assemble(src)
	if err != nil {
		return nil, &JobError{Kind: ErrAssemble, Detail: err.Error()}
	}
	return prog, nil
}

// VariantByName resolves a processor variant name.
func VariantByName(name string) (designs.Variant, bool) {
	for _, v := range designs.Variants() {
		if v.String() == name {
			return v, true
		}
	}
	return 0, false
}

// Progress is the live view of a running job.
type Progress struct {
	// Cycle and Retired are the machine position at the last
	// status/checkpoint publication.
	Cycle   int `json:"cycle"`
	Retired int `json:"retired"`
	// CheckpointCycle is the cycle of the newest durable checkpoint
	// (0 = none yet); work before it can never be lost.
	CheckpointCycle int `json:"checkpoint_cycle,omitempty"`
	// Checkpoints counts checkpoints written for this job.
	Checkpoints int `json:"checkpoints,omitempty"`
}

// Status is the wire representation of a job.
type Status struct {
	ID       string   `json:"id"`
	Spec     Spec     `json:"spec"`
	State    State    `json:"state"`
	Progress Progress `json:"progress"`
	// Attempts counts crash-recovery re-enqueues since the job's last
	// durable progress (a written checkpoint resets it). Past the
	// server's MaxAttempts the job is quarantined instead of retried.
	Attempts  int       `json:"attempts,omitempty"`
	Error     *JobError `json:"error,omitempty"`
	Resumable bool      `json:"resumable,omitempty"`
}

// Report is a job's final result. Its canonical bytes (Canon) are a
// pure function of the spec — no wall time, no job ID, no worker
// identity, no resume count — which is what makes the kill/resume
// equivalence testable: an interrupted-and-resumed job must produce
// exactly these bytes again.
type Report struct {
	Kind       string `json:"kind"`
	Design     string `json:"design,omitempty"`
	DesignHash string `json:"design_hash,omitempty"`
	Workload   string `json:"workload,omitempty"`
	ProgHash   string `json:"prog_hash,omitempty"`
	Engine     string `json:"engine,omitempty"`
	Seed       uint64 `json:"seed,omitempty"`

	// Compile results.
	Pipes int `json:"pipes,omitempty"`

	// Run results (simulate / chaos / cosim).
	Cycles   int    `json:"cycles,omitempty"`
	Retired  int    `json:"retired,omitempty"`
	Checksum string `json:"checksum,omitempty"`  // dmem[0], the workload convention
	StateCRC string `json:"state_crc,omitempty"` // CRC-64 of regs+dmem
	GoldenOK bool   `json:"golden_ok,omitempty"`

	// Bveq results: the gate's canonical report, embedded verbatim.
	Bveq json.RawMessage `json:"bveq,omitempty"`
}

// Canon renders the canonical report bytes.
func (r *Report) Canon() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
