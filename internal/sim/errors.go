// Typed simulation failures and the bounded machine diagnosis they
// carry. Machine.Run / Machine.Step distinguish three failure shapes:
//
//   - *DeadlockError: the hang watchdog saw WatchdogCycles consecutive
//     cycles with zero firings while instructions were in flight — a
//     design bug (lock cycle, lost wakeup, starved entry queue).
//   - *CycleBudgetError: Run's cycle budget ran out with instructions
//     still in flight — the design is making progress but too slowly,
//     or the budget was simply too small.
//   - *InternalError: a panic escaped the executor or a compiled stage
//     plan — a simulator bug, recovered at the Step boundary so callers
//     degrade gracefully instead of crashing.
//
// All three embed a Diagnosis, a size-bounded structural snapshot of
// the machine, so deep or multi-pipe designs cannot flood a report.
package sim

import (
	"fmt"
	"strings"

	"xpdl/internal/locks"
)

// Diagnosis caps: at most diagMaxStages occupied stages, diagMaxLocks
// contended locks and diagMaxResvs reservations per lock are listed;
// anything beyond is summarized by a truncation count.
const (
	diagMaxStages = 16
	diagMaxLocks  = 8
	diagMaxResvs  = 6
)

// StageOcc is one occupied stage in a Diagnosis.
type StageOcc struct {
	Stage   string // e.g. "cpu.body2"
	IID     uint64
	Waiting bool // blocked on a sub-pipeline call
	Spec    bool // speculative
	Lef     bool // local exception flag set
}

// PipeDiag is one pipeline's control state in a Diagnosis (recorded
// only for pipes with a non-empty entry queue or gef set).
type PipeDiag struct {
	Pipe   string
	EntryQ int
	Gef    bool
}

// LockDiag is one lock's live reservations in a Diagnosis (recorded
// only for locks with pending reservations).
type LockDiag struct {
	Mem       string
	Pending   int
	Resvs     []locks.ResvInfo
	Truncated int // reservations beyond the listing cap
}

// Diagnosis is a bounded structural snapshot of a machine: stage
// occupancy, pipeline control state, and lock owners/waiters.
type Diagnosis struct {
	Stages          []StageOcc
	StagesTruncated int
	Pipes           []PipeDiag
	Locks           []LockDiag
	LocksTruncated  int
}

// String renders the snapshot as a single bounded line.
func (d *Diagnosis) String() string {
	var b strings.Builder
	for _, s := range d.Stages {
		fmt.Fprintf(&b, "[%s: iid=%d", s.Stage, s.IID)
		if s.Waiting {
			b.WriteString(" waiting")
		}
		if s.Spec {
			b.WriteString(" spec")
		}
		if s.Lef {
			b.WriteString(" lef")
		}
		b.WriteString("] ")
	}
	if d.StagesTruncated > 0 {
		fmt.Fprintf(&b, "[+%d more stages] ", d.StagesTruncated)
	}
	for _, p := range d.Pipes {
		if p.EntryQ > 0 {
			fmt.Fprintf(&b, "[%s.entryQ: %d] ", p.Pipe, p.EntryQ)
		}
		if p.Gef {
			fmt.Fprintf(&b, "[%s.gef] ", p.Pipe)
		}
	}
	for _, l := range d.Locks {
		fmt.Fprintf(&b, "[%s:", l.Mem)
		for _, r := range l.Resvs {
			mode := "R"
			if r.Write {
				mode = "W"
			}
			state := "waits"
			if r.Owns {
				state = "owns"
			}
			if r.Addr == locks.Whole {
				fmt.Fprintf(&b, " iid=%d %s %s(*)", r.ID, state, mode)
			} else {
				fmt.Fprintf(&b, " iid=%d %s %s@%d", r.ID, state, mode, r.Addr)
			}
		}
		if l.Truncated > 0 {
			fmt.Fprintf(&b, " +%d more", l.Truncated)
		}
		b.WriteString("] ")
	}
	if d.LocksTruncated > 0 {
		fmt.Fprintf(&b, "[+%d more locks] ", d.LocksTruncated)
	}
	return strings.TrimSuffix(b.String(), " ")
}

// Diagnose builds the bounded snapshot of m as it stands.
func (m *Machine) Diagnose() Diagnosis {
	var d Diagnosis
	for _, ps := range m.pipeList {
		for _, n := range ps.nodes {
			if n.cur == nil {
				continue
			}
			if len(d.Stages) >= diagMaxStages {
				d.StagesTruncated++
				continue
			}
			d.Stages = append(d.Stages, StageOcc{
				Stage: n.label(), IID: n.cur.iid,
				Waiting: n.cur.waiting != nil,
				Spec:    n.cur.spec, Lef: n.cur.lef,
			})
		}
		if len(ps.entryQ) > 0 || m.gefs[ps.idx] {
			d.Pipes = append(d.Pipes, PipeDiag{Pipe: ps.name, EntryQ: len(ps.entryQ), Gef: m.gefs[ps.idx]})
		}
	}
	for i, l := range m.memList {
		pending := l.PendingCount()
		if pending == 0 {
			continue
		}
		if len(d.Locks) >= diagMaxLocks {
			d.LocksTruncated++
			continue
		}
		ld := LockDiag{Mem: m.plan.lockNames[i], Pending: pending, Resvs: l.Resvs(diagMaxResvs)}
		ld.Truncated = pending - len(ld.Resvs)
		d.Locks = append(d.Locks, ld)
	}
	return d
}

// DeadlockError reports a hang caught by the watchdog: Idle consecutive
// cycles elapsed with zero stage firings while InFlight instructions
// were live. Diag names the blocked stages and the lock owners/waiters
// they are stuck on.
type DeadlockError struct {
	Cycle    int // cycle at detection
	Idle     int // consecutive zero-firing cycles
	InFlight int
	Diag     Diagnosis
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at cycle %d: no stage fired for %d cycles with %d instruction(s) in flight: %s",
		e.Cycle, e.Idle, e.InFlight, e.Diag.String())
}

// CycleBudgetError reports a Run whose cycle budget was exhausted with
// instructions still in flight.
type CycleBudgetError struct {
	Budget   int
	Cycle    int // machine cycle when the budget ran out
	InFlight int
	Diag     Diagnosis
}

func (e *CycleBudgetError) Error() string {
	return fmt.Sprintf("sim: cycle budget of %d exhausted at cycle %d with %d instruction(s) in flight: %s",
		e.Budget, e.Cycle, e.InFlight, e.Diag.String())
}

// InternalError wraps a panic recovered at the Step boundary: an
// executor or compiled-plan bug, annotated with where the machine was.
// The machine is poisoned afterwards — every later Step returns the
// same error.
type InternalError struct {
	Cycle int
	Stage string // firing stage label ("" when the panic hit outside a firing)
	IID   uint64 // instruction being fired (0 when outside a firing)
	Panic any
	Stack []byte
	// Snapshot is a best-effort repro snapshot (see Machine.Save) taken
	// after rolling back the interrupted firing's lock transactions; nil
	// when even that failed. Restoring it reproduces the cycle whose
	// firing panicked.
	Snapshot []byte
}

func (e *InternalError) Error() string {
	where := ""
	if e.Stage != "" {
		where = fmt.Sprintf(" in %s (iid=%d)", e.Stage, e.IID)
	}
	return fmt.Sprintf("sim: internal error at cycle %d%s: %v", e.Cycle, where, e.Panic)
}

// CanceledError reports a RunCtx stopped by context cancellation or
// deadline expiry at a cycle boundary. Snapshot (when non-nil) is a
// full machine snapshot taken at that boundary; restoring it resumes
// the run with zero lost work. Cause is the context's error and is
// exposed via Unwrap, so errors.Is(err, context.Canceled) and
// context.DeadlineExceeded both work.
type CanceledError struct {
	Cycle    int
	Snapshot []byte
	Cause    error
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("sim: run canceled at cycle %d: %v", e.Cycle, e.Cause)
}

func (e *CanceledError) Unwrap() error { return e.Cause }
