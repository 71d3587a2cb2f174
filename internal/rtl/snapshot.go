// Model state serialization and evaluator crash containment.
//
// A Model's durable state is exactly its signal values and unpacked
// memories: nonblocking staging (Model.nb) is drained within every
// Clock call and the fixpoint bookkeeping is Settle-internal, so a
// model saved after Clock and restored before the next cycle's Poke
// resumes bit-exactly. Signals serialize in elaboration order (ports,
// then body declarations) — the same deterministic order Elaborate
// builds them in — so equal states yield equal bytes.
package rtl

import (
	"fmt"
	"runtime/debug"

	"xpdl/internal/snap"
)

// PanicError wraps a panic recovered inside Settle or Clock: an
// evaluator bug (or a hostile emitted module) surfaces as a typed
// error instead of killing the process. The cosimulation harness
// converts it into an InternalError carrying a repro snapshot.
type PanicError struct {
	Module string
	Op     string // "settle" or "clock"
	Panic  any
	Stack  []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("rtl: %s: panic during %s: %v", e.Module, e.Op, e.Panic)
}

// containPanic converts a panic into the named-return error slot: a
// run-time *Error raised by the compiled closures is returned as
// itself, anything else becomes a *PanicError.
func (m *Model) containPanic(op string, err *error) {
	if r := recover(); r != nil {
		if ee, ok := r.(evalError); ok {
			*err = ee.err
			return
		}
		*err = &PanicError{Module: m.mod.Name, Op: op, Panic: r, Stack: debug.Stack()}
	}
}

// SaveState serializes every signal and memory element.
func (m *Model) SaveState(w *snap.Writer) {
	w.Int(len(m.vals))
	w.Int(len(m.arrs))
	for _, ref := range m.state {
		if ref.arr == nil {
			w.Val(m.vals[ref.slot])
			continue
		}
		w.Int(len(ref.arr.cur))
		for _, v := range ref.arr.cur {
			w.Val(v)
		}
	}
}

// RestoreState replaces every signal and memory element with a saved
// image of an identically elaborated model.
func (m *Model) RestoreState(r *snap.Reader) error {
	ns, na := r.Int(), r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if ns != len(m.vals) || na != len(m.arrs) {
		return errf(m.mod.Name, "snapshot has %d signals and %d memories, this model %d and %d",
			ns, na, len(m.vals), len(m.arrs))
	}
	m.nb = m.nb[:0]
	for _, ref := range m.state {
		if ref.arr == nil {
			m.vals[ref.slot] = r.Val().ZeroExt(m.width[ref.slot])
			continue
		}
		a := ref.arr
		d := r.Int()
		if err := r.Err(); err != nil {
			return err
		}
		if d != len(a.cur) {
			return errf(m.mod.Name, "snapshot memory %s depth %d, this model %d", a.name, d, len(a.cur))
		}
		for i := range a.cur {
			a.cur[i] = r.Val().ZeroExt(a.width)
		}
	}
	return r.Err()
}
