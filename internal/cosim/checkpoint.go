// Cosimulation checkpointing, cancellation and crash containment.
//
// A cosim checkpoint is a single snap container holding both machines
// and the harness cursor: the simulator's full snapshot (nested as a
// blob — it is its own checksummed stream), every RTL signal and
// memory, and the replay cursor (cycle count, retirement-trace
// position, the entry-queue mirror). Both machines are saved at the
// same post-clock-edge boundary the per-cycle state diff just proved
// equal, so a restored run continues the lockstep comparison with no
// warm-up and no tolerance window.
package cosim

import (
	"bytes"
	"errors"
	"fmt"
	"runtime/debug"

	"xpdl/internal/rtl"
	"xpdl/internal/sim"
	"xpdl/internal/snap"
)

// SaveBytes serializes both machines and the harness cursor into a
// combined checkpoint. Valid only at a cycle boundary.
func (h *Harness) SaveBytes() ([]byte, error) {
	var buf bytes.Buffer
	w := snap.NewWriter(&buf)
	mb, err := h.p.M.SaveBytes()
	if err != nil {
		return nil, err
	}
	w.Bytes(mb)
	h.model.SaveState(w)
	w.Int(h.cycles)
	w.Int(h.prevRetired)
	w.Int(len(h.mirror))
	for _, v := range h.mirror {
		w.Int(v + 1) // the boot marker -1 encodes as 0
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Restore loads a combined checkpoint into the freshly built harness,
// in place of Boot. The harness must have been built with the same
// Options the checkpoint was taken under (same variant, program, seed
// and executor).
func (h *Harness) Restore(data []byte) error {
	r, err := snap.Open(bytes.NewReader(data))
	if err != nil {
		return err
	}
	mb := r.Bytes()
	if err := r.Err(); err != nil {
		return err
	}
	if err := h.p.M.Restore(bytes.NewReader(mb)); err != nil {
		return fmt.Errorf("cosim: restore simulator: %w", err)
	}
	if err := h.model.RestoreState(r); err != nil {
		return fmt.Errorf("cosim: restore rtl model: %w", err)
	}
	cycles := r.Int()
	prev := r.Int()
	n := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	h.mirror = h.mirror[:0]
	for i := 0; i < n; i++ {
		h.mirror = append(h.mirror, r.Int()-1)
	}
	if err := r.Finish(); err != nil {
		return err
	}
	if cycles < 0 {
		return fmt.Errorf("cosim: checkpoint cycle count %d out of range", cycles)
	}
	if prev > len(h.p.M.Retired()) {
		return fmt.Errorf("cosim: checkpoint retirement cursor %d beyond trace (%d)", prev, len(h.p.M.Retired()))
	}
	h.prevRetired, h.cycles = prev, cycles
	return nil
}

// cycleContained runs one lockstep cycle with panic containment: any
// panic that escapes the harness's own compare path — the simulator
// and the RTL evaluator already contain theirs — becomes a typed
// *sim.InternalError, as does a contained *rtl.PanicError, both
// bundling a best-effort repro checkpoint.
func (h *Harness) cycleContained() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = h.internalError(r, debug.Stack())
		}
	}()
	err = h.cycle()
	var pe *rtl.PanicError
	if errors.As(err, &pe) {
		return h.internalError(pe.Panic, pe.Stack)
	}
	return err
}

func (h *Harness) internalError(p any, stack []byte) *sim.InternalError {
	ie := &sim.InternalError{Cycle: h.cycles, Panic: p, Stack: stack}
	ie.Snapshot, _ = h.SaveBytes()
	return ie
}
