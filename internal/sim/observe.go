package sim

import (
	"sort"

	"xpdl/internal/val"
)

// Observer receives the machine's schedule events as they happen. The
// cosimulation harness implements it to replay the simulator's schedule
// (which stage fired, which instruction was squashed, when the entry
// queue was popped) into the emitted RTL's strobe inputs. Positions are
// processing-order node indices — the same coordinate system as
// synth.RTLPlan.Nodes and the RTL fire/kill vectors.
type Observer interface {
	// StageFired reports a successful (non-died) firing of the node at
	// the given processing-order position.
	StageFired(pipe string, pos int)
	// EntryPulled reports that the entry node pulled the queue head.
	EntryPulled(pipe string)
	// InstKilled reports an instruction vanishing outside retirement:
	// pos >= 0 gives the stage node it occupied (queuePos is -1);
	// otherwise queuePos >= 0 gives its current entry-queue index.
	InstKilled(pipe string, pos int, queuePos int)
}

// PipeNodes reports how many stage nodes a pipeline has in processing
// order (exception chain downstream-first, commit tail, then body).
func (m *Machine) PipeNodes(pipe string) int { return len(m.pipe(pipe).nodes) }

// NodeLabel names the node at a processing-order position (diagnostics).
func (m *Machine) NodeLabel(pipe string, pos int) string {
	return m.pipe(pipe).nodes[pos].label()
}

// StageOccupied reports whether the node at pos holds an instruction.
func (m *Machine) StageOccupied(pipe string, pos int) bool {
	return m.pipe(pipe).nodes[pos].cur != nil
}

// StageLEF reads the local exception flag of the instruction at pos;
// false when the node is empty.
func (m *Machine) StageLEF(pipe string, pos int) bool {
	in := m.pipe(pipe).nodes[pos].cur
	return in != nil && in.lef
}

// StageEArgs returns the canonical except arguments of the instruction
// at pos (nil when empty or not yet bound). The slice is live machine
// state; callers must not mutate it.
func (m *Machine) StageEArgs(pipe string, pos int) []val.Value {
	in := m.pipe(pipe).nodes[pos].cur
	if in == nil {
		return nil
	}
	return in.eargs
}

// SlotNames lists a pipeline's variable slots in slot order (sorted
// checker variable names — the layout mirrored by synth.RTLPlan.Slots).
func (m *Machine) SlotNames(pipe string) []string {
	ps := m.pipe(pipe)
	names := make([]string, 0, len(ps.slotOf))
	for n := range ps.slotOf {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SlotIndex resolves a variable name to its slot index.
func (m *Machine) SlotIndex(pipe, name string) (int, bool) {
	s, ok := m.pipe(pipe).slotOf[name]
	return s, ok
}

// StageSlot reads one variable slot of the instruction at pos. ok is
// false when the node is empty or the slot has not been assigned yet
// (an undriven slot — its architectural value is unobservable).
func (m *Machine) StageSlot(pipe string, pos, slot int) (V, bool) {
	in := m.pipe(pipe).nodes[pos].cur
	if in == nil {
		return V{}, false
	}
	sv := in.vars[slot]
	return sv.V, sv.OK
}

// QueueLen reports the entry-queue depth of a pipeline.
func (m *Machine) QueueLen(pipe string) int { return len(m.pipe(pipe).entryQ) }

// QueueArg reads parameter argIdx of the queued instruction at position
// i (0 = head).
func (m *Machine) QueueArg(pipe string, i, argIdx int) val.Value {
	return m.pipe(pipe).entryQ[i].args[argIdx]
}
