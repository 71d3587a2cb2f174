package sim

import "xpdl/internal/val"

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

// NodeLabel names the node at a processing-order position (diagnostics).
func (m *Machine) NodeLabel(pipe string, pos int) string {
	return m.pipe(pipe).nodes[pos].label()
}

// Pipe is a handle on one of a machine's pipelines, resolved once by
// name (Machine.Pipe) for observers that read its stages and entry
// queue every cycle. The zero Pipe names no pipeline; using it panics.
type Pipe struct {
	m  *Machine
	ps *pipeState
}

// Pipe resolves a pipeline by name; ok is false when the design has
// none.
func (m *Machine) Pipe(name string) (Pipe, bool) {
	ps := m.pipe(name)
	return Pipe{m: m, ps: ps}, ps != nil
}

// StageOccupied reports whether the node at pos holds an instruction.
func (p Pipe) StageOccupied(pos int) bool { return p.ps.nodes[pos].cur != nil }

// StageLEF reads the local exception flag of the instruction at pos;
// false when the node is empty.
func (p Pipe) StageLEF(pos int) bool {
	in := p.ps.nodes[pos].cur
	return in != nil && in.lef
}

// StageEArgs returns the canonical except arguments of the instruction
// at pos (nil when empty or not yet bound). The slice is live machine
// state; callers must not mutate it.
func (p Pipe) StageEArgs(pos int) []val.Value {
	in := p.ps.nodes[pos].cur
	if in == nil {
		return nil
	}
	return in.eargs
}

// StageSlot reads one variable slot of the instruction at pos. ok is
// false when the node is empty or the slot has not been assigned yet
// (an undriven slot — its architectural value is unobservable).
func (p Pipe) StageSlot(pos, slot int) (V, bool) {
	in := p.ps.nodes[pos].cur
	if in == nil {
		return V{}, false
	}
	sv := in.vars[slot]
	return sv.v, sv.ok
}

// QueueLen reports the depth of the pipeline's entry queue.
func (p Pipe) QueueLen() int { return len(p.ps.entryQ) }

// QueueArg reads parameter argIdx of the queued instruction at position
// i (0 = head).
func (p Pipe) QueueArg(i, argIdx int) val.Value { return p.ps.entryQ[i].args[argIdx] }

// Gef reports whether the pipeline is in exception-handling mode.
func (p Pipe) Gef() bool { return p.m.gefs[p.ps.idx] }

// SlotIndex resolves a variable name to its slot index.
func (m *Machine) SlotIndex(pipe, name string) (int, bool) {
	s, ok := m.pipe(pipe).slotOf[name]
	return s, ok
}
