package sim

import "xpdl/internal/val"

// The retirement trace. Every stored retirement costs one append: the
// trace doubles from traceMin entries and never grows past MaxTrace, and
// each retirement's Args are carved from an argArena whose blocks are
// never reallocated. Reset and Restore keep both allocations and reuse
// them. retiredBy counts the stored retirements of each pipe, so a
// per-pipe count costs no walk of the trace.

// traceMin is the capacity the trace first grows to.
const traceMin = 16

// Retired returns the stored retirement trace: the machine's own
// slice, not a copy. It is read-only, and valid until the next Reset or
// Restore, which reuse its storage; running on appends to the machine's
// trace and leaves the returned entries as they are.
func (m *Machine) Retired() []Retirement { return m.retired }

// RetiredCount reports how many retirements of the named pipe the
// trace stores (0 for a pipe the design does not have). Like Retired,
// it stops counting at Config.MaxTrace.
func (m *Machine) RetiredCount(pipe string) int {
	if i, ok := m.plan.pipeIdx[pipe]; ok {
		return m.retiredBy[i]
	}
	return 0
}

// TraceFull reports whether the retirement trace has reached
// Config.MaxTrace, after which later retirements are not recorded.
func (m *Machine) TraceFull() bool { return len(m.retired) >= maxTraceDefault(m.cfg.MaxTrace) }

func maxTraceDefault(n int) int {
	if n <= 0 {
		return 1 << 20
	}
	return n
}

func (m *Machine) retire(in *inst) {
	if n := len(m.retired); n < maxTraceDefault(m.cfg.MaxTrace) {
		if n == cap(m.retired) {
			m.sizeTrace(max(2*n, traceMin))
		}
		// Copy args into the arena: the instruction record is pooled,
		// so the trace cannot alias its slices. EArgs transfer ownership
		// (they are copy-on-write and never mutated again).
		args := m.retArgs.carve(len(in.args))
		copy(args, in.args)
		m.retired = append(m.retired, Retirement{
			Pipe:        in.pipe.name,
			IID:         in.iid,
			Args:        args,
			Exceptional: in.lef,
			EArgs:       in.eargs,
			Cycle:       m.cycle,
		})
		m.retiredBy[in.pipe.idx]++
	}
	delete(m.alive, in.iid)
	m.poolPut(in)
}

// sizeTrace moves the trace to a new array of capacity n, capped at
// MaxTrace.
func (m *Machine) sizeTrace(n int) {
	t := make([]Retirement, len(m.retired), min(n, maxTraceDefault(m.cfg.MaxTrace)))
	copy(t, m.retired)
	m.retired = t
}

// clearTrace empties the trace and the arena, keeping their storage.
func (m *Machine) clearTrace() {
	clear(m.retired)
	m.retired = m.retired[:0]
	m.retArgs.rewind()
	clear(m.retiredBy)
}

// argArena holds the Args of stored retirements. It hands out slices
// carved from blocks that are never reallocated, so a carved slice
// stays where it is however long the trace grows, and a full block is
// never copied. Blocks double from argBlockMin values to argBlockMax.
type argArena struct {
	cur    []val.Value   // the block being carved; cur[:len(cur)] is handed out
	blocks [][]val.Value // every block allocated, in carving order
	next   int           // blocks[next] is carved once cur is full
}

const argBlockMin, argBlockMax = 16, 1 << 14

// carve returns the next n values of the arena, capped at n.
func (a *argArena) carve(n int) []val.Value {
	if len(a.cur)+n > cap(a.cur) {
		a.nextBlock(n)
	}
	off := len(a.cur)
	a.cur = a.cur[:off+n]
	return a.cur[off : off+n : off+n]
}

// nextBlock makes the next block, reused or new, the one being carved;
// it holds at least n values.
func (a *argArena) nextBlock(n int) {
	if a.next < len(a.blocks) && cap(a.blocks[a.next]) >= n {
		a.cur = a.blocks[a.next][:0]
		a.next++
		return
	}
	size := argBlockMin
	if a.next > 0 {
		size = min(2*cap(a.blocks[a.next-1]), argBlockMax)
	}
	a.cur = make([]val.Value, 0, max(size, n))
	if a.next < len(a.blocks) {
		a.blocks[a.next] = a.cur
	} else {
		a.blocks = append(a.blocks, a.cur)
	}
	a.next++
}

// rewind starts carving from the first block again. Slices carved
// before are overwritten as the arena refills.
func (a *argArena) rewind() { a.cur, a.next = nil, 0 }
