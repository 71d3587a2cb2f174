package rtl

import "xpdl/internal/val"

// array is one elaborated unpacked memory.
type array struct {
	name  string
	id    int // index among the model's memories
	width int
	cur   []val.Value
}

// stateRef is one entry of the model's durable state in elaboration
// order: a scalar slot, or a memory.
type stateRef struct {
	slot int
	arr  *array // nil for scalars
}

// nbWrite is one staged nonblocking assignment, committed at the end of
// Clock.
type nbWrite struct {
	p *val.Value
	v val.Value
}

// group is a run of combinational units (continuous assigns and
// always @* blocks) in dependency order. An acyclic run executes once
// per Settle; a cyclic group — a strongly connected set of units, or
// one block that reads a signal it may not yet have written — repeats
// until a pass reads nothing it did not leave unchanged.
type group struct {
	units  []func()
	cyclic bool
}

// staleRead records one read, inside a cyclic group, of a signal the
// group writes but had not yet written in the current pass: the pass
// depended on the value it found there.
type staleRead struct {
	p *val.Value
	v val.Value
}

// evalError carries a run-time *Error out of the compiled closures; the
// Settle/Clock recover turns it back into the returned error.
type evalError struct{ err *Error }

// Model is an elaborated module ready for cycle-accurate evaluation.
// Every scalar lives in one slot of vals and every memory in its own
// slice; the compiled closures and the Signal/Array handles point
// straight into them, so evaluation and per-cycle probing do no name
// lookups.
//
// The driving protocol per cycle is:
//
//	m.Poke(...)   // set inputs for this cycle
//	m.Settle()    // combinational logic, one ordered pass; outputs readable via Peek
//	m.Clock()     // posedge: commit registers
//
// Registers hold their committed values after Clock; combinational nets
// are stale until the next Settle.
type Model struct {
	mod   *Module
	vals  []val.Value // every scalar, by slot
	width []int       // declared width, by slot
	slots map[string]int
	arrs  map[string]*array
	state []stateRef // ports, then body declarations

	groups  []group  // combinational units in dependency order
	seqs    []func() // posedge blocks in source order
	nb      []nbWrite
	maxIter int

	// Cyclic-group bookkeeping: written[slot] is the pass that last
	// wrote a feedback signal; stale collects the pass's reads of
	// feedback signals it had not written yet.
	pass       uint64
	written    []uint64
	stale      []staleRead
	arrChanged bool
}

// Elaborate links a parsed module against its extern function bindings
// and compiles it into a ready-to-run model. All signals and memories
// start at zero (the emitter's reset convention: rst is synchronous and
// the harness never asserts it after cycle 0, so zero-init substitutes
// for an explicit reset sequence).
func Elaborate(mod *Module, funcs map[string]*Func) (*Model, error) {
	n := len(mod.Ports) + len(mod.Decls)
	m := &Model{
		mod:   mod,
		vals:  make([]val.Value, 0, n),
		width: make([]int, 0, n),
		slots: make(map[string]int, n),
		arrs:  make(map[string]*array),
		state: make([]stateRef, 0, n),
	}
	for _, p := range mod.Ports {
		if p.Width <= 0 || p.Width > val.MaxWidth {
			return nil, errf(mod.Name, "port %s has unsupported width %d", p.Name, p.Width)
		}
		if s, dup := m.slots[p.Name]; dup {
			m.width[s], m.vals[s] = p.Width, val.New(0, p.Width)
			continue
		}
		m.addSignal(p.Name, p.Width)
	}
	for _, d := range mod.Decls {
		if _, dup := m.slots[d.Name]; dup || m.arrs[d.Name] != nil {
			// Ports re-declared as reg in the body keep the port entry.
			continue
		}
		if d.Width <= 0 || d.Width > val.MaxWidth {
			return nil, errf(mod.Name, "decl %s has unsupported width %d", d.Name, d.Width)
		}
		if d.Depth > 0 {
			arr := &array{name: d.Name, id: len(m.arrs), width: d.Width, cur: make([]val.Value, d.Depth)}
			zero := val.New(0, d.Width)
			for i := range arr.cur {
				arr.cur[i] = zero
			}
			m.arrs[d.Name] = arr
			m.state = append(m.state, stateRef{arr: arr})
			continue
		}
		m.addSignal(d.Name, d.Width)
	}
	m.written = make([]uint64, len(m.vals))
	// A cyclic group converges in at most <longest chain through it>
	// passes; one pass per signal plus slack is a safe ceiling, and
	// exceeding it means a genuine combinational loop.
	m.maxIter = len(m.vals) + len(mod.Assigns) + 8
	if err := m.compile(funcs); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *Model) addSignal(name string, width int) {
	s := len(m.vals)
	m.slots[name] = s
	m.vals = append(m.vals, val.New(0, width))
	m.width = append(m.width, width)
	m.state = append(m.state, stateRef{slot: s})
}

// ---------------------------------------------------------------------------
// External access

// Signal is a resolved handle on one scalar of a Model, for callers
// that peek or poke the same signal every cycle. The zero Signal names
// no signal; using it panics.
type Signal struct {
	p     *val.Value
	width int
}

// Signal resolves a scalar by name.
func (m *Model) Signal(name string) (Signal, error) {
	s, ok := m.slots[name]
	if !ok {
		return Signal{}, errf(m.mod.Name, "unknown signal %s", name)
	}
	return Signal{p: &m.vals[s], width: m.width[s]}, nil
}

// Peek reads the signal's current value.
func (s Signal) Peek() val.Value { return *s.p }

// Poke drives the signal, resized to its declared width.
func (s Signal) Poke(v val.Value) { *s.p = v.ZeroExt(s.width) }

// Array is a resolved handle on one unpacked memory of a Model. The
// zero Array names no memory; using it panics, as does an index out of
// range.
type Array struct {
	cur   []val.Value
	width int
}

// Array resolves a memory by name.
func (m *Model) Array(name string) (Array, error) {
	arr := m.arrs[name]
	if arr == nil {
		return Array{}, errf(m.mod.Name, "unknown memory %s", name)
	}
	return Array{cur: arr.cur, width: arr.width}, nil
}

// Peek reads element i.
func (a Array) Peek(i int) val.Value { return a.cur[i] }

// Poke writes element i, resized to the memory's width.
func (a Array) Poke(i int, v val.Value) { a.cur[i] = v.ZeroExt(a.width) }

// Depth reports the memory's element count.
func (a Array) Depth() int { return len(a.cur) }

// Poke drives a signal (normally an input port) for the current cycle.
// The value is resized to the signal's declared width.
func (m *Model) Poke(name string, v val.Value) error {
	s, err := m.Signal(name)
	if err != nil {
		return err
	}
	s.Poke(v)
	return nil
}

// Peek reads a signal's settled value.
func (m *Model) Peek(name string) (val.Value, error) {
	s, err := m.Signal(name)
	if err != nil {
		return val.Value{}, err
	}
	return s.Peek(), nil
}

// PokeArray writes one element of an unpacked memory (used to load
// program images before the run).
func (m *Model) PokeArray(name string, idx int, v val.Value) error {
	a, err := m.element(name, idx)
	if err != nil {
		return err
	}
	a.Poke(idx, v)
	return nil
}

// PeekArray reads one element of an unpacked memory.
func (m *Model) PeekArray(name string, idx int) (val.Value, error) {
	a, err := m.element(name, idx)
	if err != nil {
		return val.Value{}, err
	}
	return a.Peek(idx), nil
}

func (m *Model) element(name string, idx int) (Array, error) {
	a, err := m.Array(name)
	if err == nil && (idx < 0 || idx >= a.Depth()) {
		err = errf(m.mod.Name, "memory %s index %d out of range", name, idx)
	}
	return a, err
}

// ---------------------------------------------------------------------------
// Evaluation

// Settle evaluates the combinational logic (continuous assigns and
// always @* blocks) in the dependency order fixed at Elaborate: each
// unit runs once, and only a cyclic group repeats until it reaches a
// fixpoint. A group that fails to converge within the iteration
// ceiling has a true combinational loop, which is an elaboration-level
// bug in the emitter. A panic inside evaluation is contained as a
// *PanicError.
func (m *Model) Settle() (err error) {
	defer m.containPanic("settle", &err)
	for i := range m.groups {
		g := &m.groups[i]
		if g.cyclic {
			m.fixpoint(g.units)
			continue
		}
		for _, u := range g.units {
			u()
		}
	}
	return nil
}

// fixpoint repeats a cyclic group's units, in source order, until a
// pass leaves unchanged every feedback value it read before writing it
// and every memory element it wrote. The next pass would then read
// exactly what this one did and so compute the same state.
func (m *Model) fixpoint(units []func()) {
	for iter := 0; iter < m.maxIter; iter++ {
		m.pass++
		m.stale = m.stale[:0]
		m.arrChanged = false
		for _, u := range units {
			u()
		}
		if !m.arrChanged && m.staleHeld() {
			return
		}
	}
	panic(evalError{errf(m.mod.Name, "combinational loop: no fixpoint after %d iterations", m.maxIter)})
}

func (m *Model) staleHeld() bool {
	for _, r := range m.stale {
		if *r.p != r.v {
			return false
		}
	}
	return true
}

// Clock runs the posedge blocks in source order. Blocking assigns take
// effect immediately (the queue-compaction scratch regs rely on this);
// nonblocking assigns are staged and committed atomically at the end,
// so every nonblocking RHS sees pre-edge state. A panic inside
// evaluation is contained as a *PanicError.
func (m *Model) Clock() (err error) {
	defer m.containPanic("clock", &err)
	m.nb = m.nb[:0]
	for _, b := range m.seqs {
		b()
	}
	for _, w := range m.nb {
		*w.p = w.v
	}
	return nil
}
