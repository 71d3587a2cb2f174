// Package sim is XPDL's cycle-accurate pipeline simulator.
//
// It executes the compiler's *translated* programs (see internal/core):
// the exception machinery it runs — gef guards, padding stages, the
// rollback stage with pipeclear/specclear/abort — is exactly what the
// translation emitted, so simulating a design validates the translation,
// not a shortcut reimplementation of its intent.
//
// Execution model. Each pipeline is a graph of stage nodes: the body
// stages, an optional commit tail, and an optional exception chain. One
// instruction occupies at most one node. Every cycle, nodes are processed
// downstream-first; a node holding an instruction attempts to fire:
//
//   - Firing is atomic, like a Bluespec rule: every lock operation runs
//     inside a transaction and every machine-level effect (latched
//     variable writes, spawns, speculation updates, gef changes, volatile
//     writes, flushes) is buffered. If any condition fails — a lock is
//     not ownable, a value is not ready, the next stage register is
//     occupied, gef stalls the stage — the transaction rolls back and the
//     instruction stays put, leaving no trace.
//   - On success the transaction commits, buffered effects apply, and
//     the instruction advances (or retires).
//
// Spawned instructions enter a small entry queue; the first body stage
// pulls from it the moment it is free, which yields the expected CPI ≈ 1
// steady state for a classic five-stage pipeline.
package sim

import (
	"context"
	"fmt"
	"io"
	"runtime/debug"
	"slices"

	"xpdl/internal/check"
	"xpdl/internal/core"
	"xpdl/internal/locks"
	"xpdl/internal/pdl/ast"
	"xpdl/internal/val"
	"xpdl/internal/vm"
)

// V is a runtime value: a bit vector or (for extern decode-style results)
// a record of named bit vectors. Records store fields sorted by name so
// field access resolves to an index at machine-build time. V is an alias
// of vm.V: machine state slices are shared with the bytecode dispatch
// loop without conversion, so all three executors see one representation.
type V = vm.V

// recVal is the record payload of a V (see vm.Rec).
type recVal = vm.Rec

// slotVal is one latched variable slot of an in-flight instruction
// (see vm.SlotVal).
type slotVal = vm.SlotVal

// Scalar wraps a bit vector as a V.
func Scalar(x val.Value) V { return V{Val: x} }

// Record wraps named fields as a V.
func Record(fields map[string]val.Value) V { return vm.Record(fields) }

// SortedRecord wraps parallel field names and values as a V without
// copying either slice. names must be sorted and unique — the layout
// Record produces — and neither slice may change afterwards; records are
// immutable values, so one names slice can serve every record of a
// layout.
func SortedRecord(names []string, vals []val.Value) V {
	return V{Rec: &recVal{Names: names, Vals: vals}}
}

// ExternFunc implements an extern combinational function in Go — the
// analogue of an imported Verilog module in PDL. The args slice is only
// valid for the duration of the call (the compiled executors pass a
// reusable scratch buffer); implementations must copy it to retain it.
type ExternFunc = vm.ExternFunc

// FaultInjector is the hook-point contract for deterministic fault
// injection (see internal/fault). Hooks are timing-only: a true return
// delays work by (at least) one cycle exactly as a structural hazard
// would, and must never alter a value. Implementations must be pure
// functions of their arguments — the simulator may call a hook any
// number of times per cycle and both executors must see identical
// decisions — and must be allocation-free (they run on the cycle loop).
//
// The hooks and their coordinates:
//
//   - StallStage(cycle, stage): suppress the firing attempt of the
//     stage with global id `stage` this cycle (the instruction stays
//     put, like a failed condition).
//   - DelayExtern(cycle, iid, site): stall a firing at an extern call
//     site (site is a stable hash of the extern's name) — modeling a
//     slow combinational unit / variable-latency functional unit.
//   - HoldEntry(cycle, pipe): keep pipeline #pipe (pipeOrder index)
//     from pulling its entry queue this cycle — entry backpressure.
//
// All hook sites are nil-checked: a machine built with Config.Faults
// nil pays one predictable branch per site and nothing else.
type FaultInjector interface {
	StallStage(cycle, stage int) bool
	DelayExtern(cycle int, iid uint64, site uint64) bool
	HoldEntry(cycle, pipe int) bool
}

// siteKey stably hashes an extern name to a DelayExtern site id
// (FNV-1a); both executors use it so a seed perturbs them identically.
func siteKey(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// Config tunes machine construction.
type Config struct {
	// Externs binds extern function names to implementations. Every
	// extern declared by the program must be bound.
	Externs map[string]ExternFunc
	// RenamingExtra is the number of spare physical registers per
	// renaming lock (default 16).
	RenamingExtra int
	// EntryCap bounds each pipeline's entry queue (default 8).
	EntryCap int
	// MaxTrace caps the stored retirement trace: once it holds MaxTrace
	// entries, later retirements are not recorded (TraceFull reports
	// it). 0 or less selects the default, 1<<20. Retired, and whatever
	// is computed from it (designs.Processor's RetiredCount and CPI),
	// sees only the capped trace.
	MaxTrace int
	// Engine selects the executor: "closure" (the compile-once stage
	// executor, the default), "interp" (the per-cycle AST interpreter,
	// kept as the differential-testing oracle and debugging aid), or
	// "vm" (the bytecode VM over struct-of-arrays state; one compiled
	// Program is shared by every machine of the same design). The three
	// are semantically identical. Empty selects the default.
	Engine string
	// Faults plugs a deterministic fault injector into the machine's
	// hook points. nil (the default) disables injection entirely.
	Faults FaultInjector
	// WatchdogCycles is how many consecutive zero-firing cycles with
	// instructions in flight the hang watchdog tolerates before Step
	// returns a *DeadlockError. 0 selects the default (200); a negative
	// value disables the watchdog.
	WatchdogCycles int
	// Observer receives schedule events as the machine executes; nil (the
	// default) disables all notifications. The cosimulation harness uses
	// it to replay the simulator's schedule into the emitted RTL.
	Observer Observer
}

// Executor engines (resolved from Config.Engine).
const (
	engClosure uint8 = iota
	engInterp
	engVM
)

// Engines lists the valid Config.Engine values, specification (the AST
// interpreter) first: flag help text and every differential matrix use it.
func Engines() []string { return []string{"interp", "closure", "vm"} }

// ParseEngine validates an engine name (e.g. an -exec flag value),
// mapping the empty string to the default.
func ParseEngine(s string) (string, error) {
	switch s {
	case "", "closure":
		return "closure", nil
	case "interp":
		return "interp", nil
	case "vm":
		return "vm", nil
	}
	return "", fmt.Errorf("sim: unknown engine %q (want interp, closure or vm)", s)
}

// defaultWatchdog is the hang watchdog's default patience. It must
// comfortably exceed any legitimate stall a design can produce (deep
// lock queues, chained sub-pipeline calls, injected fault stalls); the
// longest observed legitimate idle stretch in the test designs is far
// under 50 cycles.
const defaultWatchdog = 200

// Retirement is one entry of the architectural retirement trace.
type Retirement struct {
	Pipe        string
	IID         uint64
	Args        []val.Value
	Exceptional bool
	EArgs       []val.Value // captured throw arguments, for exceptional retirements
	Cycle       int
}

// Machine simulates one compiled XPDL program. Its immutable half —
// stage-graph shape, slot layouts, resolution tables, the vm Program —
// lives in the shared Plan; the machine holds only mutable state.
type Machine struct {
	plan *Plan
	cfg  Config
	// pipeList is deterministic processing order (declaration order),
	// indexed by pipeState.idx.
	pipeList  []*pipeState
	memList   []locks.Lock   // locked memories, declaration order (vm lock indices)
	plainList []*locks.Plain // plain memories, declaration order (vm plain indices)
	// volVals is the struct-of-arrays home of every volatile register's
	// value, in declaration order; volatileReg only carries the index.
	volVals []val.Value
	// gefs is the struct-of-arrays home of the per-pipe global exception
	// flags, indexed by pipeState.idx.
	gefs    []bool
	externs map[string]ExternFunc

	devices []func(m *Machine)
	// deviceWakes is parallel to devices: a non-nil entry predicts the
	// next cycle (>= its argument) at which the device may act, enabling
	// quiescent fast-forward; nil marks an unpredictable device.
	deviceWakes []func(cycle int) int
	traceW      io.Writer

	// Compiled function plans (closure engine only).
	funcPlans map[string]*funcPlan

	// Hot-path arenas, all reused across firings so the steady-state
	// cycle loop allocates nothing: the single firing record, in-language
	// function frames (closure engine), the instruction free list, and
	// the retirement-args arena. The per-firing effect, spawn and extern
	// arenas live in env.
	fr         firing
	frameArena []V
	frameTop   int
	instPool   []*inst
	retArgs    []val.Value
	snapBuf    []*inst
	descBuf    []*inst

	cycle     int
	nextIID   uint64
	alive     map[uint64]*inst
	retired   []Retirement
	firings   uint64 // total successful stage firings, for utilization stats
	idleFor   int    // consecutive cycles with no firing and no movement
	pulledAny bool   // an entry-queue pull happened last Step (state moved)

	faults   FaultInjector // from cfg.Faults; nil disables all hooks
	watchdog int           // idle-cycle limit; <= 0 disables the watchdog
	failed   error         // sticky *InternalError after a recovered panic

	// env holds the per-firing state every engine fills: the
	// epoch-stamped slot scratch of combinational (=) and latched (<-)
	// writes, which never needs clearing, and the effect, spawn and
	// extern arenas. Under the vm engine it is also the dispatch
	// environment, wired to the machine's struct-of-arrays state (see
	// vmexec.go), and vmProg is the plan's shared immutable Program.
	engine uint8
	env    vm.Env
	vmProg *vm.Program
}

// pushFrame reserves n slots on the function-frame arena and returns
// them zeroed. Frames are slices into a grow-only arena; growth leaves
// outstanding frames pointing at the old backing array, which stays
// valid and private to their callers.
func (m *Machine) pushFrame(n int) []V {
	need := m.frameTop + n
	if need > len(m.frameArena) {
		na := make([]V, need*2)
		copy(na, m.frameArena[:m.frameTop])
		m.frameArena = na
	}
	fr := m.frameArena[m.frameTop:need:need]
	m.frameTop = need
	for i := range fr {
		fr[i] = V{}
	}
	return fr
}

func (m *Machine) popFrame(n int) { m.frameTop -= n }

// volatileReg is a resolved volatile register: its declaration plus its
// index into the machine's struct-of-arrays value store (Machine.volVals).
type volatileReg struct {
	decl *ast.VolDecl
	idx  int
}

// identBind is a resolved identifier.
type identBind struct {
	kind int8 // 0 = var slot, 1 = constant, 2 = volatile
	slot int
	con  V
	vol  *volatileReg
}

// memBinding is a resolved memory reference, owned by the plan: the
// memory is named by index into each machine's memory lists.
type memBinding struct {
	decl  *ast.MemDecl
	lock  int // index into Machine.memList; -1 for unlocked memories
	plain int // index into Machine.plainList; -1 for locked memories
}

// pipeState is one machine's instance of a pipeline: the plan's shape
// plus occupancy, the entry queue and the speculation table.
type pipeState struct {
	*pipePlan
	nodes   []*stageNode // processing order: downstream first
	body    []*stageNode
	commit  []*stageNode
	exc     []*stageNode
	entryQ  []*inst
	specTab *specTable // gef lives in Machine.gefs[idx] (SoA)
}

type stageKind int

const (
	kindBody stageKind = iota
	kindCommit
	kindExc
)

type stageNode struct {
	*nodePlan
	pipe *pipeState
	code []cStmt    // compiled plan for stmts (closure engine only)
	next *stageNode // linear successor; nil means retire
	fork *forkInfo  // non-nil on the translated final body stage
	cur  *inst

	// What the engine supplies to fire besides the stage body: the
	// slots a firing's write-back visits, and whether the firing runs in
	// lock transactions.
	writes []int32
	txn    bool
}

func (n *stageNode) label() string {
	switch n.kind {
	case kindBody:
		return fmt.Sprintf("%s.body%d", n.pipe.name, n.index)
	case kindCommit:
		return fmt.Sprintf("%s.commit%d", n.pipe.name, n.index)
	default:
		return fmt.Sprintf("%s.exc%d", n.pipe.name, n.index)
	}
}

type forkInfo struct {
	*forkPlan
	commitCode []cStmt // compiled commitStage0
	excCode    []cStmt // compiled excStage0
	commitNext *stageNode
	excNext    *stageNode
}

type specStatus int

const (
	specPending specStatus = iota
	specVerified
	specInvalid
)

// specTable maps a pipe's speculation handles to their status. Handles
// are issued in increasing order and nearly every entry is made,
// verified and resolved (deleted) within a few handles of the newest,
// so an entry lives in ring slot h%len(ring) while no younger handle
// needs that slot. The entries that outlive the ring — invalidated
// handles, which stay until the next specclear — move to the map.
type specTable struct {
	nextHandle uint64
	ring       [specRing]specSlot
	spill      map[uint64]specStatus
	// spillMax bounds the handles in spill (none above it), so a lookup
	// of a newer handle skips the map.
	spillMax uint64
}

// specRing is the ring's size: well above the handles a pipeline keeps
// in flight.
const specRing = 64

type specSlot struct {
	h  uint64
	st specStatus
	ok bool
}

// get returns h's entry; ok is false when it has none.
func (t *specTable) get(h uint64) (specStatus, bool) {
	if s := &t.ring[h%specRing]; s.ok && s.h == h {
		return s.st, true
	}
	if len(t.spill) > 0 && h <= t.spillMax {
		st, ok := t.spill[h]
		return st, ok
	}
	return 0, false
}

// set makes or updates h's entry.
func (t *specTable) set(h uint64, st specStatus) {
	s := &t.ring[h%specRing]
	if s.ok && s.h == h {
		s.st = st
		return
	}
	if len(t.spill) > 0 && h <= t.spillMax {
		if _, ok := t.spill[h]; ok {
			t.spill[h] = st
			return
		}
	}
	if s.ok {
		if t.spill == nil {
			t.spill = make(map[uint64]specStatus)
		}
		t.spill[s.h] = s.st
		t.spillMax = max(t.spillMax, s.h)
	}
	*s = specSlot{h: h, st: st, ok: true}
}

// del removes h's entry, if any.
func (t *specTable) del(h uint64) {
	if s := &t.ring[h%specRing]; s.ok && s.h == h {
		s.ok = false
		return
	}
	if len(t.spill) > 0 && h <= t.spillMax {
		delete(t.spill, h)
	}
}

// handles lists the handles that have entries, in increasing order.
func (t *specTable) handles() []uint64 {
	var hs []uint64
	for i := range t.ring {
		if t.ring[i].ok {
			hs = append(hs, t.ring[i].h)
		}
	}
	for h := range t.spill {
		hs = append(hs, h)
	}
	slices.Sort(hs)
	return hs
}

func (t *specTable) status(h uint64) specStatus {
	if s, ok := t.get(h); ok {
		return s
	}
	// A missing entry means it was resolved and reclaimed; treat as
	// verified (the instruction already became non-speculative).
	return specVerified
}

// verify marks a pending (or absent) entry verified.
func (t *specTable) verify(h uint64) {
	if st, _ := t.get(h); st == specPending {
		t.set(h, specVerified)
	}
}

func (t *specTable) clear() {
	t.ring = [specRing]specSlot{}
	clear(t.spill)
	t.spillMax = 0
	// Handles keep increasing so stale handle values never alias.
}

type pendingCall struct {
	resultVar string
	subPipe   string
}

type inst struct {
	iid    uint64
	pipe   *pipeState
	args   []val.Value
	vars   []slotVal // slot-indexed; see pipeState.slotOf
	parent uint64    // spawner's iid (0 for the root)

	lef   bool
	eargs []val.Value

	specHandle uint64
	spec       bool

	waiting *pendingCall

	// For sub-pipeline instructions: where to deliver the Return value.
	callerIID uint64
	resultVar string

	pooled bool // on the machine free list; guards double release
}

// New builds a machine for a checked, translated program: NewPlan then
// Plan.New. Callers building many machines of one design keep the plan
// (xpdl.Design does) instead.
func New(info *check.Info, trs map[string]*core.Result, cfg Config) (*Machine, error) {
	p, err := NewPlan(info, trs)
	if err != nil {
		return nil, err
	}
	return p.New(cfg)
}

// pipe resolves a pipeline by name; nil when the design has none.
func (m *Machine) pipe(name string) *pipeState {
	if i, ok := m.plan.pipeIdx[name]; ok {
		return m.pipeList[i]
	}
	return nil
}

// OnCycle registers a device hook invoked at the start of every cycle —
// the external writers of volatile memories (§3.6). A device registered
// this way is unpredictable, which disables quiescent fast-forward; use
// OnCycleWake when the device can predict its next active cycle.
func (m *Machine) OnCycle(fn func(m *Machine)) {
	m.devices = append(m.devices, fn)
	m.deviceWakes = append(m.deviceWakes, nil)
}

// OnCycleWake registers a device hook together with a wake predictor:
// wake(cycle) returns the earliest cycle >= cycle at which the device
// may act (observe or mutate machine state); before that cycle the hook
// must be a pure no-op. Machines whose devices all carry predictors are
// eligible for quiescent-cycle fast-forward under the vm engine: when a
// cycle moves nothing, Run skips ahead in O(1) to the next cycle that
// can — the next device wake, the watchdog trip, or the budget end —
// with externally identical behaviour (same cycle counts, same errors).
func (m *Machine) OnCycleWake(fn func(m *Machine), wake func(cycle int) int) {
	m.devices = append(m.devices, fn)
	m.deviceWakes = append(m.deviceWakes, wake)
}

// PipeTrace streams one line per cycle to w showing, for every pipeline,
// which instruction occupies each stage (by iid), plus queue depth and
// the gef flag — a textual waveform for debugging designs.
func (m *Machine) PipeTrace(w io.Writer) { m.traceW = w }

func (m *Machine) emitTrace() {
	if m.traceW == nil {
		return
	}
	fmt.Fprintf(m.traceW, "cycle %5d", m.cycle)
	for _, ps := range m.pipeList {
		fmt.Fprintf(m.traceW, " | %s:", ps.name)
		for _, n := range ps.body {
			m.emitSlot(n)
		}
		if len(ps.commit) > 0 {
			fmt.Fprint(m.traceW, " /c")
			for _, n := range ps.commit {
				m.emitSlot(n)
			}
		}
		if len(ps.exc) > 0 {
			fmt.Fprint(m.traceW, " /x")
			for _, n := range ps.exc {
				m.emitSlot(n)
			}
		}
		if len(ps.entryQ) > 0 {
			fmt.Fprintf(m.traceW, " q=%d", len(ps.entryQ))
		}
		if m.gefs[ps.idx] {
			fmt.Fprint(m.traceW, " GEF")
		}
	}
	fmt.Fprintln(m.traceW)
}

func (m *Machine) emitSlot(n *stageNode) {
	if n.cur == nil {
		fmt.Fprint(m.traceW, " ---")
		return
	}
	mark := ""
	if n.cur.lef {
		mark = "!"
	}
	fmt.Fprintf(m.traceW, " %3d%s", n.cur.iid, mark)
}

// Start injects the initial instruction into a pipeline.
func (m *Machine) Start(pipe string, args ...val.Value) error {
	ps := m.pipe(pipe)
	if ps == nil {
		return fmt.Errorf("sim: unknown pipe %q", pipe)
	}
	if len(args) != len(ps.decl.Params) {
		return fmt.Errorf("sim: pipe %s takes %d args, got %d", pipe, len(ps.decl.Params), len(args))
	}
	m.enqueue(ps, args, 0, false, 0, 0, "")
	return nil
}

func (m *Machine) enqueue(ps *pipeState, args []val.Value, parent uint64, spec bool, handle uint64, callerIID uint64, resultVar string) *inst {
	in := m.poolGet()
	in.iid = m.nextIID
	in.pipe = ps
	in.parent = parent
	in.lef = false
	in.eargs = nil
	in.spec = spec
	in.specHandle = handle
	in.waiting = nil
	in.callerIID = callerIID
	in.resultVar = resultVar
	if cap(in.args) >= len(args) {
		in.args = in.args[:len(args)]
	} else {
		in.args = make([]val.Value, len(args))
	}
	for i, a := range args {
		in.args[i] = val.New(a.Uint(), ps.paramW[i])
	}
	if n := len(ps.zeroes); cap(in.vars) >= n {
		in.vars = in.vars[:n]
		clear(in.vars)
	} else {
		in.vars = make([]slotVal, n)
	}
	m.nextIID++
	for i, s := range ps.paramSlot {
		in.vars[s] = slotVal{V: Scalar(in.args[i]), OK: true}
	}
	ps.entryQ = append(ps.entryQ, in)
	m.alive[in.iid] = in
	return in
}

// poolGet recycles a dead instruction record (or allocates the first
// time); poolPut returns one once nothing references it. Pooling keeps
// the steady-state cycle loop free of per-instruction allocations.
func (m *Machine) poolGet() *inst {
	if n := len(m.instPool); n > 0 {
		in := m.instPool[n-1]
		m.instPool = m.instPool[:n-1]
		in.pooled = false
		return in
	}
	return &inst{}
}

func (m *Machine) poolPut(in *inst) {
	if in.pooled {
		return
	}
	in.pooled = true
	in.waiting = nil
	in.eargs = nil
	m.instPool = append(m.instPool, in)
}

// Cycle reports the current cycle count.
func (m *Machine) Cycle() int { return m.cycle }

// Engine reports the machine's executor: "interp", "closure" or "vm".
func (m *Machine) Engine() string { return m.cfg.Engine }

// Firings reports total successful stage firings (for utilization stats).
func (m *Machine) Firings() uint64 { return m.firings }

// Plan reports the shared plan the machine was built from.
func (m *Machine) Plan() *Plan { return m.plan }

// Retired returns the retirement trace.
func (m *Machine) Retired() []Retirement { return m.retired }

// TraceFull reports whether the retirement trace has reached
// Config.MaxTrace, after which later retirements are not recorded.
func (m *Machine) TraceFull() bool { return len(m.retired) >= maxTraceDefault(m.cfg.MaxTrace) }

// InFlight reports live instructions (in stages or entry queues).
func (m *Machine) InFlight() int { return len(m.alive) }

// Mem is a handle on one of a machine's memories, resolved once by name
// (Machine.Mem) for callers that touch many words. The zero Mem names
// no memory; using it panics.
type Mem struct {
	lock  locks.Lock
	plain *locks.Plain
}

// Mem resolves a memory by name with a single lookup in the plan.
func (m *Machine) Mem(name string) Mem {
	b := m.plan.memByName[name]
	if b == nil {
		return Mem{}
	}
	if b.plain >= 0 {
		return Mem{plain: m.plainList[b.plain]}
	}
	return Mem{lock: m.memList[b.lock]}
}

// Peek reads the memory's committed value.
func (h Mem) Peek(addr uint64) val.Value {
	if h.plain != nil {
		return h.plain.Peek(addr)
	}
	return h.lock.Peek(addr)
}

// Poke sets the memory's committed value (initialization).
func (h Mem) Poke(addr uint64, v val.Value) {
	if h.plain != nil {
		h.plain.Poke(addr, v)
		return
	}
	h.lock.Poke(addr, v)
}

// FirstDiff compares the memory's committed words at off, off+1, ...
// with want, each cut to its low 32 bits, and returns the first address
// that differs, or -1. It reads every word without building a value per
// word, for checkers that compare whole memories.
func (h Mem) FirstDiff(off uint64, want []uint32) int {
	if h.plain != nil {
		return h.plain.FirstDiff(off, want)
	}
	return h.lock.FirstDiff(off, want)
}

// Depth reports the memory's word count.
func (h Mem) Depth() int {
	if h.plain != nil {
		return h.plain.Depth()
	}
	return h.lock.Depth()
}

// MemPeek reads a memory's committed value.
func (m *Machine) MemPeek(mem string, addr uint64) val.Value { return m.Mem(mem).Peek(addr) }

// MemPoke sets a memory's committed value (initialization).
func (m *Machine) MemPoke(mem string, addr uint64, v val.Value) { m.Mem(mem).Poke(addr, v) }

// MemDepth reports the word count of a memory.
func (m *Machine) MemDepth(mem string) int { return m.Mem(mem).Depth() }

// VolPeek reads a volatile register.
func (m *Machine) VolPeek(name string) val.Value { return m.volVals[m.plan.vols[name].idx] }

// VolPoke writes a volatile register, as an external device would.
func (m *Machine) VolPoke(name string, v val.Value) {
	reg := m.plan.vols[name]
	m.volVals[reg.idx] = val.New(v.Uint(), reg.decl.Elem.Width)
}

// VolIndex resolves a volatile register by name to its index, which is
// the same for every machine of the plan, so a caller resolves it once
// and reads or writes through VolPeekAt and VolPokeAt. ok is false when
// the design declares no such register.
func (m *Machine) VolIndex(name string) (int, bool) {
	reg, ok := m.plan.vols[name]
	if !ok {
		return -1, false
	}
	return reg.idx, true
}

// VolPeekAt reads the volatile register at a VolIndex index.
func (m *Machine) VolPeekAt(i int) val.Value { return m.volVals[i] }

// VolPokeAt writes the volatile register at a VolIndex index, as an
// external device would.
func (m *Machine) VolPokeAt(i int, v val.Value) {
	m.volVals[i] = val.New(v.Uint(), m.plan.info.Prog.Vols[i].Elem.Width)
}

// GefSet reports whether a pipeline is in exception-handling mode.
func (m *Machine) GefSet(pipe string) bool { return m.gefs[m.pipe(pipe).idx] }

// Step advances one cycle. It returns a *DeadlockError when the hang
// watchdog trips (no stage fired for WatchdogCycles consecutive cycles
// while instructions were in flight) and a *InternalError when a panic
// escapes the executor or a compiled stage plan; after an internal
// error the machine is poisoned and every later Step returns it again.
func (m *Machine) Step() (err error) {
	if m.failed != nil {
		return m.failed
	}
	// The firing record identifies the stage a recovered panic hit;
	// clear it so a pre-firing panic (device hook, entry pull) is not
	// attributed to last cycle's firing.
	m.fr.node, m.fr.in = nil, nil
	defer func() {
		if r := recover(); r != nil {
			ie := &InternalError{Cycle: m.cycle, Panic: r, Stack: debug.Stack()}
			if m.fr.node != nil && m.fr.in != nil {
				ie.Stage = m.fr.node.label()
				ie.IID = m.fr.in.iid
			}
			// Capture the repro snapshot before poisoning the machine:
			// it rolls back the interrupted lock transactions, restoring
			// the cycle-boundary state the panic fired from.
			ie.Snapshot = m.reproSnapshot()
			m.failed = ie
			err = ie
		}
	}()
	return m.step()
}

func (m *Machine) step() error {
	for _, d := range m.devices {
		d(m)
	}
	m.pulledAny = false
	progressed := false
	for _, ps := range m.pipeList {
		for _, node := range ps.nodes {
			if node.cur == nil && node.kind == kindBody && node.index == 0 {
				m.pullEntry(ps, node)
			}
			if node.cur == nil {
				continue
			}
			if m.fire(node) {
				progressed = true
			}
		}
	}
	m.emitTrace()
	m.cycle++
	if progressed || len(m.alive) == 0 {
		m.idleFor = 0
		return nil
	}
	m.idleFor++
	if m.watchdog > 0 && m.idleFor > m.watchdog {
		return &DeadlockError{
			Cycle: m.cycle, Idle: m.idleFor,
			InFlight: len(m.alive), Diag: m.diagnose(),
		}
	}
	return nil
}

func (m *Machine) pullEntry(ps *pipeState, node *stageNode) {
	if len(ps.entryQ) == 0 {
		return
	}
	if m.faults != nil && m.faults.HoldEntry(m.cycle, ps.idx) {
		return
	}
	node.cur = ps.entryQ[0]
	copy(ps.entryQ, ps.entryQ[1:])
	ps.entryQ = ps.entryQ[:len(ps.entryQ)-1]
	m.pulledAny = true
	if obs := m.cfg.Observer; obs != nil {
		obs.EntryPulled(ps.name)
	}
}

// Run advances up to maxCycles cycles, stopping early when no work
// remains. It reports how many cycles elapsed. Exhausting the budget
// with instructions still in flight returns a *CycleBudgetError.
func (m *Machine) Run(maxCycles int) (int, error) {
	start := m.cycle
	for m.cycle-start < maxCycles {
		if len(m.alive) == 0 {
			return m.cycle - start, nil
		}
		m.quiesceSkip(maxCycles - (m.cycle - start))
		if m.cycle-start >= maxCycles {
			break
		}
		if err := m.Step(); err != nil {
			return m.cycle - start, err
		}
	}
	if len(m.alive) > 0 {
		return maxCycles, &CycleBudgetError{
			Budget: maxCycles, Cycle: m.cycle,
			InFlight: len(m.alive), Diag: m.diagnose(),
		}
	}
	return m.cycle - start, nil
}

// RunCtx is Run with cancellation: the context is checked at every
// cycle boundary, and cancellation or deadline expiry returns a
// *CanceledError carrying a snapshot of the machine at that boundary,
// so an interrupted run is always resumable (Machine.Restore). The
// machine itself is left healthy — stepping can continue in-process.
func (m *Machine) RunCtx(ctx context.Context, maxCycles int) (int, error) {
	start := m.cycle
	done := ctx.Done()
	for m.cycle-start < maxCycles {
		if len(m.alive) == 0 {
			return m.cycle - start, nil
		}
		select {
		case <-done:
			ce := &CanceledError{Cycle: m.cycle, Cause: ctx.Err()}
			ce.Snapshot, _ = m.SaveBytes()
			return m.cycle - start, ce
		default:
		}
		m.quiesceSkip(maxCycles - (m.cycle - start))
		if m.cycle-start >= maxCycles {
			break
		}
		if err := m.Step(); err != nil {
			return m.cycle - start, err
		}
	}
	if len(m.alive) > 0 {
		return maxCycles, &CycleBudgetError{
			Budget: maxCycles, Cycle: m.cycle,
			InFlight: len(m.alive), Diag: m.diagnose(),
		}
	}
	return m.cycle - start, nil
}

// quiesceSkip implements quiescent-cycle fast-forward for the vm
// engine. When the previous cycle moved nothing — no stage fired, no
// entry-queue pull, no death — the machine is at a fixed point: ticking
// changes nothing but the cycle counter until an external event (a
// device wake; fault hooks and observers disqualify a machine since
// they see every cycle). Instead of ticking, jump the cycle counter
// straight to the last provably-quiet cycle, bounded by the next device
// wake, the watchdog trip (which must be raised by a real Step so its
// diagnosis and cycle stamp match an unskipped run exactly), and the
// caller's remaining budget. Returns the number of cycles skipped.
func (m *Machine) quiesceSkip(budgetLeft int) int {
	if m.engine != engVM || m.failed != nil || m.pulledAny ||
		m.faults != nil || m.cfg.Observer != nil || m.traceW != nil {
		return 0
	}
	// Two provably-quiet shapes: an in-flight machine whose previous
	// cycle moved nothing (idleFor > 0), and a fully drained machine
	// with empty entry queues — nothing can happen until a device acts.
	drained := false
	if m.idleFor == 0 {
		if len(m.alive) != 0 {
			return 0
		}
		for _, ps := range m.pipeList {
			if len(ps.entryQ) != 0 {
				return 0
			}
		}
		drained = true
	}
	skip := budgetLeft
	if !drained && m.watchdog > 0 {
		if w := m.watchdog - m.idleFor; w < skip {
			skip = w
		}
	}
	for _, wake := range m.deviceWakes {
		if wake == nil {
			return 0 // unpredictable device: every cycle is potentially live
		}
		w := wake(m.cycle)
		if w < m.cycle {
			w = m.cycle
		}
		if d := w - m.cycle; d < skip {
			skip = d
		}
	}
	if skip <= 0 {
		return 0
	}
	m.cycle += skip
	if !drained {
		// Empty cycles reset the idle counter (the watchdog only counts
		// while work is in flight), so only the in-flight shape ages it.
		m.idleFor += skip
	}
	return skip
}

// Advance runs exactly n cycles, devices included, regardless of
// whether work is in flight — the driver for free-running,
// device-paced simulation and for bveq's per-point runs. Unlike
// Run it does not stop when the machine drains (a predictable device
// may repopulate it later) and never reports a budget error: the
// horizon is the point, not a limit. Quiescent stretches — including
// fully drained ones — fast-forward in O(1) under the vm engine.
func (m *Machine) Advance(n int) error {
	target := m.cycle + n
	for m.cycle < target {
		m.quiesceSkip(target - m.cycle)
		if m.cycle >= target {
			return nil
		}
		if err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}

// RunUntil advances until pred returns true, up to maxCycles.
func (m *Machine) RunUntil(maxCycles int, pred func(*Machine) bool) (int, error) {
	start := m.cycle
	for m.cycle-start < maxCycles {
		if pred(m) || len(m.alive) == 0 {
			break
		}
		if err := m.Step(); err != nil {
			return m.cycle - start, err
		}
	}
	return m.cycle - start, nil
}

// stateDump renders the bounded machine diagnosis (see errors.go); the
// old unbounded per-stage listing grew linearly with design size.
func (m *Machine) stateDump() string {
	d := m.diagnose()
	return d.String()
}

// squash kills an instruction and all its descendants (younger spawns),
// removing their lock reservations youngest-first.
func (m *Machine) squash(iid uint64) {
	victims := m.collectDescendants(iid)
	// Insertion sort, descending iid (victim sets are small and the
	// buffer is reused, so this stays allocation-free).
	for i := 1; i < len(victims); i++ {
		for j := i; j > 0 && victims[j-1].iid < victims[j].iid; j-- {
			victims[j-1], victims[j] = victims[j], victims[j-1]
		}
	}
	for _, v := range victims {
		m.removeInst(v)
	}
}

func (m *Machine) collectDescendants(iid uint64) []*inst {
	out := m.descBuf[:0]
	for _, in := range m.alive {
		for cur := in; ; {
			if cur.iid == iid {
				out = append(out, in)
				break
			}
			p, ok := m.alive[cur.parent]
			if !ok {
				break
			}
			cur = p
		}
	}
	m.descBuf = out
	return out
}

// removeInst erases one instruction from stages, entry queues and locks.
func (m *Machine) removeInst(in *inst) {
	if obs := m.cfg.Observer; obs != nil {
		pos, qpos := -1, -1
		for _, n := range in.pipe.nodes {
			if n.cur == in {
				pos = n.pos
				break
			}
		}
		if pos < 0 {
			for i, q := range in.pipe.entryQ {
				if q == in {
					qpos = i
					break
				}
			}
		}
		// An instruction in neither place (already vacated by a died
		// firing, or waiting on a sub-pipeline) has no schedule footprint.
		if pos >= 0 || qpos >= 0 {
			obs.InstKilled(in.pipe.name, pos, qpos)
		}
	}
	for _, l := range m.memList {
		l.Squash(in.iid)
	}
	ps := in.pipe
	for _, n := range ps.nodes {
		if n.cur == in {
			n.cur = nil
		}
	}
	for i, q := range ps.entryQ {
		if q == in {
			ps.entryQ = append(ps.entryQ[:i], ps.entryQ[i+1:]...)
			break
		}
	}
	delete(m.alive, in.iid)
	m.poolPut(in)
}

func (m *Machine) retire(in *inst, node *stageNode) {
	if len(m.retired) < maxTraceDefault(m.cfg.MaxTrace) {
		// Copy args into the retirement arena: the instruction record is
		// pooled, so the trace cannot alias its slices. EArgs transfer
		// ownership (they are copy-on-write and never mutated again).
		off := len(m.retArgs)
		m.retArgs = append(m.retArgs, in.args...)
		args := m.retArgs[off:len(m.retArgs):len(m.retArgs)]
		m.retired = append(m.retired, Retirement{
			Pipe:        in.pipe.name,
			IID:         in.iid,
			Args:        args,
			Exceptional: in.lef,
			EArgs:       in.eargs,
			Cycle:       m.cycle,
		})
	}
	delete(m.alive, in.iid)
	m.poolPut(in)
	_ = node
}

func maxTraceDefault(n int) int {
	if n <= 0 {
		return 1 << 20
	}
	return n
}
