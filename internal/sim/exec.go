package sim

import (
	"fmt"

	"xpdl/internal/locks"
	"xpdl/internal/pdl/ast"
	"xpdl/internal/val"
)

// firing is the atomic attempt to execute one stage for one instruction.
// Lock operations run inside lock transactions; combinational (=) slot
// writes land in the instruction's slots at once, journaled so a stall
// can undo them; everything else is buffered until the attempt
// succeeds. The machine owns a single firing record (Machine.fr) that
// is reset per attempt, so the hot path never allocates one. Every
// engine's stage body reads its inputs and reports its outcome here,
// and fills the record's journal and arenas.
type firing struct {
	m    *Machine
	node *stageNode
	in   *inst

	stalled bool
	died    bool
	// tookExc latches the lef value that selected a fork stage's arm
	// (the arm itself may overwrite lef afterwards).
	tookExc bool

	lef   bool
	eargs []val.Value
	// eargsOwned reports that eargs is this firing's private copy (see
	// storeEArg).
	eargsOwned bool

	// Slot writes, both empty outside a firing. undo journals each
	// combinational (=) write's slot and the value it replaced, in
	// write order; pend holds the latched (<-) writes, which land only
	// when the firing commits.
	undo []slotWrite
	pend []slotWrite

	// Per-firing arenas, emptied by begin: deferred effects, spawn
	// arguments, per-pipe spawn counts (and the pipes with a non-zero
	// count), and the extern/cat argument stack.
	effects    []effect
	spawnArgs  []val.Value
	spawnCnt   []int
	spawnDirty []int
	extArgs    []val.Value

	funcEnv []map[string]V // interpreter-only: in-language function envs, innermost last

	// Function-call state: the closure engine's slot-indexed frame, and
	// the return latch of the closure and bytecode engines.
	frame     []V
	fret      V
	freturned bool
}

// Effect kinds. Effects are the deferred machine mutations a firing
// produces. Every engine emits these same records into the firing's
// effect arena, and applyEffects applies them in order after the
// firing's lock transactions commit. Effects name machine state by
// index (volatile, pipe, speculation handle); the firing instruction is
// implicit. A death is not an effect: applyEffects removes a dying
// instruction after applying the rest.
const (
	effVolWrite    uint8 = iota // a=volatile index, val=value
	effSetGEF                   // a=pipe, flag=value
	effPipeClear                // a=pipe
	effSpecClear                // a=pipe
	effVerify                   // a=pipe, h=handle
	effInvalidate               // a=pipe, h=handle
	effSpecResolve              // a=pipe
	effReturn                   // v=result value
	effSpawn                    // a=pipe, flag=cross-pipe, argOff/argN, str=Plan.resultVars index (-1 none)
	effSpecSpawn                // a=pipe, argOff/argN, h=handle
)

// effect is one deferred mutation (see the eff* kinds).
type effect struct {
	val          val.Value
	v            V
	h            uint64
	a            int32
	argOff, argN int32
	str          int32
	kind         uint8
	flag         bool
}

// slotWrite is one journaled slot value: the previous value of a
// combinational write (firing.undo) or a latched write's new value
// (firing.pend).
type slotWrite struct {
	slot int
	sv   slotVal
}

// eff buffers one machine-level effect in the firing's reusable arena,
// so buffering allocates nothing and every engine's effects apply
// through one applyEffects.
func (f *firing) eff(e effect) { f.effects = append(f.effects, e) }

// begin resets the record for a firing of node's instruction.
func (f *firing) begin(node *stageNode) {
	in := node.cur
	f.node, f.in = node, in
	f.stalled, f.died, f.tookExc = false, false, false
	f.lef, f.eargs, f.eargsOwned = in.lef, in.eargs, false
	f.frame, f.fret, f.freturned = nil, V{}, false
	f.funcEnv = f.funcEnv[:0]
	f.m.frameTop = 0
	f.effects = f.effects[:0]
	f.spawnArgs = f.spawnArgs[:0]
	f.extArgs = f.extArgs[:0]
	for _, i := range f.spawnDirty {
		f.spawnCnt[i] = 0
	}
	f.spawnDirty = f.spawnDirty[:0]
}

// countSpawn records one spawn into pipe buffered by this firing, so
// entry-queue capacity checks see the firing's own spawns.
func (f *firing) countSpawn(pipe int) {
	if f.spawnCnt[pipe] == 0 {
		f.spawnDirty = append(f.spawnDirty, pipe)
	}
	f.spawnCnt[pipe]++
}

// applyEffects commits a firing's buffered machine-level effects in
// program order; called only after every lock transaction committed. A
// death's instruction removal comes last: a body stops at the dying
// statement, so no later effects exist.
func (m *Machine) applyEffects(in *inst, died bool) {
	f := &m.fr
	for i := range f.effects {
		ef := &f.effects[i]
		switch ef.kind {
		case effVolWrite:
			m.volVals[ef.a] = ef.val
		case effSetGEF:
			m.gefs[ef.a] = ef.flag
		case effPipeClear:
			m.pipeClear(m.pipeList[ef.a], in)
		case effSpecClear:
			m.pipeList[ef.a].specTab.clear()
		case effVerify:
			m.pipeList[ef.a].specTab.verify(ef.h)
		case effInvalidate:
			m.pipeList[ef.a].specTab.set(ef.h, specInvalid)
			for _, other := range m.snapshotAlive() {
				if other.spec && other.specHandle == ef.h {
					m.squash(other.iid)
				}
			}
		case effSpecResolve:
			in.spec = false
			m.pipeList[ef.a].specTab.del(in.specHandle)
		case effReturn:
			caller, alive := m.alive[in.callerIID]
			if !alive {
				continue // caller was squashed or flushed; result is dropped
			}
			if in.resultVar != "" {
				if slot, ok := caller.pipe.slotOf[in.resultVar]; ok {
					caller.vars[slot] = slotVal{v: ef.v, ok: true}
				}
			}
			caller.waiting = nil
		case effSpawn:
			ps := m.pipeList[ef.a]
			args := f.spawnArgs[ef.argOff : ef.argOff+ef.argN]
			if ef.flag { // blocking cross-pipe call
				rv := ""
				if ef.str >= 0 {
					rv = m.plan.resultVars[ef.str]
				}
				m.enqueue(ps, args, in.iid, false, 0, in.iid, rv)
				if rv != "" {
					in.waiting = &pendingCall{resultVar: rv, subPipe: ps.name}
				}
			} else {
				m.enqueue(ps, args, in.iid, false, 0, 0, "")
			}
		case effSpecSpawn:
			ps := m.pipeList[ef.a]
			ps.specTab.set(ef.h, specPending)
			m.enqueue(ps, f.spawnArgs[ef.argOff:ef.argOff+ef.argN], in.iid, true, ef.h, 0, "")
		}
	}
	if died {
		m.removeInst(in)
	}
}

// fire attempts to execute node's instruction for this cycle. It reports
// whether the pipeline made progress (the stage fired or the instruction
// died). This is the one firing protocol of every engine; the engines
// differ only in the stage body they run and in whether their stage
// nodes transact.
func (m *Machine) fire(node *stageNode) bool {
	in := node.cur
	if in.waiting != nil {
		return false // blocked on a sub-pipeline call
	}
	if m.faults != nil && m.faults.StallStage(m.cycle, node.gid) {
		return false // injected structural stall: timing-only, no trace
	}
	// The output register must be free. For the fork stage the commit
	// tail must be free (the exception chain is free whenever gef is
	// clear, which the gef guard already enforces).
	if node.fork != nil {
		if node.fork.commitNext != nil && node.fork.commitNext.cur != nil {
			return false
		}
	} else if node.next != nil && node.next.cur != nil {
		return false
	}

	f := &m.fr
	f.begin(node)

	if node.txn {
		for _, l := range m.memList {
			l.Begin()
		}
	}
	switch m.engine {
	case engVM:
		f.execVM()
	case engInterp:
		f.execStage()
	default:
		f.execStageC()
	}
	if f.stalled {
		f.undoWrites()
		if node.txn {
			for _, l := range m.memList {
				l.Rollback()
			}
		}
		return false
	}
	if node.txn {
		for _, l := range m.memList {
			l.Commit()
		}
	}

	// Apply buffered state: latched variable writes (after the
	// combinational ones, which are in place already), exception flags,
	// then machine-level effects in program order.
	f.undo = f.undo[:0]
	for _, w := range f.pend {
		in.vars[w.slot] = w.sv
	}
	f.pend = f.pend[:0]
	in.lef = f.lef
	in.eargs = f.eargs
	m.applyEffects(in, f.died)
	m.firings++

	if f.died {
		if node.cur == in {
			node.cur = nil
		}
		if obs := m.cfg.Observer; obs != nil {
			obs.InstKilled(node.pipe.name, node.pos, -1)
		}
		return true
	}
	if obs := m.cfg.Observer; obs != nil {
		obs.StageFired(node.pipe.name, node.pos)
	}

	dest := node.next
	if node.fork != nil {
		if f.tookExc {
			dest = node.fork.excNext
		} else {
			dest = node.fork.commitNext
		}
	}
	node.cur = nil
	if dest == nil {
		m.retire(in)
		return true
	}
	if dest.cur != nil {
		panic(fmt.Sprintf("sim: %s destination %s occupied by iid=%d", node.label(), dest.label(), dest.cur.iid))
	}
	dest.cur = in
	return true
}

// execStage is the interpreter's stage body: the stage's statements,
// then at a fork stage the arm lef selects.
func (f *firing) execStage() {
	node := f.node
	f.exec(node.stmts)
	if node.fork != nil && !f.stalled && !f.died {
		f.tookExc = f.lef
		if f.lef {
			f.exec(node.fork.excStage0)
		} else {
			f.exec(node.fork.commitStage0)
		}
	}
}

func (f *firing) stall() { f.stalled = true }

// setLocal makes a combinational (=) write, visible immediately: it
// writes the instruction's slot in place and journals the value it
// replaced.
func (f *firing) setLocal(slot int, v V) {
	vars := f.in.vars
	w := nextWrite(&f.undo)
	w.slot, w.sv = slot, vars[slot]
	vars[slot] = slotVal{v: v, ok: true}
}

// setPend records a latched (<-) write, visible from the next stage: it
// lands after the firing commits, over any combinational write to the
// same slot.
func (f *firing) setPend(slot int, v V) {
	w := nextWrite(&f.pend)
	w.slot, w.sv = slot, slotVal{v: v, ok: true}
}

// nextWrite extends a slot-write list by one entry and returns it for
// the caller to fill in place: appending a whole slotWrite would copy
// it through a stack temporary on every write.
func nextWrite(ws *[]slotWrite) *slotWrite {
	n := len(*ws)
	if n == cap(*ws) {
		*ws = append(*ws, slotWrite{})
	} else {
		*ws = (*ws)[:n+1]
	}
	return &(*ws)[n]
}

// load reads a slot of the firing instruction. A variable defined only
// on an untaken conditional path reads as a zero of its checked type
// (hardware: an undriven mux input).
func (f *firing) load(slot int) V {
	if sv := f.in.vars[slot]; sv.ok {
		return sv.v
	}
	return f.in.pipe.zeroes[slot]
}

// undoWrites restores the slots this firing's combinational writes
// replaced, newest first, and drops its latched writes: the instruction
// is back at its state before the firing.
func (f *firing) undoWrites() {
	for i := len(f.undo) - 1; i >= 0; i-- {
		w := &f.undo[i]
		f.in.vars[w.slot] = w.sv
	}
	f.undo = f.undo[:0]
	f.pend = f.pend[:0]
}

// ---------------------------------------------------------------------------
// Statement execution (AST interpreter; Engine "interp"). The compiled
// executor in compile.go is the default — this walker is retained as the
// differential-testing oracle and must stay observably equivalent.

func (f *firing) exec(stmts []ast.Stmt) {
	for _, s := range stmts {
		if f.stalled || f.died {
			return
		}
		f.stmt(s)
	}
}

func (f *firing) stmt(s ast.Stmt) {
	m := f.m
	in := f.in
	switch n := s.(type) {
	case *ast.Skip:
	case *ast.GefGuard:
		if m.gefs[f.node.pipe.idx] {
			f.stall()
			return
		}
		f.exec(n.Body)
	case *ast.Assign:
		if vol, isVol := m.plan.assignVol[s]; isVol {
			v := f.evalScalar(n.RHS, vol.decl.Elem.Width)
			if f.stalled {
				return
			}
			f.eff(effect{kind: effVolWrite, a: int32(vol.idx), val: v})
			return
		}
		v := f.eval(n.RHS)
		if f.stalled {
			return
		}
		if n.Latched {
			f.setPend(m.plan.assignSlot[s], v)
		} else {
			f.setLocal(m.plan.assignSlot[s], v)
		}
	case *ast.MemWrite:
		b := m.plan.memWBind[s]
		addr := f.evalAddr(n.Index, b.decl)
		v := f.evalScalar(n.RHS, b.decl.Elem.Width)
		if f.stalled {
			return
		}
		m.memList[b.lock].Write(in.iid, addr, v)
	case *ast.VolWrite:
		vol := m.plan.vols[n.Vol]
		v := f.evalScalar(n.RHS, vol.decl.Elem.Width)
		if f.stalled {
			return
		}
		f.eff(effect{kind: effVolWrite, a: int32(vol.idx), val: v})
	case *ast.If:
		c := f.eval(n.Cond)
		if f.stalled {
			return
		}
		if c.Val.IsTrue() {
			f.exec(n.Then)
		} else if n.Else != nil {
			f.exec(n.Else)
		}
	case *ast.Lock:
		f.lockOp(n)
	case *ast.SetLEF:
		f.lef = true
	case *ast.SetEArg:
		tr := f.node.pipe.res
		width := tr.EArgs[n.Index].Type.BitWidth()
		v := f.evalScalar(n.Value, width)
		if f.stalled {
			return
		}
		f.storeEArg(n.Index, v, len(tr.EArgs))
	case *ast.SetGEF:
		f.eff(effect{kind: effSetGEF, a: int32(f.node.pipe.idx), flag: n.Value})
	case *ast.PipeClear:
		f.eff(effect{kind: effPipeClear, a: int32(f.node.pipe.idx)})
	case *ast.SpecClear:
		f.eff(effect{kind: effSpecClear, a: int32(f.node.pipe.idx)})
	case *ast.Abort:
		m.memList[m.plan.memWBind[s].lock].Abort()
	case *ast.Call:
		f.call(n)
	case *ast.SpecCall:
		f.specCall(n)
	case *ast.Verify:
		h := f.eval(n.Handle).Uint()
		f.eff(effect{kind: effVerify, a: int32(f.node.pipe.idx), h: h})
	case *ast.Invalidate:
		h := f.eval(n.Handle).Uint()
		f.eff(effect{kind: effInvalidate, a: int32(f.node.pipe.idx), h: h})
	case *ast.SpecCheck:
		if !in.spec {
			return
		}
		switch f.node.pipe.specTab.status(in.specHandle) {
		case specPending:
			// Still speculative; keep executing speculatively.
		case specVerified:
			f.eff(effect{kind: effSpecResolve, a: int32(f.node.pipe.idx)})
		case specInvalid:
			f.die()
		}
	case *ast.SpecBarrier:
		if !in.spec {
			return
		}
		switch f.node.pipe.specTab.status(in.specHandle) {
		case specPending:
			f.stall()
		case specVerified:
			f.eff(effect{kind: effSpecResolve, a: int32(f.node.pipe.idx)})
		case specInvalid:
			f.die()
		}
	case *ast.Return:
		v := f.eval(n.Value)
		if f.stalled {
			return
		}
		f.eff(effect{kind: effReturn, v: v})
	case *ast.Throw:
		panic("sim: untranslated throw reached the simulator")
	case *ast.StageSep:
		panic("sim: stage separator inside a stage")
	default:
		panic(fmt.Sprintf("sim: unhandled statement %T", s))
	}
}

// storeEArg captures one canonicalized except argument, copy-on-write:
// the instruction's slice may be shared with the retirement trace, so
// the firing's first store copies it (with room for the pipe's n
// except arguments) and later stores write the copy in place. The
// instruction's slice is replaced only on a successful firing.
func (f *firing) storeEArg(index int, v val.Value, n int) {
	if !f.eargsOwned {
		size := max(len(f.eargs), index+1)
		cp := make([]val.Value, size, max(size, n))
		copy(cp, f.eargs)
		f.eargs, f.eargsOwned = cp, true
	}
	for len(f.eargs) <= index {
		f.eargs = append(f.eargs, val.Value{})
	}
	f.eargs[index] = v
}

// die squashes the executing instruction (misspeculation kill at a
// spec_check/spec_barrier). With this machine's eager invalidate —
// invalidate squashes the wrong-path instruction the moment it resolves,
// before the victim can fire another stage — these arms are defensive:
// they would matter under deferred squashing, where victims self-
// terminate at their next check point. The removal, applied after the
// firing's effects (applyEffects), squashes the instruction's lock
// reservations wholesale, covering anything staged earlier in this
// firing.
func (f *firing) die() { f.died = true }

func (f *firing) lockOp(n *ast.Lock) {
	in := f.in
	b := f.m.plan.memWBind[ast.Stmt(n)]
	l := f.m.memList[b.lock]
	addr := locks.Whole
	if n.Index != nil {
		addr = f.evalAddr(n.Index, b.decl)
		if f.stalled {
			return
		}
	}
	switch n.Op {
	case ast.LockAcquire:
		if !l.CanReserve(in.iid, addr, n.Mode == ast.ModeWrite) {
			f.stall()
			return
		}
		l.Reserve(in.iid, addr, n.Mode == ast.ModeWrite)
		if !l.Owns(in.iid, addr, n.Mode == ast.ModeWrite) {
			f.stall()
		}
	case ast.LockReserve:
		if !l.CanReserve(in.iid, addr, n.Mode == ast.ModeWrite) {
			f.stall()
			return
		}
		l.Reserve(in.iid, addr, n.Mode == ast.ModeWrite)
	case ast.LockBlock:
		if !l.Owns(in.iid, addr, n.Mode == ast.ModeWrite) {
			f.stall()
		}
	case ast.LockRelease:
		l.Release(in.iid, addr)
	}
}

func (f *firing) call(n *ast.Call) {
	m := f.m
	in := f.in
	target := m.pipe(n.Pipe)
	if len(target.entryQ)+f.spawnCnt[target.idx] >= m.cfg.EntryCap {
		f.stall()
		return
	}
	argOff := int32(len(f.spawnArgs))
	for i, a := range n.Args {
		v := f.evalScalar(a, target.decl.Params[i].Type.BitWidth())
		if f.stalled {
			return
		}
		f.spawnArgs = append(f.spawnArgs, v)
	}
	f.countSpawn(target.idx)
	if n.Pipe == in.pipe.name {
		f.eff(effect{kind: effSpawn, a: int32(target.idx), argOff: argOff, argN: int32(len(n.Args)), str: -1})
		return
	}
	// Blocking sub-pipeline call.
	f.eff(effect{kind: effSpawn, a: int32(target.idx), argOff: argOff, argN: int32(len(n.Args)),
		flag: true, str: m.plan.resultVar(n)})
}

func (f *firing) specCall(n *ast.SpecCall) {
	m := f.m
	ps := f.node.pipe
	if len(ps.entryQ)+f.spawnCnt[ps.idx] >= m.cfg.EntryCap {
		f.stall()
		return
	}
	argOff := int32(len(f.spawnArgs))
	for i, a := range n.Args {
		v := f.evalScalar(a, ps.decl.Params[i].Type.BitWidth())
		if f.stalled {
			return
		}
		f.spawnArgs = append(f.spawnArgs, v)
	}
	// Handle ids are consumed even if the firing later stalls; ids are
	// plentiful and stale pending entries are unreachable. The handle
	// value must be wide enough never to alias (48 bits outlives any
	// run); its hardware footprint is modeled separately (ast.THandle).
	h := ps.specTab.nextHandle
	ps.specTab.nextHandle++
	f.setLocal(f.m.plan.assignSlot[ast.Stmt(n)], Scalar(val.New(h, 48)))
	f.countSpawn(ps.idx)
	f.eff(effect{kind: effSpecSpawn, a: int32(ps.idx), argOff: argOff, argN: int32(len(n.Args)), h: h})
}

// pipeClear implements the translated pipeclear: every instruction in the
// pipeline body (and the entry queue) dies, except the exceptional
// instruction performing the rollback.
func (m *Machine) pipeClear(ps *pipeState, self *inst) {
	for _, node := range ps.body {
		if node.cur != nil && node.cur != self {
			m.squash(node.cur.iid)
		}
	}
	for len(ps.entryQ) > 0 {
		m.squash(ps.entryQ[0].iid)
	}
}

// snapshotAlive returns the live instructions in a stable order. The
// returned slice is a reusable machine buffer, valid until the next call.
func (m *Machine) snapshotAlive() []*inst {
	out := m.snapBuf[:0]
	for _, in := range m.alive {
		out = append(out, in)
	}
	// Deterministic order (by iid) so squash cascades are reproducible.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].iid > out[j].iid; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	m.snapBuf = out
	return out
}

// ---------------------------------------------------------------------------
// Expression evaluation

// evalScalar evaluates and resizes to width bits.
func (f *firing) evalScalar(e ast.Expr, width int) val.Value {
	v := f.eval(e)
	if f.stalled {
		return val.New(0, width)
	}
	return val.New(v.Uint(), width)
}

// evalAddr evaluates a memory index, masking to the memory's depth.
func (f *firing) evalAddr(e ast.Expr, md *ast.MemDecl) uint64 {
	v := f.eval(e)
	if f.stalled {
		return 0
	}
	return v.Uint() % uint64(md.Depth)
}

func (f *firing) eval(e ast.Expr) V {
	switch n := e.(type) {
	case *ast.IntLit:
		w := n.Width
		if w == 0 {
			w = 64
		}
		return Scalar(val.New(n.Value, w))
	case *ast.BoolLit:
		return Scalar(val.Bool(n.Value))
	case *ast.Ident:
		return f.lookup(n)
	case *ast.EArgRef:
		if n.Index < len(f.eargs) {
			return Scalar(f.eargs[n.Index])
		}
		return Scalar(val.New(0, 1))
	case *ast.LefRef:
		return Scalar(val.Bool(f.lef))
	case *ast.GefRef:
		return Scalar(val.Bool(f.m.gefs[f.node.pipe.idx]))
	case *ast.Unary:
		x := f.eval(n.X)
		if f.stalled {
			return x
		}
		switch n.Op {
		case ast.OpNot:
			return Scalar(val.Bool(!x.Val.IsTrue()))
		case ast.OpBNot:
			return Scalar(x.Val.Not())
		default:
			return Scalar(x.Val.Neg())
		}
	case *ast.Binary:
		return f.evalBinary(n)
	case *ast.Ternary:
		c := f.eval(n.Cond)
		if f.stalled {
			return c
		}
		thenW, elseW := f.m.plan.info.ArmWidths(n)
		arm, w := n.Else, elseW
		if c.Val.IsTrue() {
			arm, w = n.Then, thenW
		}
		v := f.eval(arm)
		if w > 0 {
			v = Scalar(v.Val.ZeroExt(w))
		}
		return v
	case *ast.CallExpr:
		return f.evalCall(n)
	case *ast.MemRead:
		return f.evalMemRead(n)
	case *ast.Slice:
		x := f.eval(n.X)
		if f.stalled {
			return x
		}
		info := f.m.plan.info
		return Scalar(x.Val.Slice(info.IntValue(n.Hi), info.IntValue(n.Lo)))
	case *ast.FieldAccess:
		x := f.eval(n.X)
		if f.stalled {
			return x
		}
		fr, ok := f.m.plan.fieldIdx[n]
		if !ok {
			fr = unknownField
		}
		return Scalar(f.m.field(x, fr, n.Field))
	}
	panic(fmt.Sprintf("sim: unhandled expression %T", e))
}

func (f *firing) lookup(n *ast.Ident) V {
	// Function-local environments shadow everything when active (only
	// in-language function bodies run with one; their identifiers are
	// not pre-resolved).
	if len(f.funcEnv) > 0 {
		env := f.funcEnv[len(f.funcEnv)-1]
		if v, ok := env[n.Name]; ok {
			return v
		}
		if c, ok := f.m.plan.consts[n.Name]; ok {
			return c
		}
		panic(fmt.Sprintf("sim: function references unknown name %q", n.Name))
	}
	b, ok := f.m.plan.identBind[n]
	if !ok {
		panic(fmt.Sprintf("sim: unresolved name %q in pipe %s", n.Name, f.in.pipe.name))
	}
	switch b.kind {
	case 1:
		return b.con
	case 2:
		return Scalar(f.m.volVals[b.vol.idx])
	}
	return f.load(b.slot)
}

func (f *firing) evalBinary(n *ast.Binary) V {
	l := f.eval(n.L)
	if f.stalled {
		return l
	}
	r := f.eval(n.R)
	if f.stalled {
		return r
	}
	lv, rv := l.Val, r.Val
	if lv.Width() != rv.Width() {
		switch adaptL, adaptR := f.m.plan.info.AdaptSides(n); {
		case adaptL:
			lv = val.New(lv.Uint(), rv.Width())
		case adaptR:
			rv = val.New(rv.Uint(), lv.Width())
		}
	}
	return Scalar(binOp(n.Op, lv, rv))
}

// binOp applies one binary operator; shared by both executors.
func binOp(op ast.BinOp, lv, rv val.Value) val.Value {
	switch op {
	case ast.OpAdd:
		return lv.Add(rv)
	case ast.OpSub:
		return lv.Sub(rv)
	case ast.OpMul:
		return lv.Mul(rv)
	case ast.OpDiv:
		return lv.DivU(rv)
	case ast.OpMod:
		return lv.RemU(rv)
	case ast.OpAnd:
		return lv.And(rv)
	case ast.OpOr:
		return lv.Or(rv)
	case ast.OpXor:
		return lv.Xor(rv)
	case ast.OpShl:
		return lv.Shl(rv)
	case ast.OpShr:
		return lv.ShrU(rv)
	case ast.OpLAnd:
		return val.Bool(lv.IsTrue() && rv.IsTrue())
	case ast.OpLOr:
		return val.Bool(lv.IsTrue() || rv.IsTrue())
	case ast.OpEq:
		return lv.EqV(rv)
	case ast.OpNe:
		return lv.NeV(rv)
	case ast.OpLt:
		return lv.LtU(rv)
	case ast.OpLe:
		return lv.LeU(rv)
	case ast.OpGt:
		return lv.GtU(rv)
	case ast.OpGe:
		return lv.GeU(rv)
	}
	panic("sim: unhandled binary operator")
}

func (f *firing) evalCall(n *ast.CallExpr) V {
	// Builtins.
	switch n.Name {
	case "ext":
		x := f.eval(n.Args[0])
		if f.stalled {
			return x
		}
		return Scalar(x.Val.ZeroExt(f.m.plan.info.IntValue(n.Args[1])))
	case "sext":
		x := f.eval(n.Args[0])
		if f.stalled {
			return x
		}
		return Scalar(x.Val.SignExt(f.m.plan.info.IntValue(n.Args[1])))
	case "cat":
		base := len(f.extArgs)
		for _, a := range n.Args {
			v := f.eval(a).Val
			if f.stalled {
				f.extArgs = f.extArgs[:base]
				return Scalar(v)
			}
			f.extArgs = append(f.extArgs, v)
		}
		r := val.Cat(f.extArgs[base:]...)
		f.extArgs = f.extArgs[:base]
		return Scalar(r)
	case "lts", "les", "gts", "ges":
		a := f.eval(n.Args[0])
		b := f.eval(n.Args[1])
		if f.stalled {
			return a
		}
		av, bv := a.Val, b.Val
		switch n.Name {
		case "lts":
			return Scalar(av.LtS(bv))
		case "les":
			return Scalar(av.LeS(bv))
		case "gts":
			return Scalar(av.GtS(bv))
		default:
			return Scalar(av.GeS(bv))
		}
	case "shra":
		a := f.eval(n.Args[0])
		b := f.eval(n.Args[1])
		if f.stalled {
			return a
		}
		return Scalar(a.Val.ShrS(b.Val))
	case "divs":
		a := f.eval(n.Args[0])
		b := f.eval(n.Args[1])
		if f.stalled {
			return a
		}
		return Scalar(a.Val.DivS(b.Val))
	case "rems":
		a := f.eval(n.Args[0])
		b := f.eval(n.Args[1])
		if f.stalled {
			return a
		}
		return Scalar(a.Val.RemS(b.Val))
	case "mulfull":
		a := f.eval(n.Args[0])
		b := f.eval(n.Args[1])
		if f.stalled {
			return a
		}
		return Scalar(a.Val.MulFull(b.Val))
	}

	// Extern.
	if xi, ok := f.m.plan.externIdx[n.Name]; ok {
		if f.m.faults != nil && f.m.faults.DelayExtern(f.m.cycle, f.in.iid, siteKey(n.Name)) {
			f.stall()
			return Scalar(val.New(0, 1))
		}
		// Arguments are sized onto the extern arena (see callExpr).
		ext, decl := f.m.externs[xi], f.m.plan.info.Prog.Externs[xi]
		base := len(f.extArgs)
		for i, a := range n.Args {
			v := f.evalScalar(a, decl.Params[i].Type.BitWidth())
			if f.stalled {
				f.extArgs = f.extArgs[:base]
				return Scalar(v)
			}
			f.extArgs = append(f.extArgs, v)
		}
		end := len(f.extArgs)
		r := ext(f.extArgs[base:end:end])
		f.extArgs = f.extArgs[:base]
		return r
	}

	// In-language function: the arguments, evaluated in the caller's
	// environment, wait on the extern arena until the callee's opens.
	fn := f.m.plan.funcs[n.Name]
	if fn == nil {
		panic(fmt.Sprintf("sim: call to unknown function %q", n.Name))
	}
	base := len(f.extArgs)
	for i, a := range n.Args {
		v := f.eval(a)
		if f.stalled {
			f.extArgs = f.extArgs[:base]
			return v
		}
		f.extArgs = append(f.extArgs, val.New(v.Uint(), fn.Params[i].Type.BitWidth()))
	}
	env := f.pushEnv()
	for i, p := range fn.Params {
		env[p.Name] = Scalar(f.extArgs[base+i])
	}
	f.extArgs = f.extArgs[:base]
	ret, returned := f.funcStmts(fn, env, fn.Body)
	f.funcEnv = f.funcEnv[:len(f.funcEnv)-1]
	if !returned {
		// Conditional fallthrough: the declared result's zero value.
		ret = Scalar(val.New(0, fn.Result.BitWidth()))
	}
	return ret
}

// pushEnv opens an empty environment for an in-language function call.
// Environments are reused: begin empties the stack, not the maps.
func (f *firing) pushEnv() map[string]V {
	n := len(f.funcEnv)
	if n < cap(f.funcEnv) {
		f.funcEnv = f.funcEnv[:n+1]
		if env := f.funcEnv[n]; env != nil {
			clear(env)
			return env
		}
	} else {
		f.funcEnv = append(f.funcEnv, nil)
	}
	env := make(map[string]V)
	f.funcEnv[n] = env
	return env
}

// funcStmts interprets a statement list of in-language function fn in
// environment env, reporting the value of the return that ended it.
func (f *firing) funcStmts(fn *ast.FuncDecl, env map[string]V, stmts []ast.Stmt) (V, bool) {
	for _, s := range stmts {
		switch n := s.(type) {
		case *ast.Assign:
			env[n.Name] = f.eval(n.RHS)
		case *ast.If:
			body := n.Else
			if f.eval(n.Cond).Val.IsTrue() {
				body = n.Then
			}
			if ret, returned := f.funcStmts(fn, env, body); returned {
				return ret, true
			}
		case *ast.Return:
			return Scalar(val.New(f.eval(n.Value).Uint(), fn.Result.BitWidth())), true
		case *ast.Skip:
		default:
			panic(fmt.Sprintf("sim: statement %T in function %s", s, fn.Name))
		}
	}
	return V{}, false
}

func (f *firing) evalMemRead(n *ast.MemRead) V {
	b := f.m.plan.memBind[n]
	addr := f.evalAddr(n.Index, b.decl)
	if f.stalled {
		return Scalar(val.New(0, b.decl.Elem.Width))
	}
	if b.plain >= 0 {
		return Scalar(f.m.plainList[b.plain].Peek(addr))
	}
	l := f.m.memList[b.lock]
	if !l.ReadReady(f.in.iid, addr) {
		f.stall()
		return Scalar(val.New(0, b.decl.Elem.Width))
	}
	return Scalar(l.Read(f.in.iid, addr))
}
