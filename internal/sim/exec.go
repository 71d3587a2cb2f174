package sim

import (
	"fmt"

	"xpdl/internal/locks"
	"xpdl/internal/pdl/ast"
	"xpdl/internal/val"
)

// firing is the atomic attempt to execute one stage for one instruction.
// Lock operations run inside lock transactions; everything else is
// buffered until the attempt succeeds. The machine owns a single firing
// record (Machine.fr) that is reset per attempt, so the hot path never
// allocates one.
type firing struct {
	m    *Machine
	node *stageNode
	in   *inst

	stalled bool
	died    bool

	// Combinational (=) and latched (<-) writes live in the machine's
	// epoch-stamped slot scratch; see firingScratch.
	wroteAny bool

	lef   bool
	eargs []val.Value

	dest      *stageNode // chosen continuation (fork overrides node.next)
	destValid bool

	funcEnv []map[string]V // interpreter-only: scoped in-language function envs

	// Compiled-executor function-call state: the current slot-indexed
	// frame plus the return latch (see compile.go).
	frame     []V
	fret      V
	freturned bool
}

// effKind discriminates buffered machine-level effects. Effects are
// typed records in a reusable arena (Machine.effBuf) rather than
// closures, so buffering them allocates nothing.
type effKind uint8

const (
	effVolWrite effKind = iota
	effSetGEF
	effPipeClear
	effSpecClear
	effVerify
	effInvalidate
	effSpecResolve
	effRemoveInst
	effReturn
	effSpawn
	effSpecSpawn
)

type effectRec struct {
	kind      effKind
	flag      bool         // effSetGEF value; effSpawn blocking
	vol       *volatileReg // effVolWrite target
	ps        *pipeState   // pipe whose gef/specTab/entryQ is affected
	in        *inst        // self (pipeClear), victim (removeInst), spawner, resolvee
	v         val.Value    // effVolWrite payload
	vv        V            // effReturn payload
	h         uint64       // speculation handle
	argOff    int          // effSpawn/effSpecSpawn: offset into Machine.spawnArena
	argN      int
	callerIID uint64
	resultVar string
}

func (f *firing) eff(e effectRec) { f.m.effBuf = append(f.m.effBuf, e) }

// applyEffects commits the buffered machine-level effects in program
// order; called only after every lock transaction committed.
func (m *Machine) applyEffects() {
	for i := 0; i < len(m.effBuf); i++ {
		e := &m.effBuf[i]
		switch e.kind {
		case effVolWrite:
			m.volVals[e.vol.idx] = e.v
		case effSetGEF:
			m.gefs[e.ps.idx] = e.flag
		case effPipeClear:
			m.pipeClear(e.ps, e.in)
		case effSpecClear:
			e.ps.specTab.clear()
		case effVerify:
			e.ps.specTab.verify(e.h)
		case effInvalidate:
			e.ps.specTab.set(e.h, specInvalid)
			for _, other := range m.snapshotAlive() {
				if other.spec && other.specHandle == e.h {
					m.squash(other.iid)
				}
			}
		case effSpecResolve:
			e.in.spec = false
			e.ps.specTab.del(e.in.specHandle)
		case effRemoveInst:
			m.removeInst(e.in)
		case effReturn:
			caller, alive := m.alive[e.callerIID]
			if !alive {
				continue // caller was squashed or flushed; result is dropped
			}
			if e.resultVar != "" {
				if slot, ok := caller.pipe.slotOf[e.resultVar]; ok {
					caller.vars[slot] = slotVal{V: e.vv, OK: true}
				}
			}
			caller.waiting = nil
		case effSpawn:
			args := m.spawnArena[e.argOff : e.argOff+e.argN]
			if e.flag { // blocking cross-pipe call
				m.enqueue(e.ps, args, e.in.iid, false, 0, e.in.iid, e.resultVar)
				if e.resultVar != "" {
					e.in.waiting = &pendingCall{resultVar: e.resultVar, subPipe: e.ps.name}
				}
			} else {
				m.enqueue(e.ps, args, e.in.iid, false, 0, 0, "")
			}
		case effSpecSpawn:
			e.ps.specTab.set(e.h, specPending)
			m.enqueue(e.ps, m.spawnArena[e.argOff:e.argOff+e.argN], e.in.iid, true, e.h, 0, "")
		}
	}
}

// fire attempts to execute node's instruction for this cycle. It reports
// whether the pipeline made progress (the stage fired or the instruction
// died).
func (m *Machine) fire(node *stageNode) bool {
	if m.engine == engVM {
		return m.fireVM(node)
	}
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

	m.scratch.epoch++
	f := &m.fr
	f.node, f.in = node, in
	f.stalled, f.died, f.wroteAny = false, false, false
	f.lef, f.eargs = in.lef, in.eargs
	f.dest, f.destValid = nil, false
	f.frame, f.fret, f.freturned = nil, V{}, false
	f.funcEnv = f.funcEnv[:0]
	m.effBuf = m.effBuf[:0]
	m.spawnArena = m.spawnArena[:0]
	for _, i := range m.spawnDirty {
		m.spawnCnt[i] = 0
	}
	m.spawnDirty = m.spawnDirty[:0]
	m.frameTop = 0
	m.extArgs = m.extArgs[:0]

	for _, l := range m.memList {
		l.Begin()
	}
	if m.engine == engInterp {
		f.exec(node.stmts)
		if node.fork != nil && !f.stalled && !f.died {
			if f.lef {
				f.exec(node.fork.excStage0)
				f.dest, f.destValid = node.fork.excNext, true
			} else {
				f.exec(node.fork.commitStage0)
				f.dest, f.destValid = node.fork.commitNext, true
			}
		}
	} else {
		f.execC(node.code)
		if node.fork != nil && !f.stalled && !f.died {
			if f.lef {
				f.execC(node.fork.excCode)
				f.dest, f.destValid = node.fork.excNext, true
			} else {
				f.execC(node.fork.commitCode)
				f.dest, f.destValid = node.fork.commitNext, true
			}
		}
	}
	if f.stalled {
		for _, l := range m.memList {
			l.Rollback()
		}
		return f.died
	}
	for _, l := range m.memList {
		l.Commit()
	}

	// Apply buffered state: combinational then latched variable writes,
	// exception flags, then machine-level effects in program order.
	if f.wroteAny {
		sc := &m.scratch
		for slot := range in.vars {
			if sc.localEpoch[slot] == sc.epoch {
				in.vars[slot] = slotVal{V: sc.local[slot], OK: true}
			}
			if sc.pendEpoch[slot] == sc.epoch {
				in.vars[slot] = slotVal{V: sc.pend[slot], OK: true}
			}
		}
	}
	in.lef = f.lef
	in.eargs = f.eargs
	m.applyEffects()
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
	if f.destValid {
		dest = f.dest
	}
	node.cur = nil
	if dest == nil {
		m.retire(in, node)
		return true
	}
	if dest.cur != nil {
		panic(fmt.Sprintf("sim: %s destination %s occupied by iid=%d", node.label(), dest.label(), dest.cur.iid))
	}
	dest.cur = in
	return true
}

func (f *firing) stall() { f.stalled = true }

// setLocal records a combinational (=) write, visible immediately.
func (f *firing) setLocal(slot int, v V) {
	sc := &f.m.scratch
	sc.local[slot] = v
	sc.localEpoch[slot] = sc.epoch
	f.wroteAny = true
}

// setPend records a latched (<-) write, visible from the next stage.
func (f *firing) setPend(slot int, v V) {
	sc := &f.m.scratch
	sc.pend[slot] = v
	sc.pendEpoch[slot] = sc.epoch
	f.wroteAny = true
}

// getLocal reads back a combinational write from this firing.
func (f *firing) getLocal(slot int) (V, bool) {
	sc := &f.m.scratch
	if sc.localEpoch[slot] == sc.epoch {
		return sc.local[slot], true
	}
	return V{}, false
}

// spawnCountIdx / addSpawnIdx track per-firing spawns by pipe index so
// entry-queue capacity checks see this firing's own buffered spawns.
func (f *firing) spawnCountIdx(idx int) int { return f.m.spawnCnt[idx] }

func (f *firing) addSpawnIdx(idx int) {
	m := f.m
	if m.spawnCnt[idx] == 0 {
		m.spawnDirty = append(m.spawnDirty, idx)
	}
	m.spawnCnt[idx]++
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
			f.eff(effectRec{kind: effVolWrite, vol: vol, v: v})
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
		f.eff(effectRec{kind: effVolWrite, vol: vol, v: v})
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
		f.storeEArg(n.Index, v)
	case *ast.SetGEF:
		f.eff(effectRec{kind: effSetGEF, ps: f.node.pipe, flag: n.Value})
	case *ast.PipeClear:
		f.eff(effectRec{kind: effPipeClear, ps: f.node.pipe, in: in})
	case *ast.SpecClear:
		f.eff(effectRec{kind: effSpecClear, ps: f.node.pipe})
	case *ast.Abort:
		m.memList[m.plan.memWBind[s].lock].Abort()
	case *ast.Call:
		f.call(n)
	case *ast.SpecCall:
		f.specCall(n)
	case *ast.Verify:
		h := f.eval(n.Handle).Uint()
		f.eff(effectRec{kind: effVerify, ps: f.node.pipe, h: h})
	case *ast.Invalidate:
		h := f.eval(n.Handle).Uint()
		f.eff(effectRec{kind: effInvalidate, ps: f.node.pipe, h: h})
	case *ast.SpecCheck:
		if !in.spec {
			return
		}
		switch f.node.pipe.specTab.status(in.specHandle) {
		case specPending:
			// Still speculative; keep executing speculatively.
		case specVerified:
			f.eff(effectRec{kind: effSpecResolve, ps: f.node.pipe, in: in})
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
			f.eff(effectRec{kind: effSpecResolve, ps: f.node.pipe, in: in})
		case specInvalid:
			f.die()
		}
	case *ast.Return:
		v := f.eval(n.Value)
		if f.stalled {
			return
		}
		f.eff(effectRec{kind: effReturn, callerIID: in.callerIID, resultVar: in.resultVar, vv: v})
	case *ast.Throw:
		panic("sim: untranslated throw reached the simulator")
	case *ast.StageSep:
		panic("sim: stage separator inside a stage")
	default:
		panic(fmt.Sprintf("sim: unhandled statement %T", s))
	}
}

// storeEArg captures one canonicalized except argument, copy-on-write:
// the instruction's slice is replaced only on a successful firing.
func (f *firing) storeEArg(index int, v val.Value) {
	for len(f.eargs) <= index {
		f.eargs = append(f.eargs, val.Value{})
	}
	cp := append([]val.Value(nil), f.eargs...)
	cp[index] = v
	f.eargs = cp
}

// die squashes the executing instruction (misspeculation kill at a
// spec_check/spec_barrier). With this machine's eager invalidate —
// invalidate squashes the wrong-path instruction the moment it resolves,
// before the victim can fire another stage — these arms are defensive:
// they would matter under deferred squashing, where victims self-
// terminate at their next check point. The removal effect squashes the
// instruction's lock reservations wholesale, covering anything staged
// earlier in this firing.
func (f *firing) die() {
	f.died = true
	f.eff(effectRec{kind: effRemoveInst, in: f.in})
}

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
	if len(target.entryQ)+f.spawnCountIdx(target.idx) >= m.cfg.EntryCap {
		f.stall()
		return
	}
	argOff := len(m.spawnArena)
	for i, a := range n.Args {
		v := f.evalScalar(a, target.decl.Params[i].Type.BitWidth())
		if f.stalled {
			return
		}
		m.spawnArena = append(m.spawnArena, v)
	}
	f.addSpawnIdx(target.idx)
	if n.Pipe == in.pipe.name {
		f.eff(effectRec{kind: effSpawn, ps: target, in: in, argOff: argOff, argN: len(n.Args)})
		return
	}
	// Blocking sub-pipeline call.
	f.eff(effectRec{kind: effSpawn, ps: target, in: in, argOff: argOff, argN: len(n.Args),
		flag: true, resultVar: n.Result})
}

func (f *firing) specCall(n *ast.SpecCall) {
	m := f.m
	in := f.in
	ps := f.node.pipe
	if len(ps.entryQ)+f.spawnCountIdx(ps.idx) >= m.cfg.EntryCap {
		f.stall()
		return
	}
	argOff := len(m.spawnArena)
	for i, a := range n.Args {
		v := f.evalScalar(a, ps.decl.Params[i].Type.BitWidth())
		if f.stalled {
			return
		}
		m.spawnArena = append(m.spawnArena, v)
	}
	// Handle ids are consumed even if the firing later stalls; ids are
	// plentiful and stale pending entries are unreachable. The handle
	// value must be wide enough never to alias (48 bits outlives any
	// run); its hardware footprint is modeled separately (ast.THandle).
	h := ps.specTab.nextHandle
	ps.specTab.nextHandle++
	f.setLocal(f.m.plan.assignSlot[ast.Stmt(n)], Scalar(val.New(h, 48)))
	f.addSpawnIdx(ps.idx)
	f.eff(effectRec{kind: effSpecSpawn, ps: ps, in: in, argOff: argOff, argN: len(n.Args), h: h})
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
		if c.Val.IsTrue() {
			return f.eval(n.Then)
		}
		return f.eval(n.Else)
	case *ast.CallExpr:
		return f.evalCall(n)
	case *ast.MemRead:
		return f.evalMemRead(n)
	case *ast.Slice:
		x := f.eval(n.X)
		hi := int(f.eval(n.Hi).Uint())
		lo := int(f.eval(n.Lo).Uint())
		if f.stalled {
			return x
		}
		return Scalar(x.Val.Slice(hi, lo))
	case *ast.FieldAccess:
		x := f.eval(n.X)
		if f.stalled {
			return x
		}
		if x.Rec == nil {
			panic(fmt.Sprintf("sim: field access .%s on scalar", n.Field))
		}
		if fr, ok := f.m.plan.fieldIdx[n]; ok && fr.idx >= 0 &&
			fr.idx < len(x.Rec.Names) && x.Rec.Names[fr.idx] == n.Field {
			return Scalar(x.Rec.Vals[fr.idx])
		}
		fv, ok := x.Rec.Field(n.Field)
		if !ok {
			panic(fmt.Sprintf("sim: record has no field %q", n.Field))
		}
		return Scalar(fv)
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
	if v, ok := f.getLocal(b.slot); ok {
		return v
	}
	if sv := f.in.vars[b.slot]; sv.OK {
		return sv.V
	}
	// A variable defined only on an untaken conditional path reads as a
	// zero of its checked type (hardware: an undriven mux input).
	return f.in.pipe.zeroes[b.slot]
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
	if lv.Width() != rv.Width() && n.Op != ast.OpShl && n.Op != ast.OpShr {
		switch {
		case f.m.plan.isUnsized(n.L):
			lv = val.New(lv.Uint(), rv.Width())
		case f.m.plan.isUnsized(n.R):
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
		w := int(f.eval(n.Args[1]).Uint())
		if f.stalled {
			return x
		}
		return Scalar(x.Val.ZeroExt(w))
	case "sext":
		x := f.eval(n.Args[0])
		w := int(f.eval(n.Args[1]).Uint())
		if f.stalled {
			return x
		}
		return Scalar(x.Val.SignExt(w))
	case "cat":
		parts := make([]val.Value, len(n.Args))
		for i, a := range n.Args {
			parts[i] = f.eval(a).Val
			if f.stalled {
				return Scalar(parts[i])
			}
		}
		return Scalar(val.Cat(parts...))
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
	if ext, ok := f.m.externs[n.Name]; ok {
		if f.m.faults != nil && f.m.faults.DelayExtern(f.m.cycle, f.in.iid, siteKey(n.Name)) {
			f.stall()
			return Scalar(val.New(0, 1))
		}
		decl := f.m.plan.externDecl(n.Name)
		args := make([]val.Value, len(n.Args))
		for i, a := range n.Args {
			args[i] = f.evalScalar(a, decl.Params[i].Type.BitWidth())
			if f.stalled {
				return Scalar(args[i])
			}
		}
		return ext(args)
	}

	// In-language function.
	fn := f.m.plan.funcs[n.Name]
	if fn == nil {
		panic(fmt.Sprintf("sim: call to unknown function %q", n.Name))
	}
	args := make([]V, len(n.Args))
	for i, a := range n.Args {
		v := f.eval(a)
		if f.stalled {
			return v
		}
		args[i] = Scalar(val.New(v.Uint(), fn.Params[i].Type.BitWidth()))
	}
	return f.callFunc(fn, args)
}

// callFunc interprets an in-language combinational function.
func (f *firing) callFunc(fn *ast.FuncDecl, args []V) V {
	env := make(map[string]V, len(fn.Params)+4)
	for i, p := range fn.Params {
		env[p.Name] = args[i]
	}
	f.funcEnv = append(f.funcEnv, env)
	defer func() { f.funcEnv = f.funcEnv[:len(f.funcEnv)-1] }()

	var ret V
	returned := false
	var walk func(stmts []ast.Stmt)
	walk = func(stmts []ast.Stmt) {
		for _, s := range stmts {
			if returned {
				return
			}
			switch n := s.(type) {
			case *ast.Assign:
				env[n.Name] = f.eval(n.RHS)
			case *ast.If:
				if f.eval(n.Cond).Val.IsTrue() {
					walk(n.Then)
				} else if n.Else != nil {
					walk(n.Else)
				}
			case *ast.Return:
				ret = Scalar(val.New(f.eval(n.Value).Uint(), fn.Result.BitWidth()))
				returned = true
			case *ast.Skip:
			default:
				panic(fmt.Sprintf("sim: statement %T in function %s", s, fn.Name))
			}
		}
	}
	walk(fn.Body)
	if !returned {
		// Conditional fallthrough: the declared result's zero value.
		ret = Scalar(val.New(0, fn.Result.BitWidth()))
	}
	return ret
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
