// The bytecode-engine bridge (Config.Engine "vm"): compiles the design
// to one shared vm.Program, wires the machine's struct-of-arrays state
// into a vm.Env, and runs firings through the dispatch loop while
// reusing the machine's own effect application, write-back and
// squash/spawn machinery — so the engines differ only in how a stage's
// statements execute, never in what a firing means.
package sim

import (
	"fmt"

	"xpdl/internal/pdl/ast"
	"xpdl/internal/vm"
)

// vmProgram returns the plan's bytecode Program, compiling it the first
// time a vm machine asks. A Program is a pure function of the plan
// (every index space it bakes in — slots, volatiles, memories, externs,
// functions, pipes, stage gids — comes from declaration or sorted-name
// order), so every vm machine of the design runs one image. This is
// what makes pooled bveq machines cheap: N machines, one decode. Closure and
// interpreter machines never pay for the compile.
func (p *Plan) vmProgram() *vm.Program {
	p.vmOnce.Do(func() { p.vmProg = p.compileVM() })
	return p.vmProg
}

// compileVM lowers the design to bytecode through hooks over the plan's
// resolution tables.
func (p *Plan) compileVM() *vm.Program {
	extIdx := make(map[string]int, len(p.info.Prog.Externs))
	for i, ed := range p.info.Prog.Externs {
		extIdx[ed.Name] = i
	}

	memRef := func(b *memBinding) vm.MemRef {
		return vm.MemRef{Lock: b.lock, Plain: b.plain, Depth: uint64(b.decl.Depth), Width: b.decl.Elem.Width}
	}
	paramW := func(params []ast.Param) []int {
		pw := make([]int, len(params))
		for j, prm := range params {
			pw[j] = prm.Type.BitWidth()
		}
		return pw
	}

	h := vm.Hooks{
		Ident: func(n *ast.Ident) (vm.IdentBind, bool) {
			b, ok := p.identBind[n]
			if !ok {
				return vm.IdentBind{}, false
			}
			switch b.kind {
			case 1:
				return vm.IdentBind{Kind: 1, Con: b.con}, true
			case 2:
				return vm.IdentBind{Kind: 2, Vol: b.vol.idx}, true
			}
			return vm.IdentBind{Kind: 0, Slot: b.slot}, true
		},
		Const: func(name string) (vm.V, bool) {
			c, ok := p.consts[name]
			return c, ok
		},
		AssignVol: func(s ast.Stmt) (int, int, bool) {
			vol, ok := p.assignVol[s]
			if !ok {
				return 0, 0, false
			}
			return vol.idx, vol.decl.Elem.Width, true
		},
		AssignSlot: func(s ast.Stmt) int { return p.assignSlot[s] },
		Vol: func(name string) (int, int) {
			reg := p.vols[name]
			return reg.idx, reg.decl.Elem.Width
		},
		MemW: func(s ast.Stmt) vm.MemRef { return memRef(p.memWBind[s]) },
		MemRead: func(n *ast.MemRead) (vm.MemRef, bool) {
			b, ok := p.memBind[n]
			if !ok {
				return vm.MemRef{}, false
			}
			return memRef(b), true
		},
		FieldIndex: func(n *ast.FieldAccess) (int, []string) {
			if f, ok := p.fieldIdx[n]; ok {
				return f.idx, f.layout
			}
			return -1, nil
		},
		IsUnsized: p.isUnsized,
		Extern: func(name string) (vm.ExternRef, bool) {
			i, ok := extIdx[name]
			if !ok {
				return vm.ExternRef{}, false
			}
			return vm.ExternRef{Idx: i, ParamW: paramW(p.info.Prog.Externs[i].Params), Site: siteKey(name)}, true
		},
		Pipe: func(name string) vm.PipeRef {
			pp := p.pipes[p.pipeIdx[name]]
			return vm.PipeRef{Idx: pp.idx, ParamW: paramW(pp.decl.Params)}
		},
	}

	c := vm.NewCompiler(h, p.nstages)
	c.CompileFuncs(p.funcs)
	for _, pp := range p.pipes {
		tr := pp.res
		ctx := vm.StageCtx{
			PipeIdx: pp.idx, PipeName: pp.name,
			NSlots: len(pp.zeroes), SelfParamW: paramW(pp.decl.Params),
			EArgW:  func(i int) int { return tr.EArgs[i].Type.BitWidth() },
			NEArgs: len(tr.EArgs),
		}
		for _, node := range pp.graph {
			var commit, exc []ast.Stmt
			if node.split != nil {
				commit, exc = node.split.commitStage0, node.split.excStage0
			}
			c.CompileStage(node.gid, ctx, node.stmts, commit, exc)
		}
	}
	return c.Finish()
}

// initVMEnv wires the dispatch environment to the machine's arenas and
// struct-of-arrays state. This happens once: the referenced slices are
// fully sized by Plan.New (scratch to the plan's widest slot layout,
// gefs/volVals per declaration), and Restore mutates them in place.
func (m *Machine) initVMEnv() {
	e := &m.vmEnv
	e.Regs = make([]vm.V, m.vmProg.MaxStageRegs+64)
	e.Loc = m.scratch.local
	e.LocEp = m.scratch.localEpoch
	e.Pend = m.scratch.pend
	e.PendEp = m.scratch.pendEpoch
	e.Gefs = m.gefs
	e.Vols = m.volVals
	e.Mems = m.memList
	e.Plains = m.plainList
	exts := make([]vm.ExternFunc, len(m.plan.info.Prog.Externs))
	for i, ed := range m.plan.info.Prog.Externs {
		exts[i] = m.externs[ed.Name]
	}
	e.Externs = exts
	if m.faults != nil { // keep the interface nil when injection is off
		e.Faults = m.faults
	}
	e.Host = vmHost{m}
	e.EntryCap = m.cfg.EntryCap
	e.SpawnCnt = make([]int, len(m.pipeList))
}

// vmHost exposes the two pieces of machine state the dispatch loop
// reaches outside its arenas (both on cold spawn paths).
type vmHost struct{ m *Machine }

func (h vmHost) QueueLen(pipe int) int { return len(h.m.pipeList[pipe].entryQ) }

func (h vmHost) NextSpecHandle(pipe int) uint64 {
	t := h.m.pipeList[pipe].specTab
	v := t.nextHandle
	t.nextHandle++
	return v
}

// fireVM is fire() for the bytecode engine: the same firing protocol —
// waiting/fault/occupancy preconditions, lock transactions, write-back,
// effects, destination choice — around a bytecode Exec instead of a
// closure or AST walk. One engine-specific refinement: stages whose
// analysis proved no execution can stall at or after a lock mutation
// (StageProg.NeedsTxn) skip Begin/Commit entirely — a successful firing
// applies the same mutations either way, and a stalling one has nothing
// to roll back.
func (m *Machine) fireVM(node *stageNode) bool {
	in := node.cur
	if in.waiting != nil {
		return false // blocked on a sub-pipeline call
	}
	if m.faults != nil && m.faults.StallStage(m.cycle, node.gid) {
		return false // injected structural stall: timing-only, no trace
	}
	if node.fork != nil {
		if node.fork.commitNext != nil && node.fork.commitNext.cur != nil {
			return false
		}
	} else if node.next != nil && node.next.cur != nil {
		return false
	}

	// Identify the firing for panic attribution (see Machine.Step).
	m.fr.node, m.fr.in = node, in

	sp := &m.vmProg.Stages[node.gid]
	m.scratch.epoch++
	e := &m.vmEnv
	e.Epoch = m.scratch.epoch
	e.Vars = in.vars
	e.Zero = node.pipe.zeroes
	e.EArgs = in.eargs
	e.IID = in.iid
	e.Cycle = m.cycle
	e.PipeIdx = node.pipe.idx
	e.Lef = in.lef
	e.Spec = in.spec
	if in.spec {
		e.SpecStatus = uint8(node.pipe.specTab.status(in.specHandle))
	}
	e.Stalled, e.Died, e.WroteAny = false, false, false
	e.Effects = e.Effects[:0]
	e.SpawnArgs = e.SpawnArgs[:0]
	e.ExtArgs = e.ExtArgs[:0]
	for _, i := range e.SpawnDirty {
		e.SpawnCnt[i] = 0
	}
	e.SpawnDirty = e.SpawnDirty[:0]

	needsTxn := sp.NeedsTxn || (m.faults != nil && sp.NeedsTxnFaults)
	if needsTxn {
		for _, l := range m.memList {
			l.Begin()
		}
	}
	e.Exec(m.vmProg, sp)
	if e.Stalled {
		if needsTxn {
			for _, l := range m.memList {
				l.Rollback()
			}
		}
		return false
	}
	if needsTxn {
		for _, l := range m.memList {
			l.Commit()
		}
	}

	if e.WroteAny {
		sc := &m.scratch
		for _, slot := range sp.Writes {
			if sc.localEpoch[slot] == sc.epoch {
				in.vars[slot] = slotVal{V: sc.local[slot], OK: true}
			}
			if sc.pendEpoch[slot] == sc.epoch {
				in.vars[slot] = slotVal{V: sc.pend[slot], OK: true}
			}
		}
	}
	in.lef = e.Lef
	in.eargs = e.EArgs
	m.applyVMEffects(in, e)
	m.firings++

	if e.Died {
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
		if e.TookExc {
			dest = node.fork.excNext
		} else {
			dest = node.fork.commitNext
		}
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

// applyVMEffects commits a vm firing's deferred mutations in program
// order, through the same machine entry points applyEffects uses. A
// death's instruction removal always comes last (the dispatch loop
// aborts at the dying instruction, so no later effects exist).
func (m *Machine) applyVMEffects(in *inst, e *vm.Env) {
	strs := m.vmProg.Strs
	for i := range e.Effects {
		ef := &e.Effects[i]
		switch ef.Kind {
		case vm.EffVolWrite:
			m.volVals[ef.A] = ef.Val
		case vm.EffSetGEF:
			m.gefs[ef.A] = ef.Flag
		case vm.EffPipeClear:
			m.pipeClear(m.pipeList[ef.A], in)
		case vm.EffSpecClear:
			m.pipeList[ef.A].specTab.clear()
		case vm.EffVerify:
			m.pipeList[ef.A].specTab.verify(ef.H)
		case vm.EffInvalidate:
			m.pipeList[ef.A].specTab.set(ef.H, specInvalid)
			for _, other := range m.snapshotAlive() {
				if other.spec && other.specHandle == ef.H {
					m.squash(other.iid)
				}
			}
		case vm.EffSpecResolve:
			in.spec = false
			m.pipeList[ef.A].specTab.del(in.specHandle)
		case vm.EffReturn:
			caller, alive := m.alive[in.callerIID]
			if !alive {
				continue // caller was squashed or flushed; result is dropped
			}
			if in.resultVar != "" {
				if slot, ok := caller.pipe.slotOf[in.resultVar]; ok {
					caller.vars[slot] = slotVal{V: ef.V, OK: true}
				}
			}
			caller.waiting = nil
		case vm.EffSpawn:
			ps := m.pipeList[ef.A]
			args := e.SpawnArgs[ef.ArgOff : ef.ArgOff+ef.ArgN]
			if ef.Flag { // blocking cross-pipe call
				rv := ""
				if ef.Str >= 0 {
					rv = strs[ef.Str]
				}
				m.enqueue(ps, args, in.iid, false, 0, in.iid, rv)
				if rv != "" {
					in.waiting = &pendingCall{resultVar: rv, subPipe: ps.name}
				}
			} else {
				m.enqueue(ps, args, in.iid, false, 0, 0, "")
			}
		case vm.EffSpecSpawn:
			ps := m.pipeList[ef.A]
			ps.specTab.set(ef.H, specPending)
			m.enqueue(ps, e.SpawnArgs[ef.ArgOff:ef.ArgOff+ef.ArgN], in.iid, true, ef.H, 0, "")
		}
	}
	if e.Died {
		m.removeInst(in)
	}
}
