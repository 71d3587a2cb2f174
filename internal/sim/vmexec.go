// The bytecode-engine bridge (Config.Engine "vm"): compiles the design
// to one shared vm.Program, wires the machine's struct-of-arrays state
// into its vm.Env, and supplies the vm's stage body to the one firing
// protocol (Machine.fire) — so the engines differ only in how a stage's
// statements execute, never in what a firing means.
package sim

import (
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
		ResultVar: func(n *ast.Call) int { return int(p.resultVar(n)) },
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

// initVMEnv wires the dispatch environment to the machine's
// struct-of-arrays state, and hands each stage node what its compiled
// stage supplies to the firing protocol. This happens once: the
// referenced slices are fully sized by Plan.New (gefs/volVals per
// declaration), and Restore mutates them in place.
func (m *Machine) initVMEnv() {
	e := &m.env
	e.Regs = make([]vm.V, m.vmProg.MaxStageRegs+64)
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
	// Stages whose analysis proved no execution can stall at or after a
	// lock mutation (StageProg.NeedsTxn) skip Begin/Commit entirely: a
	// successful firing applies the same mutations either way, and a
	// stalling one has nothing to roll back. Write-back visits only the
	// slots the stage's code can write.
	for _, ps := range m.pipeList {
		for _, n := range ps.nodes {
			sp := &m.vmProg.Stages[n.gid]
			n.writes = sp.Writes
			n.txn = sp.NeedsTxn || (m.faults != nil && sp.NeedsTxnFaults)
		}
	}
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

// execVM is the vm engine's stage body: it loads the firing's inputs
// into the dispatch environment, runs the compiled stage, and reports
// the outcome in the firing record.
func (m *Machine) execVM(f *firing) {
	node, in := f.node, f.in
	e := &m.env
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
	e.Exec(m.vmProg, &m.vmProg.Stages[node.gid])
	f.stalled, f.died, f.wroteAny, f.tookExc = e.Stalled, e.Died, e.WroteAny, e.TookExc
	f.lef, f.eargs = e.Lef, e.EArgs
}
