// Compile-once stage executor.
//
// At machine-build time every stage's statement list is lowered into a
// slice of pre-bound Go closures (cStmt/cExpr) whose free variables are
// the plan's build-time resolution tables (plan.go) and the machine's
// own state: variable references are integer slots, constants are baked
// values, volatile registers and memory locks are direct pointers (the
// plan names memories by index; the closures bind this machine's
// locks), record field accesses
// are pre-resolved indices, and conditionals/calls hold their
// pre-compiled branch plans. The per-cycle hot path therefore performs
// no map lookups, no string hashing, and no AST walking: it only runs
// closures over slot-indexed state.
//
// The compiled executor must stay observably equivalent to the AST
// interpreter in exec.go (Engine "interp"), which is retained as the
// differential-testing oracle; every compiled closure mirrors the
// corresponding interpreter case, including its stall short-circuits and
// evaluation order. Stalls roll the whole firing back, so the only
// stall-path behaviour that is observable is what survives a rollback —
// the speculation handle counter — and that is consumed at exactly the
// same point in both executors.
package sim

import (
	"fmt"

	"xpdl/internal/locks"
	"xpdl/internal/pdl/ast"
	"xpdl/internal/val"
	"xpdl/internal/vm"
)

// cStmt executes one compiled statement against the active firing.
type cStmt func(f *firing)

// cExpr evaluates one compiled expression against the active firing.
type cExpr func(f *firing) V

// funcPlan is the compiled form of an in-language combinational
// function. Calls allocate a frame of `frame` slots on the machine's
// frame arena; params occupy slots [0,nparams).
type funcPlan struct {
	frame   int
	nparams int
	paramW  []int
	resultW int
	code    []cStmt
}

// compiler lowers one pipeline's (or one function's) AST to closures.
type compiler struct {
	m      *Machine
	ps     *pipeState     // pipe mode; nil when compiling a function body
	fp     *funcPlan      // function mode; nil in pipe mode
	fslots map[string]int // function mode: name -> frame slot
}

// compileAll builds every execution plan: all in-language functions
// first (pre-registered so recursive and mutual references resolve),
// then every stage of every pipeline.
func (m *Machine) compileAll() {
	funcs := m.plan.funcs
	m.funcPlans = make(map[string]*funcPlan, len(funcs))
	for name := range funcs {
		m.funcPlans[name] = &funcPlan{}
	}
	for name, fn := range funcs {
		m.compileFunc(fn, m.funcPlans[name])
	}
	for _, ps := range m.pipeList {
		c := &compiler{m: m, ps: ps}
		for _, st := range ps.nodes {
			st.code = c.stmts(st.stmts)
			if st.fork != nil {
				st.fork.commitCode = c.stmts(st.fork.commitStage0)
				st.fork.excCode = c.stmts(st.fork.excStage0)
			}
		}
	}
}

func (m *Machine) compileFunc(fn *ast.FuncDecl, fp *funcPlan) {
	c := &compiler{m: m, fp: fp, fslots: make(map[string]int)}
	for i, p := range fn.Params {
		c.fslots[p.Name] = i
		fp.paramW = append(fp.paramW, p.Type.BitWidth())
	}
	fp.nparams = len(fn.Params)
	fp.resultW = fn.Result.BitWidth()
	// Pre-assign a frame slot to every assigned name so reads anywhere
	// in the body compile to slot loads.
	var collect func(stmts []ast.Stmt)
	collect = func(stmts []ast.Stmt) {
		for _, s := range stmts {
			switch n := s.(type) {
			case *ast.Assign:
				if _, ok := c.fslots[n.Name]; !ok {
					c.fslots[n.Name] = len(c.fslots)
				}
			case *ast.If:
				collect(n.Then)
				collect(n.Else)
			}
		}
	}
	collect(fn.Body)
	fp.frame = len(c.fslots)
	fp.code = c.stmts(fn.Body)
}

// execStageC is the closure engine's stage body, mirroring
// firing.execStage: the compiled stage, then at a fork stage the arm
// lef selects.
func (f *firing) execStageC() {
	node := f.node
	f.execC(node.code)
	if node.fork != nil && !f.stalled && !f.died {
		f.tookExc = f.lef
		if f.lef {
			f.execC(node.fork.excCode)
		} else {
			f.execC(node.fork.commitCode)
		}
	}
}

// execC runs a compiled stage plan (pipe mode): statements stop at the
// first stall or death, mirroring firing.exec.
func (f *firing) execC(code []cStmt) {
	for _, s := range code {
		if f.stalled || f.died {
			return
		}
		s(f)
	}
}

// execF runs a compiled function body. Mirroring the interpreter's
// callFunc walk, it stops only on return — a stall mid-function keeps
// executing (harmlessly: the whole firing rolls back).
func (f *firing) execF(code []cStmt) {
	for _, s := range code {
		if f.freturned {
			return
		}
		s(f)
	}
}

// ---------------------------------------------------------------------------
// Statements

func (c *compiler) stmts(stmts []ast.Stmt) []cStmt {
	out := make([]cStmt, 0, len(stmts))
	for _, s := range stmts {
		if cs := c.stmt(s); cs != nil {
			out = append(out, cs)
		}
	}
	return out
}

func (c *compiler) stmt(s ast.Stmt) cStmt {
	if c.fp != nil {
		return c.funcStmt(s)
	}
	m, p := c.m, c.m.plan
	switch n := s.(type) {
	case *ast.Skip:
		return nil
	case *ast.GefGuard:
		pidx := c.ps.idx
		body := c.stmts(n.Body)
		return func(f *firing) {
			if f.m.gefs[pidx] {
				f.stall()
				return
			}
			f.execC(body)
		}
	case *ast.Assign:
		rhs := c.expr(n.RHS)
		if vol, isVol := p.assignVol[s]; isVol {
			vidx, w := int32(vol.idx), vol.decl.Elem.Width
			return func(f *firing) {
				v := rhs(f)
				if f.stalled {
					return
				}
				f.eff(vm.Effect{Kind: vm.EffVolWrite, A: vidx, Val: val.New(v.Uint(), w)})
			}
		}
		slot := p.assignSlot[s]
		if n.Latched {
			return func(f *firing) {
				v := rhs(f)
				if f.stalled {
					return
				}
				f.setPend(slot, v)
			}
		}
		return func(f *firing) {
			v := rhs(f)
			if f.stalled {
				return
			}
			f.setLocal(slot, v)
		}
	case *ast.MemWrite:
		b := p.memWBind[s]
		lock := m.memList[b.lock]
		depth := uint64(b.decl.Depth)
		w := b.decl.Elem.Width
		idx := c.expr(n.Index)
		rhs := c.expr(n.RHS)
		return func(f *firing) {
			a := idx(f)
			var addr uint64
			if !f.stalled {
				addr = a.Uint() % depth
			}
			v := rhs(f)
			if f.stalled {
				return
			}
			lock.Write(f.in.iid, addr, val.New(v.Uint(), w))
		}
	case *ast.VolWrite:
		vol := p.vols[n.Vol]
		vidx, w := int32(vol.idx), vol.decl.Elem.Width
		rhs := c.expr(n.RHS)
		return func(f *firing) {
			v := rhs(f)
			if f.stalled {
				return
			}
			f.eff(vm.Effect{Kind: vm.EffVolWrite, A: vidx, Val: val.New(v.Uint(), w)})
		}
	case *ast.If:
		cond := c.expr(n.Cond)
		then := c.stmts(n.Then)
		els := c.stmts(n.Else)
		return func(f *firing) {
			cv := cond(f)
			if f.stalled {
				return
			}
			if cv.Val.IsTrue() {
				f.execC(then)
			} else {
				f.execC(els)
			}
		}
	case *ast.Lock:
		return c.lockStmt(n, s)
	case *ast.SetLEF:
		return func(f *firing) { f.lef = true }
	case *ast.SetEArg:
		index := n.Index
		w := c.ps.res.EArgs[n.Index].Type.BitWidth()
		value := c.expr(n.Value)
		return func(f *firing) {
			v := value(f)
			if f.stalled {
				return
			}
			f.storeEArg(index, val.New(v.Uint(), w))
		}
	case *ast.SetGEF:
		pidx := int32(c.ps.idx)
		flag := n.Value
		return func(f *firing) {
			f.eff(vm.Effect{Kind: vm.EffSetGEF, A: pidx, Flag: flag})
		}
	case *ast.PipeClear:
		pidx := int32(c.ps.idx)
		return func(f *firing) {
			f.eff(vm.Effect{Kind: vm.EffPipeClear, A: pidx})
		}
	case *ast.SpecClear:
		pidx := int32(c.ps.idx)
		return func(f *firing) {
			f.eff(vm.Effect{Kind: vm.EffSpecClear, A: pidx})
		}
	case *ast.Abort:
		lock := m.memList[p.memWBind[s].lock]
		return func(f *firing) { lock.Abort() }
	case *ast.Call:
		return c.callStmt(n)
	case *ast.SpecCall:
		return c.specCallStmt(n, s)
	case *ast.Verify:
		pidx := int32(c.ps.idx)
		handle := c.expr(n.Handle)
		return func(f *firing) {
			h := handle(f).Uint()
			f.eff(vm.Effect{Kind: vm.EffVerify, A: pidx, H: h})
		}
	case *ast.Invalidate:
		pidx := int32(c.ps.idx)
		handle := c.expr(n.Handle)
		return func(f *firing) {
			h := handle(f).Uint()
			f.eff(vm.Effect{Kind: vm.EffInvalidate, A: pidx, H: h})
		}
	case *ast.SpecCheck:
		ps := c.ps
		pidx := int32(ps.idx)
		return func(f *firing) {
			in := f.in
			if !in.spec {
				return
			}
			switch ps.specTab.status(in.specHandle) {
			case specPending:
				// Still speculative; keep executing speculatively.
			case specVerified:
				f.eff(vm.Effect{Kind: vm.EffSpecResolve, A: pidx})
			case specInvalid:
				f.die()
			}
		}
	case *ast.SpecBarrier:
		ps := c.ps
		pidx := int32(ps.idx)
		return func(f *firing) {
			in := f.in
			if !in.spec {
				return
			}
			switch ps.specTab.status(in.specHandle) {
			case specPending:
				f.stall()
			case specVerified:
				f.eff(vm.Effect{Kind: vm.EffSpecResolve, A: pidx})
			case specInvalid:
				f.die()
			}
		}
	case *ast.Return:
		value := c.expr(n.Value)
		return func(f *firing) {
			v := value(f)
			if f.stalled {
				return
			}
			f.eff(vm.Effect{Kind: vm.EffReturn, V: v})
		}
	case *ast.Throw:
		return func(f *firing) { panic("sim: untranslated throw reached the simulator") }
	case *ast.StageSep:
		return func(f *firing) { panic("sim: stage separator inside a stage") }
	}
	return func(f *firing) { panic(fmt.Sprintf("sim: unhandled statement %T", s)) }
}

func (c *compiler) lockStmt(n *ast.Lock, s ast.Stmt) cStmt {
	b := c.m.plan.memWBind[s]
	l := c.m.memList[b.lock]
	depth := uint64(b.decl.Depth)
	write := n.Mode == ast.ModeWrite
	var idx cExpr
	if n.Index != nil {
		idx = c.expr(n.Index)
	}
	// evalIdx mirrors the interpreter's "evaluate the address, then bail
	// on stall before touching the lock" prologue.
	evalAddr := func(f *firing) (uint64, bool) {
		if idx == nil {
			return locks.Whole, true
		}
		a := idx(f)
		if f.stalled {
			return 0, false
		}
		return a.Uint() % depth, true
	}
	switch n.Op {
	case ast.LockAcquire:
		return func(f *firing) {
			addr, ok := evalAddr(f)
			if !ok {
				return
			}
			if !l.CanReserve(f.in.iid, addr, write) {
				f.stall()
				return
			}
			l.Reserve(f.in.iid, addr, write)
			if !l.Owns(f.in.iid, addr, write) {
				f.stall()
			}
		}
	case ast.LockReserve:
		return func(f *firing) {
			addr, ok := evalAddr(f)
			if !ok {
				return
			}
			if !l.CanReserve(f.in.iid, addr, write) {
				f.stall()
				return
			}
			l.Reserve(f.in.iid, addr, write)
		}
	case ast.LockBlock:
		return func(f *firing) {
			addr, ok := evalAddr(f)
			if !ok {
				return
			}
			if !l.Owns(f.in.iid, addr, write) {
				f.stall()
			}
		}
	default: // ast.LockRelease
		return func(f *firing) {
			addr, ok := evalAddr(f)
			if !ok {
				return
			}
			l.Release(f.in.iid, addr)
		}
	}
}

func (c *compiler) callStmt(n *ast.Call) cStmt {
	m := c.m
	target := m.pipe(n.Pipe)
	tidx := target.idx
	capQ := m.cfg.EntryCap
	argsC := make([]cExpr, len(n.Args))
	paramW := make([]int, len(n.Args))
	for i, a := range n.Args {
		argsC[i] = c.expr(a)
		paramW[i] = target.decl.Params[i].Type.BitWidth()
	}
	nargs := int32(len(n.Args))
	cross := n.Pipe != c.ps.name
	str := m.plan.resultVar(n)
	return func(f *firing) {
		e := &f.m.env
		if len(target.entryQ)+e.SpawnCnt[tidx] >= capQ {
			f.stall()
			return
		}
		argOff := int32(len(e.SpawnArgs))
		for i, ae := range argsC {
			v := ae(f)
			if f.stalled {
				return
			}
			e.SpawnArgs = append(e.SpawnArgs, val.New(v.Uint(), paramW[i]))
		}
		e.CountSpawn(tidx)
		f.eff(vm.Effect{Kind: vm.EffSpawn, A: int32(tidx), ArgOff: argOff, ArgN: nargs, Flag: cross, Str: str})
	}
}

func (c *compiler) specCallStmt(n *ast.SpecCall, s ast.Stmt) cStmt {
	m := c.m
	ps := c.ps
	pidx := ps.idx
	capQ := m.cfg.EntryCap
	slot := m.plan.assignSlot[s]
	argsC := make([]cExpr, len(n.Args))
	paramW := make([]int, len(n.Args))
	for i, a := range n.Args {
		argsC[i] = c.expr(a)
		paramW[i] = ps.decl.Params[i].Type.BitWidth()
	}
	nargs := int32(len(n.Args))
	return func(f *firing) {
		e := &f.m.env
		if len(ps.entryQ)+e.SpawnCnt[pidx] >= capQ {
			f.stall()
			return
		}
		argOff := int32(len(e.SpawnArgs))
		for i, ae := range argsC {
			v := ae(f)
			if f.stalled {
				return
			}
			e.SpawnArgs = append(e.SpawnArgs, val.New(v.Uint(), paramW[i]))
		}
		// Handle ids are consumed even if the firing later stalls — at
		// exactly this point in both executors (see firing.specCall).
		h := ps.specTab.nextHandle
		ps.specTab.nextHandle++
		f.setLocal(slot, Scalar(val.New(h, 48)))
		e.CountSpawn(pidx)
		f.eff(vm.Effect{Kind: vm.EffSpecSpawn, A: int32(pidx), ArgOff: argOff, ArgN: nargs, H: h})
	}
}

// funcStmt compiles the restricted statement set allowed inside
// in-language functions (mirrors callFunc's walk).
func (c *compiler) funcStmt(s ast.Stmt) cStmt {
	switch n := s.(type) {
	case *ast.Skip:
		return nil
	case *ast.Assign:
		slot := c.fslots[n.Name]
		rhs := c.expr(n.RHS)
		return func(f *firing) { f.frame[slot] = rhs(f) }
	case *ast.If:
		cond := c.expr(n.Cond)
		then := c.stmts(n.Then)
		els := c.stmts(n.Else)
		return func(f *firing) {
			if cond(f).Val.IsTrue() {
				f.execF(then)
			} else {
				f.execF(els)
			}
		}
	case *ast.Return:
		resultW := c.fp.resultW
		value := c.expr(n.Value)
		return func(f *firing) {
			f.fret = Scalar(val.New(value(f).Uint(), resultW))
			f.freturned = true
		}
	}
	return func(f *firing) { panic(fmt.Sprintf("sim: statement %T in function", s)) }
}

// ---------------------------------------------------------------------------
// Expressions

func (c *compiler) exprs(es []ast.Expr) []cExpr {
	out := make([]cExpr, len(es))
	for i, e := range es {
		out[i] = c.expr(e)
	}
	return out
}

func (c *compiler) expr(e ast.Expr) cExpr {
	switch n := e.(type) {
	case *ast.IntLit:
		w := n.Width
		if w == 0 {
			w = 64
		}
		v := Scalar(val.New(n.Value, w))
		return func(f *firing) V { return v }
	case *ast.BoolLit:
		v := Scalar(val.Bool(n.Value))
		return func(f *firing) V { return v }
	case *ast.Ident:
		return c.ident(n)
	case *ast.EArgRef:
		idx := n.Index
		zero := Scalar(val.New(0, 1))
		return func(f *firing) V {
			if idx < len(f.eargs) {
				return Scalar(f.eargs[idx])
			}
			return zero
		}
	case *ast.LefRef:
		return func(f *firing) V { return Scalar(val.Bool(f.lef)) }
	case *ast.GefRef:
		// f.node.pipe (not the compile-time pipe) so the closure is also
		// correct if it ever runs from a function body.
		return func(f *firing) V { return Scalar(val.Bool(f.m.gefs[f.node.pipe.idx])) }
	case *ast.Unary:
		x := c.expr(n.X)
		switch n.Op {
		case ast.OpNot:
			return func(f *firing) V {
				v := x(f)
				if f.stalled {
					return v
				}
				return Scalar(val.Bool(!v.Val.IsTrue()))
			}
		case ast.OpBNot:
			return func(f *firing) V {
				v := x(f)
				if f.stalled {
					return v
				}
				return Scalar(v.Val.Not())
			}
		default:
			return func(f *firing) V {
				v := x(f)
				if f.stalled {
					return v
				}
				return Scalar(v.Val.Neg())
			}
		}
	case *ast.Binary:
		return c.binary(n)
	case *ast.Ternary:
		cond := c.expr(n.Cond)
		then := c.expr(n.Then)
		els := c.expr(n.Else)
		return func(f *firing) V {
			cv := cond(f)
			if f.stalled {
				return cv
			}
			if cv.Val.IsTrue() {
				return then(f)
			}
			return els(f)
		}
	case *ast.CallExpr:
		return c.callExpr(n)
	case *ast.MemRead:
		return c.memRead(n)
	case *ast.Slice:
		x := c.expr(n.X)
		hi := c.expr(n.Hi)
		lo := c.expr(n.Lo)
		return func(f *firing) V {
			xv := x(f)
			h := int(hi(f).Uint())
			l := int(lo(f).Uint())
			if f.stalled {
				return xv
			}
			return Scalar(xv.Val.Slice(h, l))
		}
	case *ast.FieldAccess:
		x := c.expr(n.X)
		field := n.Field
		// Func bodies are never visited by the resolver, so the index may
		// be absent; treat missing as unknown (-1, name-scan fallback).
		idx := -1
		if f, ok := c.m.plan.fieldIdx[n]; ok {
			idx = f.idx
		}
		return func(f *firing) V {
			xv := x(f)
			if f.stalled {
				return xv
			}
			if xv.Rec == nil {
				panic(fmt.Sprintf("sim: field access .%s on scalar", field))
			}
			if idx >= 0 && idx < len(xv.Rec.Names) && xv.Rec.Names[idx] == field {
				return Scalar(xv.Rec.Vals[idx])
			}
			fv, ok := xv.Rec.Field(field)
			if !ok {
				panic(fmt.Sprintf("sim: record has no field %q", field))
			}
			return Scalar(fv)
		}
	}
	return func(f *firing) V { panic(fmt.Sprintf("sim: unhandled expression %T", e)) }
}

func (c *compiler) ident(n *ast.Ident) cExpr {
	if c.fp != nil {
		// Function mode: frame slots, then program constants.
		if slot, ok := c.fslots[n.Name]; ok {
			return func(f *firing) V { return f.frame[slot] }
		}
		if con, ok := c.m.plan.consts[n.Name]; ok {
			return func(f *firing) V { return con }
		}
		name := n.Name
		return func(f *firing) V {
			panic(fmt.Sprintf("sim: function references unknown name %q", name))
		}
	}
	b, ok := c.m.plan.identBind[n]
	if !ok {
		name, pipe := n.Name, c.ps.name
		return func(f *firing) V {
			panic(fmt.Sprintf("sim: unresolved name %q in pipe %s", name, pipe))
		}
	}
	switch b.kind {
	case 1:
		con := b.con
		return func(f *firing) V { return con }
	case 2:
		vidx := b.vol.idx
		return func(f *firing) V { return Scalar(f.m.volVals[vidx]) }
	}
	slot := b.slot
	zero := c.ps.zeroes[slot]
	return func(f *firing) V {
		e := &f.m.env
		if e.LocEp[slot] == e.Epoch {
			return e.Loc[slot]
		}
		if sv := f.in.vars[slot]; sv.OK {
			return sv.V
		}
		// Undriven / untaken-path read: the typed zero.
		return zero
	}
}

// valOpFn maps a binary operator to its value-level implementation once,
// at compile time (method expressions carry no per-call allocation).
func valOpFn(op ast.BinOp) func(val.Value, val.Value) val.Value {
	switch op {
	case ast.OpAdd:
		return val.Value.Add
	case ast.OpSub:
		return val.Value.Sub
	case ast.OpMul:
		return val.Value.Mul
	case ast.OpDiv:
		return val.Value.DivU
	case ast.OpMod:
		return val.Value.RemU
	case ast.OpAnd:
		return val.Value.And
	case ast.OpOr:
		return val.Value.Or
	case ast.OpXor:
		return val.Value.Xor
	case ast.OpShl:
		return val.Value.Shl
	case ast.OpShr:
		return val.Value.ShrU
	case ast.OpLAnd:
		return func(a, b val.Value) val.Value { return val.Bool(a.IsTrue() && b.IsTrue()) }
	case ast.OpLOr:
		return func(a, b val.Value) val.Value { return val.Bool(a.IsTrue() || b.IsTrue()) }
	case ast.OpEq:
		return val.Value.EqV
	case ast.OpNe:
		return val.Value.NeV
	case ast.OpLt:
		return val.Value.LtU
	case ast.OpLe:
		return val.Value.LeU
	case ast.OpGt:
		return val.Value.GtU
	case ast.OpGe:
		return val.Value.GeU
	}
	panic("sim: unhandled binary operator")
}

func (c *compiler) binary(n *ast.Binary) cExpr {
	le := c.expr(n.L)
	re := c.expr(n.R)
	op := valOpFn(n.Op)
	// Width adaptation of unsized literals is decided once, at compile
	// time (mirrors firing.evalBinary / Machine.isUnsized).
	adapt := n.Op != ast.OpShl && n.Op != ast.OpShr
	adaptL := adapt && c.m.plan.isUnsized(n.L)
	adaptR := adapt && !adaptL && c.m.plan.isUnsized(n.R)
	return func(f *firing) V {
		l := le(f)
		if f.stalled {
			return l
		}
		r := re(f)
		if f.stalled {
			return r
		}
		lv, rv := l.Val, r.Val
		if lv.Width() != rv.Width() {
			if adaptL {
				lv = val.New(lv.Uint(), rv.Width())
			} else if adaptR {
				rv = val.New(rv.Uint(), lv.Width())
			}
		}
		return Scalar(op(lv, rv))
	}
}

func (c *compiler) callExpr(n *ast.CallExpr) cExpr {
	m := c.m
	switch n.Name {
	case "ext", "sext":
		x := c.expr(n.Args[0])
		w := c.expr(n.Args[1])
		signed := n.Name == "sext"
		return func(f *firing) V {
			xv := x(f)
			wv := int(w(f).Uint())
			if f.stalled {
				return xv
			}
			if signed {
				return Scalar(xv.Val.SignExt(wv))
			}
			return Scalar(xv.Val.ZeroExt(wv))
		}
	case "cat":
		argsC := c.exprs(n.Args)
		return func(f *firing) V {
			e := &f.m.env
			base := len(e.ExtArgs)
			for _, ae := range argsC {
				v := ae(f)
				if f.stalled {
					e.ExtArgs = e.ExtArgs[:base]
					return Scalar(v.Val)
				}
				e.ExtArgs = append(e.ExtArgs, v.Val)
			}
			r := val.Cat(e.ExtArgs[base:]...)
			e.ExtArgs = e.ExtArgs[:base]
			return Scalar(r)
		}
	case "lts", "les", "gts", "ges", "shra", "divs", "rems", "mulfull":
		a := c.expr(n.Args[0])
		b := c.expr(n.Args[1])
		var op func(val.Value, val.Value) val.Value
		switch n.Name {
		case "lts":
			op = val.Value.LtS
		case "les":
			op = val.Value.LeS
		case "gts":
			op = val.Value.GtS
		case "ges":
			op = val.Value.GeS
		case "shra":
			op = val.Value.ShrS
		case "divs":
			op = val.Value.DivS
		case "rems":
			op = val.Value.RemS
		case "mulfull":
			op = val.Value.MulFull
		}
		return func(f *firing) V {
			av := a(f)
			bv := b(f)
			if f.stalled {
				return av
			}
			return Scalar(op(av.Val, bv.Val))
		}
	}

	// Extern: arguments are sized into the machine's extern scratch
	// arena (a stack: nested extern calls nest bases LIFO). The callee
	// only sees its sub-slice and must copy to retain (see ExternFunc).
	if ext, ok := m.externs[n.Name]; ok {
		decl := m.plan.externDecl(n.Name)
		argsC := c.exprs(n.Args)
		paramW := make([]int, len(n.Args))
		for i := range n.Args {
			paramW[i] = decl.Params[i].Type.BitWidth()
		}
		inner := func(f *firing) V {
			e := &f.m.env
			base := len(e.ExtArgs)
			for i, ae := range argsC {
				v := ae(f)
				if f.stalled {
					e.ExtArgs = e.ExtArgs[:base]
					return Scalar(val.New(0, paramW[i]))
				}
				e.ExtArgs = append(e.ExtArgs, val.New(v.Uint(), paramW[i]))
			}
			end := len(e.ExtArgs)
			r := ext(e.ExtArgs[base:end:end])
			e.ExtArgs = e.ExtArgs[:base]
			return r
		}
		if m.faults == nil {
			return inner // no wrapper: disabled machines compile to the bare call
		}
		site := siteKey(n.Name)
		return func(f *firing) V {
			if f.m.faults.DelayExtern(f.m.cycle, f.in.iid, site) {
				f.stall()
				return Scalar(val.New(0, 1))
			}
			return inner(f)
		}
	}

	// In-language function: compiled plan over an arena frame.
	fp := m.funcPlans[n.Name]
	if fp == nil {
		name := n.Name
		return func(f *firing) V {
			panic(fmt.Sprintf("sim: call to unknown function %q", name))
		}
	}
	argsC := c.exprs(n.Args)
	// fp is read through at call time: under mutual recursion the callee
	// plan may not be filled in yet when this site is compiled.
	return func(f *firing) V {
		m := f.m
		fr := m.pushFrame(fp.frame)
		for i, ae := range argsC {
			// Arguments evaluate in the caller's context (f.frame still
			// points at the caller's frame).
			v := ae(f)
			if f.stalled {
				m.popFrame(fp.frame)
				return v
			}
			fr[i] = Scalar(val.New(v.Uint(), fp.paramW[i]))
		}
		prevFrame, prevRet, prevReturned := f.frame, f.fret, f.freturned
		f.frame, f.fret, f.freturned = fr, V{}, false
		f.execF(fp.code)
		ret := f.fret
		if !f.freturned {
			// Conditional fallthrough: the declared result's zero value.
			ret = Scalar(val.New(0, fp.resultW))
		}
		f.frame, f.fret, f.freturned = prevFrame, prevRet, prevReturned
		m.popFrame(fp.frame)
		return ret
	}
}

func (c *compiler) memRead(n *ast.MemRead) cExpr {
	b := c.m.plan.memBind[n]
	if b == nil {
		// Unresolved (e.g. inside a function body, which the checker
		// forbids for memory reads): fail loudly if ever executed.
		mem := n.Mem
		return func(f *firing) V {
			panic(fmt.Sprintf("sim: unresolved memory %q", mem))
		}
	}
	depth := uint64(b.decl.Depth)
	zero := Scalar(val.New(0, b.decl.Elem.Width))
	idx := c.expr(n.Index)
	if b.plain >= 0 {
		plain := c.m.plainList[b.plain]
		return func(f *firing) V {
			a := idx(f)
			if f.stalled {
				return zero
			}
			return Scalar(plain.Peek(a.Uint() % depth))
		}
	}
	lock := c.m.memList[b.lock]
	return func(f *firing) V {
		a := idx(f)
		if f.stalled {
			return zero
		}
		addr := a.Uint() % depth
		if !lock.ReadReady(f.in.iid, addr) {
			f.stall()
			return zero
		}
		return Scalar(lock.Read(f.in.iid, addr))
	}
}
