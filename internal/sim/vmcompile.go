// The vm engine's compiler: it lowers the plan's stage statements to
// one shared bytecode program (vm.go). It mirrors the closure compiler
// (compile.go) case for case: every opcode sequence emitted here
// evaluates in the same order, applies the same width coercions, and
// panics with the same messages as the corresponding closure. Names
// resolve through the plan's tables (identBind, assignSlot, memBind,
// ...), exactly as the other engines resolve them.
//
// Register discipline: each stage compiles into one window. Registers
// [0,nslots) are pinned, one per latched variable slot; a compile-time
// cache tracks whether the pinned register currently mirrors the slot's
// visible value so repeated reads skip the opLoadSlot load.
// Temporaries live above the pinned range and are reset per statement.
// Constant subtrees fold at compile time (guarded: a folding panic, e.g.
// an out-of-range constant slice, falls back to runtime evaluation so the
// panic still happens on the executing cycle, exactly as in the closure
// executor); binary operations with one constant operand fuse into
// immediate forms, mirroring the operator when the constant is on the
// left.
package sim

import (
	"fmt"
	"sort"

	"xpdl/internal/pdl/ast"
	"xpdl/internal/val"
)

// vmProgram returns the plan's bytecode program, compiling it the first
// time a vm machine asks. A program is a pure function of the plan
// (every index space it bakes in — slots, volatiles, memories, externs,
// functions, pipes, stage gids — comes from declaration or sorted-name
// order), so every vm machine of the design runs one image. This is
// what makes pooled bveq machines cheap: N machines, one decode. Closure
// and interpreter machines never pay for the compile.
func (p *Plan) vmProgram() *program {
	p.vmOnce.Do(func() { p.vmProg = p.compileVM() })
	return p.vmProg
}

// compileVM lowers every in-language function (first, so calls
// resolve), then every stage node of every pipe.
func (p *Plan) compileVM() *program {
	c := &bcCompiler{
		p:       p,
		prog:    &program{stages: make([]stageProg, p.nstages)},
		funcIdx: make(map[string]int),
		strIdx:  make(map[string]int32),
	}
	c.compileFuncs()
	for _, pp := range p.pipes {
		for _, node := range pp.graph {
			var commit, exc []ast.Stmt
			if node.split != nil {
				commit, exc = node.split.commitStage0, node.split.excStage0
			}
			c.compileStage(pp, node.gid, node.stmts, commit, exc)
		}
	}
	return c.prog
}

// bcCompiler builds one design's bytecode program from its plan.
type bcCompiler struct {
	p       *Plan
	prog    *program
	funcIdx map[string]int
	strIdx  map[string]int32
}

func (c *bcCompiler) intern(s string) int32 {
	if i, ok := c.strIdx[s]; ok {
		return i
	}
	i := int32(len(c.prog.strs))
	c.prog.strs = append(c.prog.strs, s)
	c.strIdx[s] = i
	return i
}

func (c *bcCompiler) pool(v V) int {
	c.prog.pool = append(c.prog.pool, v)
	return len(c.prog.pool) - 1
}

// compileFuncs lowers every in-language function. Functions are indexed
// in sorted name order (deterministic across machines) and pre-registered
// so recursive and mutual references resolve.
func (c *bcCompiler) compileFuncs() {
	names := make([]string, 0, len(c.p.funcs))
	for name := range c.p.funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	c.prog.funcs = make([]funcProg, len(names))
	for i, name := range names {
		c.funcIdx[name] = i
	}
	for i, name := range names {
		c.compileFunc(i, c.p.funcs[name])
	}
	c.propagateStall()
}

func (c *bcCompiler) compileFunc(idx int, fn *ast.FuncDecl) {
	fp := &c.prog.funcs[idx]
	fslots := make(map[string]int)
	for i, p := range fn.Params {
		fslots[p.Name] = i
		fp.paramW = append(fp.paramW, p.Type.BitWidth())
	}
	fp.nParams = len(fn.Params)
	fp.resultW = fn.Result.BitWidth()
	// Pre-assign a frame register to every assigned name so reads
	// anywhere in the body compile to register references.
	var collect func(stmts []ast.Stmt)
	collect = func(stmts []ast.Stmt) {
		for _, s := range stmts {
			switch n := s.(type) {
			case *ast.Assign:
				if _, ok := fslots[n.Name]; !ok {
					fslots[n.Name] = len(fslots)
				}
			case *ast.If:
				collect(n.Then)
				collect(n.Else)
			}
		}
	}
	collect(fn.Body)
	fp.nVars = len(fslots)
	sc := &segc{c: c, fslots: fslots, fdecl: fn, tmpBase: len(fslots), maxReg: len(fslots)}
	fp.seg = sc.seg(fn.Body)
	fp.nRegs = sc.maxReg
	sc.patchCalls()
}

// compileStage lowers one stage node of pipe pp. commit/exc are nil
// except at a translated pipeline's fork stage.
func (c *bcCompiler) compileStage(pp *pipePlan, gid int, main, commit, exc []ast.Stmt) {
	nslots := len(pp.zeroes)
	sc := &segc{
		c: c, pp: pp,
		tmpBase: nslots, maxReg: nslots,
		cache: make([]bool, nslots),
	}
	sp := &c.prog.stages[gid]
	sp.main = sc.seg(main)
	// Both fork arms continue from main's end state.
	endCache := cloneCache(sc.cache)
	sp.commit = sc.seg(commit)
	copy(sc.cache, endCache)
	sp.exc = sc.seg(exc)
	sp.nRegs = sc.maxReg
	sc.patchCalls()
	c.analyzeStage(sp)
	if sp.nRegs > c.prog.maxStageRegs {
		c.prog.maxStageRegs = sp.nRegs
	}
}

// ---------------------------------------------------------------------------
// Stall/transaction analysis

func opStalls(op uint8) (canStall, faultsOnly bool) {
	switch op {
	case opStallGef, opLockAcq, opLockRes, opLockBlk, opMemReadL,
		opSpecBarrier, opStallIfFull:
		return true, false
	case opExternPre:
		return false, true
	}
	return false, false
}

func opMutatesLock(op uint8) bool {
	switch op {
	case opLockAcq, opLockRes, opLockRel, opLockAbort, opMemWrite:
		return true
	}
	return false
}

// propagateStall computes each function's CanStall/CanStallFaults flags,
// iterating to a fixpoint over the call graph (recursion-safe).
func (c *bcCompiler) propagateStall() {
	type info struct {
		st, stF bool
		calls   []int16
	}
	infos := make([]info, len(c.prog.funcs))
	for fi := range c.prog.funcs {
		fp := &c.prog.funcs[fi]
		for pc := fp.seg.off; pc < fp.seg.end; pc++ {
			in := c.prog.code[pc]
			if st, stF := opStalls(in.op); st {
				infos[fi].st = true
			} else if stF {
				infos[fi].stF = true
			}
			if in.op == opCallFunc {
				infos[fi].calls = append(infos[fi].calls, in.b)
			}
			if opMutatesLock(in.op) {
				c.prog.funcs[fi].mutates = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for fi := range c.prog.funcs {
			fp := &c.prog.funcs[fi]
			st, stF := infos[fi].st, infos[fi].stF
			for _, callee := range infos[fi].calls {
				st = st || c.prog.funcs[callee].canStall
				stF = stF || c.prog.funcs[callee].canStallFaults
			}
			stF = stF || st
			if st != fp.canStall || stF != fp.canStallFaults {
				fp.canStall, fp.canStallFaults = st, stF
				changed = true
			}
		}
	}
}

// analyzeStage decides whether the stage must run inside lock
// transactions: it must iff some execution can stall at or after a
// lock-journal mutation (then the mutation needs rolling back). All
// jumps in emitted code are forward, so execution order is a subsequence
// of code order and a linear scan is conservative. opLockAcq both
// mutates and stalls in one instruction, so it forces transactions by
// itself.
func (c *bcCompiler) analyzeStage(sp *stageProg) {
	scan := func(seg segment, mutSeen, faults bool) (bool, bool) {
		for pc := seg.off; pc < seg.end; pc++ {
			in := c.prog.code[pc]
			st, stF := opStalls(in.op)
			stall := st || (faults && stF)
			mut := opMutatesLock(in.op)
			if in.op == opCallFunc {
				fp := &c.prog.funcs[in.b]
				stall = fp.canStall || (faults && fp.canStallFaults)
				mut = mut || fp.mutates
			}
			if in.op == opLockAcq {
				return true, true
			}
			if stall && mutSeen {
				return true, mutSeen
			}
			if mut {
				mutSeen = true
			}
		}
		return false, mutSeen
	}
	needs := func(faults bool) bool {
		n, mut := scan(sp.main, false, faults)
		if n {
			return true
		}
		if n, _ := scan(sp.commit, mut, faults); n {
			return true
		}
		n, _ = scan(sp.exc, mut, faults)
		return n
	}
	sp.needsTxn = needs(false)
	sp.needsTxnFaults = needs(true)
}

// ---------------------------------------------------------------------------
// Segment compiler

// segc compiles one stage's (or one function's) statements into the
// shared code array. Stage mode has pp != nil; function mode has fslots.
type segc struct {
	c       *bcCompiler
	pp      *pipePlan
	fslots  map[string]int
	fdecl   *ast.FuncDecl
	tmpBase int
	tmp     int
	maxReg  int
	// cache[slot] reports that pinned register slot currently holds the
	// slot's visible value (stage mode only).
	cache []bool
	// callFix are opCallFunc sites awaiting the final window size.
	callFix []int32
}

func cloneCache(c []bool) []bool {
	out := make([]bool, len(c))
	copy(out, c)
	return out
}

func (sc *segc) seg(stmts []ast.Stmt) segment {
	off := int32(len(sc.c.prog.code))
	sc.stmts(stmts)
	return segment{off: off, end: int32(len(sc.c.prog.code))}
}

func (sc *segc) stmts(list []ast.Stmt) {
	for _, s := range list {
		sc.tmp = sc.tmpBase
		sc.stmt(s)
	}
}

func (sc *segc) emit(i instr) int32 {
	code := &sc.c.prog.code
	*code = append(*code, i)
	return int32(len(*code) - 1)
}

func (sc *segc) here() int32 { return int32(len(sc.c.prog.code)) }

func (sc *segc) patch(at int32) { sc.c.prog.code[at].a = sc.here() }

func (sc *segc) patchCalls() {
	for _, pc := range sc.callFix {
		sc.c.prog.code[pc].imm = uint64(sc.maxReg)
	}
	sc.callFix = sc.callFix[:0]
}

func (sc *segc) newTmp() int {
	r := sc.tmp
	sc.tmp++
	if sc.tmp > sc.maxReg {
		sc.maxReg = sc.tmp
	}
	return r
}

func (sc *segc) dstReg(want int) int {
	if want >= 0 {
		return want
	}
	return sc.newTmp()
}

// wrote invalidates the slot cache when a pinned register is
// overwritten with something other than its slot's value.
func (sc *segc) wrote(r int) {
	if r < len(sc.cache) {
		sc.cache[r] = false
	}
}

func (sc *segc) panicOp(msg string) {
	sc.emit(instr{op: opPanic, imm: uint64(sc.c.intern(msg))})
}

// ---------------------------------------------------------------------------
// Statements

func (sc *segc) stmt(s ast.Stmt) {
	if sc.pp == nil {
		sc.funcStmt(s)
		return
	}
	p, pipeIdx := sc.c.p, int32(sc.pp.idx)
	switch n := s.(type) {
	case *ast.Skip:
	case *ast.GefGuard:
		sc.emit(instr{op: opStallGef, a: pipeIdx})
		sc.stmts(n.Body)
	case *ast.Assign:
		if vol, isVol := p.assignVol[s]; isVol {
			r := sc.expr(n.RHS, -1)
			sc.emit(instr{op: opEffVol, a: int32(vol.idx), b: int16(r), c: int16(vol.decl.Elem.Width)})
			return
		}
		slot := p.assignSlot[s]
		if n.Latched {
			r := sc.expr(n.RHS, -1)
			sc.emit(instr{op: opStorePend, a: int32(slot), b: int16(r)})
			return
		}
		r := sc.expr(n.RHS, slot)
		sc.emit(instr{op: opStoreLoc, a: int32(slot), b: int16(r)})
		// The pinned register mirrors the new value only when the result
		// landed there.
		sc.cache[slot] = r == slot
	case *ast.MemWrite:
		b := p.memWBind[s]
		ri := sc.expr(n.Index, -1)
		rv := sc.expr(n.RHS, -1)
		sc.emit(instr{op: opMemWrite, a: int32(ri), b: int16(rv), c: int16(b.lock),
			imm: uint64(b.decl.Depth) | uint64(b.decl.Elem.Width)<<48})
	case *ast.VolWrite:
		vol := p.vols[n.Vol]
		r := sc.expr(n.RHS, -1)
		sc.emit(instr{op: opEffVol, a: int32(vol.idx), b: int16(r), c: int16(vol.decl.Elem.Width)})
	case *ast.If:
		sc.ifStmt(n)
	case *ast.Lock:
		b := p.memWBind[s]
		addr := int32(-1)
		if n.Index != nil {
			addr = int32(sc.expr(n.Index, -1))
		}
		var op uint8
		switch n.Op {
		case ast.LockAcquire:
			op = opLockAcq
		case ast.LockReserve:
			op = opLockRes
		case ast.LockBlock:
			op = opLockBlk
		default:
			op = opLockRel
		}
		var wr int16
		if n.Mode == ast.ModeWrite {
			wr = 1
		}
		sc.emit(instr{op: op, a: addr, b: wr, c: int16(b.lock), imm: uint64(b.decl.Depth)})
	case *ast.SetLEF:
		sc.emit(instr{op: opSetLEF})
	case *ast.SetEArg:
		eargs := sc.pp.res.EArgs
		r := sc.expr(n.Value, -1)
		sc.emit(instr{op: opSetEArg, a: int32(n.Index), b: int16(r),
			c: int16(eargs[n.Index].Type.BitWidth()), imm: uint64(len(eargs))})
	case *ast.SetGEF:
		var f uint64
		if n.Value {
			f = 1
		}
		sc.emit(instr{op: opEffSetGEF, a: pipeIdx, imm: f})
	case *ast.PipeClear:
		sc.emit(instr{op: opEffPipeClear, a: pipeIdx})
	case *ast.SpecClear:
		sc.emit(instr{op: opEffSpecClear, a: pipeIdx})
	case *ast.Abort:
		sc.emit(instr{op: opLockAbort, c: int16(p.memWBind[s].lock)})
	case *ast.Call:
		tp := p.pipes[p.pipeIdx[n.Pipe]]
		sc.emit(instr{op: opStallIfFull, a: int32(tp.idx)})
		for i, a := range n.Args {
			r := sc.expr(a, -1)
			sc.emit(instr{op: opSpawnPush, b: int16(r), c: int16(tp.paramW[i])})
		}
		cross := n.Pipe != sc.pp.name
		str := int16(-1)
		var imm uint64
		if cross {
			imm = 1
			str = int16(p.resultVar(n))
		}
		sc.emit(instr{op: opSpawn, a: int32(tp.idx), b: int16(len(n.Args)), c: str, imm: imm})
	case *ast.SpecCall:
		sc.emit(instr{op: opStallIfFull, a: pipeIdx})
		for i, a := range n.Args {
			r := sc.expr(a, -1)
			sc.emit(instr{op: opSpawnPush, b: int16(r), c: int16(sc.pp.paramW[i])})
		}
		slot := p.assignSlot[s]
		sc.emit(instr{op: opSpecSpawnFin, a: int32(slot), b: int16(pipeIdx), c: int16(len(n.Args))})
		// The handle was written to the slot's stage-local entry, not the
		// pinned register.
		sc.cache[slot] = false
	case *ast.Verify:
		r := sc.expr(n.Handle, -1)
		sc.emit(instr{op: opEffVerify, a: pipeIdx, b: int16(r)})
	case *ast.Invalidate:
		r := sc.expr(n.Handle, -1)
		sc.emit(instr{op: opEffInvalidate, a: pipeIdx, b: int16(r)})
	case *ast.SpecCheck:
		sc.emit(instr{op: opSpecCheck, a: pipeIdx})
	case *ast.SpecBarrier:
		sc.emit(instr{op: opSpecBarrier, a: pipeIdx})
	case *ast.Return:
		r := sc.expr(n.Value, -1)
		sc.emit(instr{op: opEffReturn, b: int16(r)})
	case *ast.Throw:
		sc.panicOp("sim: untranslated throw reached the simulator")
	case *ast.StageSep:
		sc.panicOp("sim: stage separator inside a stage")
	default:
		sc.panicOp(fmt.Sprintf("sim: unhandled statement %T", s))
	}
}

func (sc *segc) ifStmt(n *ast.If) {
	if cv, ok := sc.fold(n.Cond); ok {
		// Constant condition: only the taken arm can ever execute.
		if cv.Val.IsTrue() {
			sc.stmtsInline(n.Then)
		} else {
			sc.stmtsInline(n.Else)
		}
		return
	}
	cr := sc.expr(n.Cond, -1)
	jz := sc.emit(instr{op: opJz, b: int16(cr)})
	saved := cloneCache(sc.cache)
	sc.stmtsInline(n.Then)
	if len(n.Else) == 0 {
		sc.patch(jz)
		intersectCache(sc.cache, saved)
		return
	}
	thenCache := cloneCache(sc.cache)
	jmp := sc.emit(instr{op: opJmp})
	sc.patch(jz)
	copy(sc.cache, saved)
	sc.stmtsInline(n.Else)
	sc.patch(jmp)
	intersectCache(sc.cache, thenCache)
}

// stmtsInline compiles nested statements (If arms, GefGuard bodies)
// with per-statement temp reset, like stmts.
func (sc *segc) stmtsInline(list []ast.Stmt) {
	for _, s := range list {
		sc.tmp = sc.tmpBase
		sc.stmt(s)
	}
}

func intersectCache(dst, other []bool) {
	for i := range dst {
		dst[i] = dst[i] && other[i]
	}
}

// funcStmt compiles the restricted statement set allowed inside
// in-language functions.
func (sc *segc) funcStmt(s ast.Stmt) {
	switch n := s.(type) {
	case *ast.Skip:
	case *ast.Assign:
		slot := sc.fslots[n.Name]
		r := sc.expr(n.RHS, slot)
		if r != slot {
			sc.emit(instr{op: opMove, a: int32(slot), b: int16(r)})
		}
	case *ast.If:
		if cv, ok := sc.fold(n.Cond); ok {
			if cv.Val.IsTrue() {
				sc.stmtsInline(n.Then)
			} else {
				sc.stmtsInline(n.Else)
			}
			return
		}
		cr := sc.expr(n.Cond, -1)
		jz := sc.emit(instr{op: opJz, b: int16(cr)})
		sc.stmtsInline(n.Then)
		if len(n.Else) == 0 {
			sc.patch(jz)
			return
		}
		jmp := sc.emit(instr{op: opJmp})
		sc.patch(jz)
		sc.stmtsInline(n.Else)
		sc.patch(jmp)
	case *ast.Return:
		r := sc.expr(n.Value, -1)
		sc.emit(instr{op: opFRet, b: int16(r), c: int16(sc.fdecl.Result.BitWidth())})
	default:
		sc.panicOp(fmt.Sprintf("sim: statement %T in function", s))
	}
}

// ---------------------------------------------------------------------------
// Expressions

// expr compiles e and returns the register holding its value. want >= 0
// asks for the result in that register, but the returned register may
// differ (e.g. a cached slot register); callers needing a specific
// placement must Move. The emitted code evaluates operands in the same
// order as the closure executor.
func (sc *segc) expr(e ast.Expr, want int) int {
	if fv, ok := sc.fold(e); ok {
		return sc.emitConst(fv, want)
	}
	switch n := e.(type) {
	case *ast.Ident:
		return sc.identExpr(n, want)
	case *ast.EArgRef:
		dst := sc.dstReg(want)
		sc.wrote(dst)
		sc.emit(instr{op: opLoadEArg, a: int32(dst), b: int16(n.Index)})
		return dst
	case *ast.LefRef:
		dst := sc.dstReg(want)
		sc.wrote(dst)
		sc.emit(instr{op: opLoadLef, a: int32(dst)})
		return dst
	case *ast.GefRef:
		pi := -1
		if sc.pp != nil {
			pi = sc.pp.idx
		}
		dst := sc.dstReg(want)
		sc.wrote(dst)
		sc.emit(instr{op: opLoadGef, a: int32(dst), b: int16(pi)})
		return dst
	case *ast.Unary:
		x := sc.expr(n.X, -1)
		var op uint8
		switch n.Op {
		case ast.OpNot:
			op = opNotL
		case ast.OpBNot:
			op = opNotB
		default:
			op = opNegV
		}
		dst := sc.dstReg(want)
		sc.wrote(dst)
		sc.emit(instr{op: op, a: int32(dst), b: int16(x)})
		return dst
	case *ast.Binary:
		return sc.binary(n, want)
	case *ast.Ternary:
		return sc.ternary(n, want)
	case *ast.CallExpr:
		return sc.callExpr(n, want)
	case *ast.MemRead:
		b, ok := sc.c.p.memBind[n]
		if !ok {
			sc.panicOp(fmt.Sprintf("sim: unresolved memory %q", n.Mem))
			return sc.dstReg(want)
		}
		ri := sc.expr(n.Index, -1)
		dst := sc.dstReg(want)
		sc.wrote(dst)
		if b.plain >= 0 {
			sc.emit(instr{op: opMemReadP, a: int32(dst), b: int16(ri), c: int16(b.plain), imm: uint64(b.decl.Depth)})
		} else {
			sc.emit(instr{op: opMemReadL, a: int32(dst), b: int16(ri), c: int16(b.lock), imm: uint64(b.decl.Depth)})
		}
		return dst
	case *ast.Slice:
		return sc.slice(n, want)
	case *ast.FieldAccess:
		x := sc.expr(n.X, -1)
		fr, ok := sc.c.p.fieldIdx[n]
		if !ok {
			fr = unknownField
		}
		dst := sc.dstReg(want)
		sc.wrote(dst)
		sc.emit(instr{op: opField, a: int32(dst), b: int16(x), c: int16(fr.idx),
			imm: uint64(sc.c.intern(n.Field)) | uint64(fr.lay+1)<<32})
		return dst
	}
	sc.panicOp(fmt.Sprintf("sim: unhandled expression %T", e))
	return sc.dstReg(want)
}

func (sc *segc) emitConst(fv V, want int) int {
	dst := sc.dstReg(want)
	sc.wrote(dst)
	if fv.Rec != nil {
		sc.emit(instr{op: opConstV, a: int32(dst), imm: uint64(sc.c.pool(fv))})
	} else {
		sc.emit(instr{op: opConst, a: int32(dst), imm: fv.Val.Uint(), c: int16(fv.Val.Width())})
	}
	return dst
}

func (sc *segc) identExpr(n *ast.Ident, want int) int {
	if sc.pp == nil {
		// Function mode: frame slots, then constants (constants already
		// folded, so reaching here with a known name means a frame slot).
		if slot, ok := sc.fslots[n.Name]; ok {
			return slot
		}
		sc.panicOp(fmt.Sprintf("sim: function references unknown name %q", n.Name))
		return sc.dstReg(want)
	}
	b, ok := sc.c.p.identBind[n]
	if !ok {
		sc.panicOp(fmt.Sprintf("sim: unresolved name %q in pipe %s", n.Name, sc.pp.name))
		return sc.dstReg(want)
	}
	switch b.kind {
	case 1:
		// Constants fold; this only runs for record constants.
		return sc.emitConst(b.con, want)
	case 2:
		dst := sc.dstReg(want)
		sc.wrote(dst)
		sc.emit(instr{op: opLoadVol, a: int32(dst), b: int16(b.vol.idx)})
		return dst
	}
	// Latched slot: reads go through the pinned register, refreshed only
	// when the cache says it is stale.
	if !sc.cache[b.slot] {
		sc.emit(instr{op: opLoadSlot, a: int32(b.slot), b: int16(b.slot)})
		sc.cache[b.slot] = true
	}
	return b.slot
}

// rrFor maps an AST binary operator to its reg-reg opcode.
func rrFor(op ast.BinOp) uint8 {
	switch op {
	case ast.OpAdd:
		return opAdd
	case ast.OpSub:
		return opSub
	case ast.OpMul:
		return opMul
	case ast.OpDiv:
		return opDivU
	case ast.OpMod:
		return opRemU
	case ast.OpAnd:
		return opAnd
	case ast.OpOr:
		return opOr
	case ast.OpXor:
		return opXor
	case ast.OpShl:
		return opShl
	case ast.OpShr:
		return opShrU
	case ast.OpLAnd:
		return opLAnd
	case ast.OpLOr:
		return opLOr
	case ast.OpEq:
		return opEq
	case ast.OpNe:
		return opNe
	case ast.OpLt:
		return opLtU
	case ast.OpLe:
		return opLeU
	case ast.OpGt:
		return opGtU
	case ast.OpGe:
		return opGeU
	}
	panic("vm: unhandled binary operator")
}

// immFor maps an AST binary operator to its immediate form (constant on
// the right); ok is false for operators without one.
func immFor(op ast.BinOp) (uint8, bool) {
	switch op {
	case ast.OpAdd:
		return opAddI, true
	case ast.OpSub:
		return opSubI, true
	case ast.OpMul:
		return opMulI, true
	case ast.OpDiv:
		return opDivUI, true
	case ast.OpMod:
		return opRemUI, true
	case ast.OpAnd:
		return opAndI, true
	case ast.OpOr:
		return opOrI, true
	case ast.OpXor:
		return opXorI, true
	case ast.OpShl:
		return opShlI, true
	case ast.OpShr:
		return opShrUI, true
	case ast.OpEq:
		return opEqI, true
	case ast.OpNe:
		return opNeI, true
	case ast.OpLt:
		return opLtUI, true
	case ast.OpLe:
		return opLeUI, true
	case ast.OpGt:
		return opGtUI, true
	case ast.OpGe:
		return opGeUI, true
	}
	return 0, false
}

// mirrorImm gives the immediate form computing "const op reg" via the
// mirrored operator (const moves to the right); ok is false when the
// operator cannot be mirrored or reversed.
func mirrorImm(op ast.BinOp) (uint8, bool) {
	switch op {
	case ast.OpAdd:
		return opAddI, true
	case ast.OpMul:
		return opMulI, true
	case ast.OpAnd:
		return opAndI, true
	case ast.OpOr:
		return opOrI, true
	case ast.OpXor:
		return opXorI, true
	case ast.OpEq:
		return opEqI, true
	case ast.OpNe:
		return opNeI, true
	case ast.OpSub:
		return opRSubI, true // imm - reg
	case ast.OpLt:
		return opGtUI, true // c < x  ==  x > c
	case ast.OpLe:
		return opGeUI, true
	case ast.OpGt:
		return opLtUI, true
	case ast.OpGe:
		return opLeUI, true
	}
	return 0, false
}

func (sc *segc) binary(n *ast.Binary, want int) int {
	adaptL, adaptR := sc.c.p.info.AdaptSides(n)

	immC := func(cv V, ad bool) (int16, bool) {
		if cv.Rec != nil {
			return 0, false
		}
		c := int16(cv.Val.Width())
		if ad {
			c |= immAdapt
		}
		return c, true
	}

	// Constant on the right: evaluate the left operand, fuse the
	// constant into an immediate form. An immediate form can only adapt
	// the immediate, so a register operand that must adapt (an unsized
	// ternary with a run-time condition) takes the reg-reg form.
	if rv, ok := sc.fold(n.R); ok {
		if op, ok2 := immFor(n.Op); ok2 && !adaptL {
			if cw, ok3 := immC(rv, adaptR); ok3 {
				lr := sc.expr(n.L, -1)
				dst := sc.dstReg(want)
				sc.wrote(dst)
				sc.emit(instr{op: op, a: int32(dst), b: int16(lr), imm: rv.Val.Uint(), c: cw})
				return dst
			}
		}
		lr := sc.expr(n.L, -1)
		rr := sc.emitConst(rv, -1)
		return sc.binRR(n.Op, lr, rr, adaptL, adaptR, want)
	}
	// Constant on the left: mirror the operator where possible.
	if lv, ok := sc.fold(n.L); ok {
		if op, ok2 := mirrorImm(n.Op); ok2 && !adaptR {
			if cw, ok3 := immC(lv, adaptL); ok3 {
				rr := sc.expr(n.R, -1)
				dst := sc.dstReg(want)
				sc.wrote(dst)
				sc.emit(instr{op: op, a: int32(dst), b: int16(rr), imm: lv.Val.Uint(), c: cw})
				return dst
			}
		}
		lr := sc.emitConst(lv, -1)
		rr := sc.expr(n.R, -1)
		return sc.binRR(n.Op, lr, rr, adaptL, adaptR, want)
	}
	lr := sc.expr(n.L, -1)
	rr := sc.expr(n.R, -1)
	return sc.binRR(n.Op, lr, rr, adaptL, adaptR, want)
}

// binRR emits the reg-reg form, via opBinA when a runtime width
// adaptation is still required (the unsized side failed to fold).
func (sc *segc) binRR(op ast.BinOp, lr, rr int, adaptL, adaptR bool, want int) int {
	dst := sc.dstReg(want)
	sc.wrote(dst)
	rop := rrFor(op)
	if (adaptL || adaptR) && op != ast.OpLAnd && op != ast.OpLOr {
		imm := uint64(rop)
		if adaptL {
			imm |= binAdaptL
		} else {
			imm |= binAdaptR
		}
		sc.emit(instr{op: opBinA, a: int32(dst), b: int16(lr), c: int16(rr), imm: imm})
		return dst
	}
	sc.emit(instr{op: rop, a: int32(dst), b: int16(lr), c: int16(rr)})
	return dst
}

func (sc *segc) ternary(n *ast.Ternary, want int) int {
	thenW, elseW := sc.c.p.info.ArmWidths(n)
	if cv, ok := sc.fold(n.Cond); ok {
		// Constant condition: only one arm can ever evaluate.
		if cv.Val.IsTrue() {
			return sc.arm(n.Then, thenW, want)
		}
		return sc.arm(n.Else, elseW, want)
	}
	dst := sc.dstReg(want)
	cr := sc.expr(n.Cond, -1)
	jz := sc.emit(instr{op: opJz, b: int16(cr)})
	saved := cloneCache(sc.cache)
	sc.wrote(dst)
	if r := sc.arm(n.Then, thenW, dst); r != dst {
		sc.emit(instr{op: opMove, a: int32(dst), b: int16(r)})
	}
	thenCache := cloneCache(sc.cache)
	jmp := sc.emit(instr{op: opJmp})
	sc.patch(jz)
	copy(sc.cache, saved)
	sc.wrote(dst)
	if r := sc.arm(n.Else, elseW, dst); r != dst {
		sc.emit(instr{op: opMove, a: int32(dst), b: int16(r)})
	}
	sc.patch(jmp)
	intersectCache(sc.cache, thenCache)
	return dst
}

// arm evaluates a ternary arm, resized to w bits when w > 0
// (check.Info.ArmWidths).
func (sc *segc) arm(e ast.Expr, w, want int) int {
	if w == 0 {
		return sc.expr(e, want)
	}
	r := sc.expr(e, -1)
	dst := sc.dstReg(want)
	sc.wrote(dst)
	sc.emit(instr{op: opZeroExtI, a: int32(dst), b: int16(r), c: int16(w)})
	return dst
}

func (sc *segc) slice(n *ast.Slice, want int) int {
	xr := sc.expr(n.X, -1)
	dst := sc.dstReg(want)
	sc.wrote(dst)
	info := sc.c.p.info
	c := int16(info.IntValue(n.Hi))<<7 | int16(info.IntValue(n.Lo))
	sc.emit(instr{op: opSliceI, a: int32(dst), b: int16(xr), c: c})
	return dst
}

func (sc *segc) callExpr(n *ast.CallExpr, want int) int {
	switch n.Name {
	case "ext", "sext":
		xr := sc.expr(n.Args[0], -1)
		op := uint8(opZeroExtI)
		if n.Name == "sext" {
			op = opSignExtI
		}
		dst := sc.dstReg(want)
		sc.wrote(dst)
		sc.emit(instr{op: op, a: int32(dst), b: int16(xr), c: int16(sc.c.p.info.IntValue(n.Args[1]))})
		return dst
	case "cat":
		for _, a := range n.Args {
			r := sc.expr(a, -1)
			sc.emit(instr{op: opCatPush, b: int16(r)})
		}
		dst := sc.dstReg(want)
		sc.wrote(dst)
		sc.emit(instr{op: opCatDo, a: int32(dst), c: int16(len(n.Args))})
		return dst
	case "lts", "les", "gts", "ges", "shra", "divs", "rems", "mulfull":
		var op uint8
		switch n.Name {
		case "lts":
			op = opLtS
		case "les":
			op = opLeS
		case "gts":
			op = opGtS
		case "ges":
			op = opGeS
		case "shra":
			op = opShrS
		case "divs":
			op = opDivS
		case "rems":
			op = opRemS
		case "mulfull":
			op = opMulFull
		}
		ar := sc.expr(n.Args[0], -1)
		br := sc.expr(n.Args[1], -1)
		dst := sc.dstReg(want)
		sc.wrote(dst)
		sc.emit(instr{op: op, a: int32(dst), b: int16(ar), c: int16(br)})
		return dst
	}

	// Extern (externs shadow in-language functions, like the closure
	// compiler's lookup order).
	if xi, ok := sc.c.p.externIdx[n.Name]; ok {
		params := sc.c.p.info.Prog.Externs[xi].Params
		sc.emit(instr{op: opExternPre, imm: siteKey(n.Name)})
		for i, a := range n.Args {
			r := sc.expr(a, -1)
			sc.emit(instr{op: opExtPush, b: int16(r), c: int16(params[i].Type.BitWidth())})
		}
		dst := sc.dstReg(want)
		sc.wrote(dst)
		sc.emit(instr{op: opExternCall, a: int32(dst), b: int16(xi), c: int16(len(n.Args))})
		return dst
	}

	// In-language function: arguments materialize into consecutive
	// registers, evaluated left to right like the closure executor.
	fi, ok := sc.c.funcIdx[n.Name]
	if !ok {
		sc.panicOp(fmt.Sprintf("sim: call to unknown function %q", n.Name))
		return sc.dstReg(want)
	}
	argBase := sc.tmp
	argRegs := make([]int, len(n.Args))
	for i := range n.Args {
		argRegs[i] = sc.newTmp()
	}
	for i, a := range n.Args {
		if r := sc.expr(a, argRegs[i]); r != argRegs[i] {
			sc.emit(instr{op: opMove, a: int32(argRegs[i]), b: int16(r)})
		}
	}
	dst := sc.dstReg(want)
	sc.wrote(dst)
	pc := sc.emit(instr{op: opCallFunc, a: int32(dst), b: int16(fi), c: int16(argBase)})
	sc.callFix = append(sc.callFix, pc)
	return dst
}

// ---------------------------------------------------------------------------
// Constant folding

// fold evaluates a constant subtree at compile time, mirroring the
// runtime semantics exactly. The checker has validated every slice
// bound and extension width it reads, so folding cannot fail part way.
func (sc *segc) fold(e ast.Expr) (V, bool) {
	switch n := e.(type) {
	case *ast.IntLit:
		w := n.Width
		if w == 0 {
			w = 64
		}
		return Scalar(val.New(n.Value, w)), true
	case *ast.BoolLit:
		return Scalar(val.Bool(n.Value)), true
	case *ast.Ident:
		if sc.pp != nil {
			if b, ok := sc.c.p.identBind[n]; ok && b.kind == 1 {
				return b.con, true
			}
			return V{}, false
		}
		if _, isSlot := sc.fslots[n.Name]; isSlot {
			return V{}, false
		}
		con, ok := sc.c.p.consts[n.Name]
		return con, ok
	case *ast.Unary:
		x, ok := sc.fold(n.X)
		if !ok {
			return V{}, false
		}
		switch n.Op {
		case ast.OpNot:
			return Scalar(val.Bool(!x.Val.IsTrue())), true
		case ast.OpBNot:
			return Scalar(x.Val.Not()), true
		default:
			return Scalar(x.Val.Neg()), true
		}
	case *ast.Binary:
		l, ok := sc.fold(n.L)
		if !ok {
			return V{}, false
		}
		r, ok := sc.fold(n.R)
		if !ok {
			return V{}, false
		}
		adaptL, adaptR := sc.c.p.info.AdaptSides(n)
		lv, rv := l.Val, r.Val
		if lv.Width() != rv.Width() {
			if adaptL {
				lv = val.New(lv.Uint(), rv.Width())
			} else if adaptR {
				rv = val.New(rv.Uint(), lv.Width())
			}
		}
		return Scalar(binApply(rrFor(n.Op), lv, rv)), true
	case *ast.Ternary:
		c, ok := sc.fold(n.Cond)
		if !ok {
			return V{}, false
		}
		thenW, elseW := sc.c.p.info.ArmWidths(n)
		arm, w := n.Else, elseW
		if c.Val.IsTrue() {
			arm, w = n.Then, thenW
		}
		v, ok := sc.fold(arm)
		if ok && w > 0 {
			v = Scalar(v.Val.ZeroExt(w))
		}
		return v, ok
	case *ast.Slice:
		x, ok := sc.fold(n.X)
		if !ok {
			return V{}, false
		}
		info := sc.c.p.info
		return Scalar(x.Val.Slice(info.IntValue(n.Hi), info.IntValue(n.Lo))), true
	case *ast.CallExpr:
		if n.Name != "ext" && n.Name != "sext" {
			return V{}, false
		}
		x, ok := sc.fold(n.Args[0])
		if !ok {
			return V{}, false
		}
		w := sc.c.p.info.IntValue(n.Args[1])
		if n.Name == "sext" {
			return Scalar(x.Val.SignExt(w)), true
		}
		return Scalar(x.Val.ZeroExt(w)), true
	}
	return V{}, false
}
