// The AST → bytecode compiler. It mirrors internal/sim's closure
// compiler case for case: every opcode sequence emitted here evaluates in
// the same order, applies the same width coercions, and panics with the
// same messages as the corresponding closure. The host simulator supplies
// name resolution through Hooks so this package stays independent of the
// machine's internal binding tables.
//
// Register discipline: each stage compiles into one window. Registers
// [0,NSlots) are pinned, one per latched variable slot; a compile-time
// cache tracks whether the pinned register currently mirrors the slot's
// visible value so repeated reads skip the three-way OpLoadSlot probe.
// Temporaries live above the pinned range and are reset per statement.
// Constant subtrees fold at compile time (guarded: a folding panic, e.g.
// an out-of-range constant slice, falls back to runtime evaluation so the
// panic still happens on the executing cycle, exactly as in the closure
// executor); binary operations with one constant operand fuse into
// immediate forms, mirroring the operator when the constant is on the
// left.
package vm

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"xpdl/internal/pdl/ast"
	"xpdl/internal/val"
)

// IdentBind is the host's resolution of an identifier in pipe context,
// mirroring sim's identBind: Kind 0 = latched variable slot, 1 =
// constant, 2 = volatile register.
type IdentBind struct {
	Kind int
	Slot int
	Vol  int
	Con  V
}

// MemRef is the host's resolution of a memory reference. Exactly one of
// Lock (index into Env.Mems) and Plain (index into Env.Plains) is >= 0.
type MemRef struct {
	Lock  int
	Plain int
	Depth uint64
	Width int
}

// ExternRef is the host's resolution of an extern function call site.
type ExternRef struct {
	Idx    int
	ParamW []int
	Site   uint64
}

// PipeRef is the host's resolution of a spawn target pipeline.
type PipeRef struct {
	Idx    int
	ParamW []int
}

// Hooks are the host-side resolution callbacks the compiler consults.
// They are only called during compilation, never at run time.
type Hooks struct {
	// Ident resolves an identifier in pipe context (sim's identBind).
	Ident func(n *ast.Ident) (IdentBind, bool)
	// Const resolves a program constant by name (function bodies).
	Const func(name string) (V, bool)
	// AssignVol reports whether an assign statement targets a volatile
	// register, and its index and width if so.
	AssignVol func(s ast.Stmt) (idx, width int, ok bool)
	// AssignSlot gives the latch slot an assign/spec-call statement binds.
	AssignSlot func(s ast.Stmt) int
	// Vol resolves a volatile register by name (VolWrite statements).
	Vol func(name string) (idx, width int)
	// MemW resolves the memory of a MemWrite/Lock/Abort statement.
	MemW func(s ast.Stmt) MemRef
	// MemRead resolves a memory read expression; ok is false when the
	// read is unresolved (e.g. inside a function body).
	MemRead func(n *ast.MemRead) (MemRef, bool)
	// FieldIndex gives the pre-resolved record field index and the
	// record layout (sorted field names) it indexes; -1 and nil when
	// unknown.
	FieldIndex func(n *ast.FieldAccess) (idx int, layout []string)
	// IsUnsized reports whether an expression is an unsized literal tree
	// (sim's width-adaptation rule).
	IsUnsized func(e ast.Expr) bool
	// Extern resolves an extern function by name.
	Extern func(name string) (ExternRef, bool)
	// Pipe resolves a spawn target pipeline by name.
	Pipe func(name string) PipeRef
}

// StageCtx is the per-stage compilation context.
type StageCtx struct {
	PipeIdx  int
	PipeName string
	// NSlots is the pipe's latched-variable slot count; registers
	// [0,NSlots) of the stage window are pinned to slots.
	NSlots int
	// SelfParamW are the pipe's own parameter widths (spec_call targets
	// its own pipe).
	SelfParamW []int
	// EArgW gives the width of canonical except-argument i; NEArgs is
	// the number of them.
	EArgW  func(i int) int
	NEArgs int
}

// Compiler builds one Program for a design. Compile all functions first
// (CompileFuncs), then every stage (CompileStage), then Finish.
type Compiler struct {
	hooks   Hooks
	prog    *Program
	funcIdx map[string]int
	strIdx  map[string]int32
	layIdx  map[string]int
}

// NewCompiler returns a compiler whose Program has nstages stage slots.
func NewCompiler(h Hooks, nstages int) *Compiler {
	return &Compiler{
		hooks:   h,
		prog:    &Program{Stages: make([]StageProg, nstages)},
		funcIdx: make(map[string]int),
		strIdx:  make(map[string]int32),
		layIdx:  make(map[string]int),
	}
}

func (c *Compiler) intern(s string) int32 {
	if i, ok := c.strIdx[s]; ok {
		return i
	}
	i := int32(len(c.prog.Strs))
	c.prog.Strs = append(c.prog.Strs, s)
	c.strIdx[s] = i
	return i
}

// layout interns a record layout and returns its OpField tag: the
// index in Program.Layouts plus one, or 0 for an unknown layout.
func (c *Compiler) layout(names []string) uint64 {
	if len(names) == 0 {
		return 0
	}
	key := strings.Join(names, "\x00")
	i, ok := c.layIdx[key]
	if !ok {
		i = len(c.prog.Layouts)
		c.prog.Layouts = append(c.prog.Layouts, names)
		c.layIdx[key] = i
	}
	return uint64(i) + 1
}

func (c *Compiler) pool(v V) int {
	c.prog.Pool = append(c.prog.Pool, v)
	return len(c.prog.Pool) - 1
}

// CompileFuncs lowers every in-language function. Functions are indexed
// in sorted name order (deterministic across machines) and pre-registered
// so recursive and mutual references resolve.
func (c *Compiler) CompileFuncs(funcs map[string]*ast.FuncDecl) {
	names := make([]string, 0, len(funcs))
	for name := range funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	c.prog.Funcs = make([]FuncProg, len(names))
	for i, name := range names {
		c.funcIdx[name] = i
	}
	for i, name := range names {
		c.compileFunc(i, funcs[name])
	}
	c.propagateStall()
}

func (c *Compiler) compileFunc(idx int, fn *ast.FuncDecl) {
	fp := &c.prog.Funcs[idx]
	fslots := make(map[string]int)
	for i, p := range fn.Params {
		fslots[p.Name] = i
		fp.ParamW = append(fp.ParamW, p.Type.BitWidth())
	}
	fp.NParams = len(fn.Params)
	fp.ResultW = fn.Result.BitWidth()
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
	fp.NVars = len(fslots)
	sc := &segc{c: c, fslots: fslots, fdecl: fn, tmpBase: len(fslots), maxReg: len(fslots)}
	fp.Seg = sc.seg(fn.Body)
	fp.NRegs = sc.maxReg
	sc.patchCalls()
}

// CompileStage lowers one stage node. commit/exc are nil except at a
// translated pipeline's fork stage.
func (c *Compiler) CompileStage(gid int, ctx StageCtx, main, commit, exc []ast.Stmt) {
	sc := &segc{
		c: c, ctx: &ctx,
		tmpBase: ctx.NSlots, maxReg: ctx.NSlots,
		cache: make([]bool, ctx.NSlots),
	}
	sp := &c.prog.Stages[gid]
	sp.Main = sc.seg(main)
	// Both fork arms continue from Main's end state.
	endCache := cloneCache(sc.cache)
	sp.Commit = sc.seg(commit)
	copy(sc.cache, endCache)
	sp.Exc = sc.seg(exc)
	sp.NRegs = sc.maxReg
	sc.patchCalls()
	c.analyzeStage(sp)
	sp.Writes = c.stageWrites(sp)
	if sp.NRegs > c.prog.MaxStageRegs {
		c.prog.MaxStageRegs = sp.NRegs
	}
}

// Finish returns the completed Program.
func (c *Compiler) Finish() *Program { return c.prog }

// stageWrites lists the slots a stage's three segments may write, in
// first-write order. Function bodies write registers, never slots.
func (c *Compiler) stageWrites(sp *StageProg) []int32 {
	var out []int32
	for _, seg := range []Seg{sp.Main, sp.Commit, sp.Exc} {
		for _, in := range c.prog.Code[seg.Off:seg.End] {
			switch in.Op {
			case OpStoreLoc, OpStorePend, OpSpecSpawnFin:
				if !slices.Contains(out, in.A) {
					out = append(out, in.A)
				}
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Stall/transaction analysis

func opStalls(op uint8) (canStall, faultsOnly bool) {
	switch op {
	case OpStallGef, OpLockAcq, OpLockRes, OpLockBlk, OpMemReadL,
		OpSpecBarrier, OpStallIfFull:
		return true, false
	case OpExternPre:
		return false, true
	}
	return false, false
}

func opMutatesLock(op uint8) bool {
	switch op {
	case OpLockAcq, OpLockRes, OpLockRel, OpLockAbort, OpMemWrite:
		return true
	}
	return false
}

// propagateStall computes each function's CanStall/CanStallFaults flags,
// iterating to a fixpoint over the call graph (recursion-safe).
func (c *Compiler) propagateStall() {
	type info struct {
		st, stF bool
		calls   []int16
	}
	infos := make([]info, len(c.prog.Funcs))
	for fi := range c.prog.Funcs {
		fp := &c.prog.Funcs[fi]
		for pc := fp.Seg.Off; pc < fp.Seg.End; pc++ {
			in := c.prog.Code[pc]
			if st, stF := opStalls(in.Op); st {
				infos[fi].st = true
			} else if stF {
				infos[fi].stF = true
			}
			if in.Op == OpCallFunc {
				infos[fi].calls = append(infos[fi].calls, in.B)
			}
			if opMutatesLock(in.Op) {
				c.prog.Funcs[fi].mutates = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for fi := range c.prog.Funcs {
			fp := &c.prog.Funcs[fi]
			st, stF := infos[fi].st, infos[fi].stF
			for _, callee := range infos[fi].calls {
				st = st || c.prog.Funcs[callee].CanStall
				stF = stF || c.prog.Funcs[callee].CanStallFaults
			}
			stF = stF || st
			if st != fp.CanStall || stF != fp.CanStallFaults {
				fp.CanStall, fp.CanStallFaults = st, stF
				changed = true
			}
		}
	}
}

// analyzeStage decides whether the stage must run inside lock
// transactions: it must iff some execution can stall at or after a
// lock-journal mutation (then the mutation needs rolling back). All
// jumps in emitted code are forward, so execution order is a subsequence
// of code order and a linear scan is conservative. OpLockAcq both
// mutates and stalls in one instruction, so it forces transactions by
// itself.
func (c *Compiler) analyzeStage(sp *StageProg) {
	scan := func(seg Seg, mutSeen, faults bool) (bool, bool) {
		for pc := seg.Off; pc < seg.End; pc++ {
			in := c.prog.Code[pc]
			st, stF := opStalls(in.Op)
			stall := st || (faults && stF)
			mut := opMutatesLock(in.Op)
			if in.Op == OpCallFunc {
				fp := &c.prog.Funcs[in.B]
				stall = fp.CanStall || (faults && fp.CanStallFaults)
				mut = mut || fp.mutates
			}
			if in.Op == OpLockAcq {
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
		n, mut := scan(sp.Main, false, faults)
		if n {
			return true
		}
		if n, _ := scan(sp.Commit, mut, faults); n {
			return true
		}
		n, _ = scan(sp.Exc, mut, faults)
		return n
	}
	sp.NeedsTxn = needs(false)
	sp.NeedsTxnFaults = needs(true)
}

// ---------------------------------------------------------------------------
// Segment compiler

// segc compiles one stage's (or one function's) statements into the
// shared code array. Stage mode has ctx != nil; function mode has fslots.
type segc struct {
	c       *Compiler
	ctx     *StageCtx
	fslots  map[string]int
	fdecl   *ast.FuncDecl
	tmpBase int
	tmp     int
	maxReg  int
	// cache[slot] reports that pinned register slot currently holds the
	// slot's visible value (stage mode only).
	cache []bool
	// callFix are OpCallFunc sites awaiting the final window size.
	callFix []int32
}

func cloneCache(c []bool) []bool {
	out := make([]bool, len(c))
	copy(out, c)
	return out
}

func (sc *segc) seg(stmts []ast.Stmt) Seg {
	off := int32(len(sc.c.prog.Code))
	sc.stmts(stmts)
	return Seg{Off: off, End: int32(len(sc.c.prog.Code))}
}

func (sc *segc) stmts(list []ast.Stmt) {
	for _, s := range list {
		sc.tmp = sc.tmpBase
		sc.stmt(s)
	}
}

func (sc *segc) emit(i Instr) int32 {
	code := &sc.c.prog.Code
	*code = append(*code, i)
	return int32(len(*code) - 1)
}

func (sc *segc) here() int32 { return int32(len(sc.c.prog.Code)) }

func (sc *segc) patch(at int32) { sc.c.prog.Code[at].A = sc.here() }

func (sc *segc) patchCalls() {
	for _, pc := range sc.callFix {
		sc.c.prog.Code[pc].Imm = uint64(sc.maxReg)
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
	sc.emit(Instr{Op: OpPanic, Imm: uint64(sc.c.intern(msg))})
}

// ---------------------------------------------------------------------------
// Statements

func (sc *segc) stmt(s ast.Stmt) {
	if sc.ctx == nil {
		sc.funcStmt(s)
		return
	}
	h := &sc.c.hooks
	switch n := s.(type) {
	case *ast.Skip:
	case *ast.GefGuard:
		sc.emit(Instr{Op: OpStallGef, A: int32(sc.ctx.PipeIdx)})
		sc.stmts(n.Body)
	case *ast.Assign:
		if vi, w, isVol := h.AssignVol(s); isVol {
			r := sc.expr(n.RHS, -1)
			sc.emit(Instr{Op: OpEffVol, A: int32(vi), B: int16(r), C: int16(w)})
			return
		}
		slot := h.AssignSlot(s)
		if n.Latched {
			r := sc.expr(n.RHS, -1)
			sc.emit(Instr{Op: OpStorePend, A: int32(slot), B: int16(r)})
			return
		}
		r := sc.expr(n.RHS, slot)
		sc.emit(Instr{Op: OpStoreLoc, A: int32(slot), B: int16(r)})
		// The pinned register mirrors the new value only when the result
		// landed there.
		sc.cache[slot] = r == slot
	case *ast.MemWrite:
		ref := h.MemW(s)
		ri := sc.expr(n.Index, -1)
		rv := sc.expr(n.RHS, -1)
		sc.emit(Instr{Op: OpMemWrite, A: int32(ri), B: int16(rv), C: int16(ref.Lock),
			Imm: ref.Depth | uint64(ref.Width)<<48})
	case *ast.VolWrite:
		vi, w := h.Vol(n.Vol)
		r := sc.expr(n.RHS, -1)
		sc.emit(Instr{Op: OpEffVol, A: int32(vi), B: int16(r), C: int16(w)})
	case *ast.If:
		sc.ifStmt(n)
	case *ast.Lock:
		ref := h.MemW(s)
		addr := int32(-1)
		if n.Index != nil {
			addr = int32(sc.expr(n.Index, -1))
		}
		var op uint8
		switch n.Op {
		case ast.LockAcquire:
			op = OpLockAcq
		case ast.LockReserve:
			op = OpLockRes
		case ast.LockBlock:
			op = OpLockBlk
		default:
			op = OpLockRel
		}
		var wr int16
		if n.Mode == ast.ModeWrite {
			wr = 1
		}
		sc.emit(Instr{Op: op, A: addr, B: wr, C: int16(ref.Lock), Imm: ref.Depth})
	case *ast.SetLEF:
		sc.emit(Instr{Op: OpSetLEF})
	case *ast.SetEArg:
		w := sc.ctx.EArgW(n.Index)
		r := sc.expr(n.Value, -1)
		sc.emit(Instr{Op: OpSetEArg, A: int32(n.Index), B: int16(r), C: int16(w), Imm: uint64(sc.ctx.NEArgs)})
	case *ast.SetGEF:
		var f uint64
		if n.Value {
			f = 1
		}
		sc.emit(Instr{Op: OpEffSetGEF, A: int32(sc.ctx.PipeIdx), Imm: f})
	case *ast.PipeClear:
		sc.emit(Instr{Op: OpEffPipeClear, A: int32(sc.ctx.PipeIdx)})
	case *ast.SpecClear:
		sc.emit(Instr{Op: OpEffSpecClear, A: int32(sc.ctx.PipeIdx)})
	case *ast.Abort:
		ref := h.MemW(s)
		sc.emit(Instr{Op: OpLockAbort, C: int16(ref.Lock)})
	case *ast.Call:
		pr := h.Pipe(n.Pipe)
		sc.emit(Instr{Op: OpStallIfFull, A: int32(pr.Idx)})
		for i, a := range n.Args {
			r := sc.expr(a, -1)
			sc.emit(Instr{Op: OpSpawnPush, B: int16(r), C: int16(pr.ParamW[i])})
		}
		cross := n.Pipe != sc.ctx.PipeName
		str := int16(-1)
		var imm uint64
		if cross {
			imm = 1
			str = int16(sc.c.intern(n.Result))
		}
		sc.emit(Instr{Op: OpSpawn, A: int32(pr.Idx), B: int16(len(n.Args)), C: str, Imm: imm})
	case *ast.SpecCall:
		pi := sc.ctx.PipeIdx
		sc.emit(Instr{Op: OpStallIfFull, A: int32(pi)})
		for i, a := range n.Args {
			r := sc.expr(a, -1)
			sc.emit(Instr{Op: OpSpawnPush, B: int16(r), C: int16(sc.ctx.SelfParamW[i])})
		}
		slot := h.AssignSlot(s)
		sc.emit(Instr{Op: OpSpecSpawnFin, A: int32(slot), B: int16(pi), C: int16(len(n.Args))})
		// The handle was written to the slot's stage-local entry, not the
		// pinned register.
		sc.cache[slot] = false
	case *ast.Verify:
		r := sc.expr(n.Handle, -1)
		sc.emit(Instr{Op: OpEffVerify, A: int32(sc.ctx.PipeIdx), B: int16(r)})
	case *ast.Invalidate:
		r := sc.expr(n.Handle, -1)
		sc.emit(Instr{Op: OpEffInvalidate, A: int32(sc.ctx.PipeIdx), B: int16(r)})
	case *ast.SpecCheck:
		sc.emit(Instr{Op: OpSpecCheck, A: int32(sc.ctx.PipeIdx)})
	case *ast.SpecBarrier:
		sc.emit(Instr{Op: OpSpecBarrier, A: int32(sc.ctx.PipeIdx)})
	case *ast.Return:
		r := sc.expr(n.Value, -1)
		sc.emit(Instr{Op: OpEffReturn, B: int16(r)})
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
	jz := sc.emit(Instr{Op: OpJz, B: int16(cr)})
	saved := cloneCache(sc.cache)
	sc.stmtsInline(n.Then)
	if len(n.Else) == 0 {
		sc.patch(jz)
		intersectCache(sc.cache, saved)
		return
	}
	thenCache := cloneCache(sc.cache)
	jmp := sc.emit(Instr{Op: OpJmp})
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
			sc.emit(Instr{Op: OpMove, A: int32(slot), B: int16(r)})
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
		jz := sc.emit(Instr{Op: OpJz, B: int16(cr)})
		sc.stmtsInline(n.Then)
		if len(n.Else) == 0 {
			sc.patch(jz)
			return
		}
		jmp := sc.emit(Instr{Op: OpJmp})
		sc.patch(jz)
		sc.stmtsInline(n.Else)
		sc.patch(jmp)
	case *ast.Return:
		r := sc.expr(n.Value, -1)
		sc.emit(Instr{Op: OpFRet, B: int16(r), C: int16(sc.fdecl.Result.BitWidth())})
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
	h := &sc.c.hooks
	switch n := e.(type) {
	case *ast.Ident:
		return sc.identExpr(n, want)
	case *ast.EArgRef:
		dst := sc.dstReg(want)
		sc.wrote(dst)
		sc.emit(Instr{Op: OpLoadEArg, A: int32(dst), B: int16(n.Index)})
		return dst
	case *ast.LefRef:
		dst := sc.dstReg(want)
		sc.wrote(dst)
		sc.emit(Instr{Op: OpLoadLef, A: int32(dst)})
		return dst
	case *ast.GefRef:
		pi := -1
		if sc.ctx != nil {
			pi = sc.ctx.PipeIdx
		}
		dst := sc.dstReg(want)
		sc.wrote(dst)
		sc.emit(Instr{Op: OpLoadGef, A: int32(dst), B: int16(pi)})
		return dst
	case *ast.Unary:
		x := sc.expr(n.X, -1)
		var op uint8
		switch n.Op {
		case ast.OpNot:
			op = OpNotL
		case ast.OpBNot:
			op = OpNotB
		default:
			op = OpNegV
		}
		dst := sc.dstReg(want)
		sc.wrote(dst)
		sc.emit(Instr{Op: op, A: int32(dst), B: int16(x)})
		return dst
	case *ast.Binary:
		return sc.binary(n, want)
	case *ast.Ternary:
		return sc.ternary(n, want)
	case *ast.CallExpr:
		return sc.callExpr(n, want)
	case *ast.MemRead:
		ref, ok := h.MemRead(n)
		if !ok {
			sc.panicOp(fmt.Sprintf("sim: unresolved memory %q", n.Mem))
			return sc.dstReg(want)
		}
		ri := sc.expr(n.Index, -1)
		dst := sc.dstReg(want)
		sc.wrote(dst)
		if ref.Plain >= 0 {
			sc.emit(Instr{Op: OpMemReadP, A: int32(dst), B: int16(ri), C: int16(ref.Plain), Imm: ref.Depth})
		} else {
			sc.emit(Instr{Op: OpMemReadL, A: int32(dst), B: int16(ri), C: int16(ref.Lock), Imm: ref.Depth})
		}
		return dst
	case *ast.Slice:
		return sc.slice(n, want)
	case *ast.FieldAccess:
		x := sc.expr(n.X, -1)
		idx, layout := h.FieldIndex(n)
		lay := uint64(0)
		if idx >= 0 {
			lay = sc.c.layout(layout)
		}
		dst := sc.dstReg(want)
		sc.wrote(dst)
		sc.emit(Instr{Op: OpField, A: int32(dst), B: int16(x), C: int16(idx),
			Imm: uint64(sc.c.intern(n.Field)) | lay<<32})
		return dst
	}
	sc.panicOp(fmt.Sprintf("sim: unhandled expression %T", e))
	return sc.dstReg(want)
}

func (sc *segc) emitConst(fv V, want int) int {
	dst := sc.dstReg(want)
	sc.wrote(dst)
	if fv.Rec != nil {
		sc.emit(Instr{Op: OpConstV, A: int32(dst), Imm: uint64(sc.c.pool(fv))})
	} else {
		sc.emit(Instr{Op: OpConst, A: int32(dst), Imm: fv.Val.Uint(), C: int16(fv.Val.Width())})
	}
	return dst
}

func (sc *segc) identExpr(n *ast.Ident, want int) int {
	if sc.ctx == nil {
		// Function mode: frame slots, then constants (constants already
		// folded, so reaching here with a known name means a frame slot).
		if slot, ok := sc.fslots[n.Name]; ok {
			return slot
		}
		sc.panicOp(fmt.Sprintf("sim: function references unknown name %q", n.Name))
		return sc.dstReg(want)
	}
	b, ok := sc.c.hooks.Ident(n)
	if !ok {
		sc.panicOp(fmt.Sprintf("sim: unresolved name %q in pipe %s", n.Name, sc.ctx.PipeName))
		return sc.dstReg(want)
	}
	switch b.Kind {
	case 1:
		// Constants fold; this only runs for record constants.
		return sc.emitConst(b.Con, want)
	case 2:
		dst := sc.dstReg(want)
		sc.wrote(dst)
		sc.emit(Instr{Op: OpLoadVol, A: int32(dst), B: int16(b.Vol)})
		return dst
	}
	// Latched slot: reads go through the pinned register, refreshed only
	// when the cache says it is stale.
	if !sc.cache[b.Slot] {
		sc.emit(Instr{Op: OpLoadSlot, A: int32(b.Slot), B: int16(b.Slot)})
		sc.cache[b.Slot] = true
	}
	return b.Slot
}

// rrFor maps an AST binary operator to its reg-reg opcode.
func rrFor(op ast.BinOp) uint8 {
	switch op {
	case ast.OpAdd:
		return OpAdd
	case ast.OpSub:
		return OpSub
	case ast.OpMul:
		return OpMul
	case ast.OpDiv:
		return OpDivU
	case ast.OpMod:
		return OpRemU
	case ast.OpAnd:
		return OpAnd
	case ast.OpOr:
		return OpOr
	case ast.OpXor:
		return OpXor
	case ast.OpShl:
		return OpShl
	case ast.OpShr:
		return OpShrU
	case ast.OpLAnd:
		return OpLAnd
	case ast.OpLOr:
		return OpLOr
	case ast.OpEq:
		return OpEq
	case ast.OpNe:
		return OpNe
	case ast.OpLt:
		return OpLtU
	case ast.OpLe:
		return OpLeU
	case ast.OpGt:
		return OpGtU
	case ast.OpGe:
		return OpGeU
	}
	panic("vm: unhandled binary operator")
}

// immFor maps an AST binary operator to its immediate form (constant on
// the right); ok is false for operators without one.
func immFor(op ast.BinOp) (uint8, bool) {
	switch op {
	case ast.OpAdd:
		return OpAddI, true
	case ast.OpSub:
		return OpSubI, true
	case ast.OpMul:
		return OpMulI, true
	case ast.OpDiv:
		return OpDivUI, true
	case ast.OpMod:
		return OpRemUI, true
	case ast.OpAnd:
		return OpAndI, true
	case ast.OpOr:
		return OpOrI, true
	case ast.OpXor:
		return OpXorI, true
	case ast.OpShl:
		return OpShlI, true
	case ast.OpShr:
		return OpShrUI, true
	case ast.OpEq:
		return OpEqI, true
	case ast.OpNe:
		return OpNeI, true
	case ast.OpLt:
		return OpLtUI, true
	case ast.OpLe:
		return OpLeUI, true
	case ast.OpGt:
		return OpGtUI, true
	case ast.OpGe:
		return OpGeUI, true
	}
	return 0, false
}

// mirrorImm gives the immediate form computing "const op reg" via the
// mirrored operator (const moves to the right); ok is false when the
// operator cannot be mirrored or reversed.
func mirrorImm(op ast.BinOp) (uint8, bool) {
	switch op {
	case ast.OpAdd:
		return OpAddI, true
	case ast.OpMul:
		return OpMulI, true
	case ast.OpAnd:
		return OpAndI, true
	case ast.OpOr:
		return OpOrI, true
	case ast.OpXor:
		return OpXorI, true
	case ast.OpEq:
		return OpEqI, true
	case ast.OpNe:
		return OpNeI, true
	case ast.OpSub:
		return OpRSubI, true // imm - reg
	case ast.OpLt:
		return OpGtUI, true // c < x  ==  x > c
	case ast.OpLe:
		return OpGeUI, true
	case ast.OpGt:
		return OpLtUI, true
	case ast.OpGe:
		return OpLeUI, true
	}
	return 0, false
}

func (sc *segc) binary(n *ast.Binary, want int) int {
	h := &sc.c.hooks
	adapt := n.Op != ast.OpShl && n.Op != ast.OpShr
	adaptL := adapt && h.IsUnsized(n.L)
	adaptR := adapt && !adaptL && h.IsUnsized(n.R)

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
	// constant into an immediate form.
	if rv, ok := sc.fold(n.R); ok {
		if op, ok2 := immFor(n.Op); ok2 {
			if cw, ok3 := immC(rv, adaptR); ok3 {
				lr := sc.expr(n.L, -1)
				dst := sc.dstReg(want)
				sc.wrote(dst)
				sc.emit(Instr{Op: op, A: int32(dst), B: int16(lr), Imm: rv.Val.Uint(), C: cw})
				return dst
			}
		}
		lr := sc.expr(n.L, -1)
		rr := sc.emitConst(rv, -1)
		return sc.binRR(n.Op, lr, rr, adaptL, adaptR, want)
	}
	// Constant on the left: mirror the operator where possible.
	if lv, ok := sc.fold(n.L); ok {
		if op, ok2 := mirrorImm(n.Op); ok2 {
			if cw, ok3 := immC(lv, adaptL); ok3 {
				rr := sc.expr(n.R, -1)
				dst := sc.dstReg(want)
				sc.wrote(dst)
				sc.emit(Instr{Op: op, A: int32(dst), B: int16(rr), Imm: lv.Val.Uint(), C: cw})
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

// binRR emits the reg-reg form, via OpBinA when a runtime width
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
		sc.emit(Instr{Op: OpBinA, A: int32(dst), B: int16(lr), C: int16(rr), Imm: imm})
		return dst
	}
	sc.emit(Instr{Op: rop, A: int32(dst), B: int16(lr), C: int16(rr)})
	return dst
}

func (sc *segc) ternary(n *ast.Ternary, want int) int {
	if cv, ok := sc.fold(n.Cond); ok {
		// Constant condition: only one arm can ever evaluate.
		if cv.Val.IsTrue() {
			return sc.expr(n.Then, want)
		}
		return sc.expr(n.Else, want)
	}
	dst := sc.dstReg(want)
	cr := sc.expr(n.Cond, -1)
	jz := sc.emit(Instr{Op: OpJz, B: int16(cr)})
	saved := cloneCache(sc.cache)
	sc.wrote(dst)
	if r := sc.expr(n.Then, dst); r != dst {
		sc.emit(Instr{Op: OpMove, A: int32(dst), B: int16(r)})
	}
	thenCache := cloneCache(sc.cache)
	jmp := sc.emit(Instr{Op: OpJmp})
	sc.patch(jz)
	copy(sc.cache, saved)
	sc.wrote(dst)
	if r := sc.expr(n.Else, dst); r != dst {
		sc.emit(Instr{Op: OpMove, A: int32(dst), B: int16(r)})
	}
	sc.patch(jmp)
	intersectCache(sc.cache, thenCache)
	return dst
}

func (sc *segc) slice(n *ast.Slice, want int) int {
	xr := sc.expr(n.X, -1)
	hv, hok := sc.fold(n.Hi)
	lv, lok := sc.fold(n.Lo)
	if hok && lok && hv.Rec == nil && lv.Rec == nil &&
		hv.Val.Uint() <= 255 && lv.Val.Uint() <= 127 {
		dst := sc.dstReg(want)
		sc.wrote(dst)
		c := int16(hv.Val.Uint())<<7 | int16(lv.Val.Uint())
		sc.emit(Instr{Op: OpSliceI, A: int32(dst), B: int16(xr), C: c})
		return dst
	}
	// Dynamic (or out-of-packing-range constant) bounds: evaluate in
	// closure order x, hi, lo; runtime panics are preserved.
	var hr, lr int
	if hok {
		hr = sc.emitConst(hv, -1)
	} else {
		hr = sc.expr(n.Hi, -1)
	}
	if lok {
		lr = sc.emitConst(lv, -1)
	} else {
		lr = sc.expr(n.Lo, -1)
	}
	dst := sc.dstReg(want)
	sc.wrote(dst)
	sc.emit(Instr{Op: OpSliceD, A: int32(dst), B: int16(xr), C: int16(hr), Imm: uint64(lr)})
	return dst
}

func (sc *segc) callExpr(n *ast.CallExpr, want int) int {
	h := &sc.c.hooks
	switch n.Name {
	case "ext", "sext":
		xr := sc.expr(n.Args[0], -1)
		signed := n.Name == "sext"
		if wv, ok := sc.fold(n.Args[1]); ok && wv.Rec == nil && wv.Val.Uint() <= 64 {
			op := uint8(OpZeroExtI)
			if signed {
				op = OpSignExtI
			}
			dst := sc.dstReg(want)
			sc.wrote(dst)
			sc.emit(Instr{Op: op, A: int32(dst), B: int16(xr), C: int16(wv.Val.Uint())})
			return dst
		}
		wr := sc.expr(n.Args[1], -1)
		op := uint8(OpZeroExtD)
		if signed {
			op = OpSignExtD
		}
		dst := sc.dstReg(want)
		sc.wrote(dst)
		sc.emit(Instr{Op: op, A: int32(dst), B: int16(xr), C: int16(wr)})
		return dst
	case "cat":
		for _, a := range n.Args {
			r := sc.expr(a, -1)
			sc.emit(Instr{Op: OpCatPush, B: int16(r)})
		}
		dst := sc.dstReg(want)
		sc.wrote(dst)
		sc.emit(Instr{Op: OpCatDo, A: int32(dst), C: int16(len(n.Args))})
		return dst
	case "lts", "les", "gts", "ges", "shra", "divs", "rems", "mulfull":
		var op uint8
		switch n.Name {
		case "lts":
			op = OpLtS
		case "les":
			op = OpLeS
		case "gts":
			op = OpGtS
		case "ges":
			op = OpGeS
		case "shra":
			op = OpShrS
		case "divs":
			op = OpDivS
		case "rems":
			op = OpRemS
		case "mulfull":
			op = OpMulFull
		}
		ar := sc.expr(n.Args[0], -1)
		br := sc.expr(n.Args[1], -1)
		dst := sc.dstReg(want)
		sc.wrote(dst)
		sc.emit(Instr{Op: op, A: int32(dst), B: int16(ar), C: int16(br)})
		return dst
	}

	// Extern (externs shadow in-language functions, like the closure
	// compiler's lookup order).
	if er, ok := h.Extern(n.Name); ok {
		sc.emit(Instr{Op: OpExternPre, Imm: er.Site})
		for i, a := range n.Args {
			r := sc.expr(a, -1)
			sc.emit(Instr{Op: OpExtPush, B: int16(r), C: int16(er.ParamW[i])})
		}
		dst := sc.dstReg(want)
		sc.wrote(dst)
		sc.emit(Instr{Op: OpExternCall, A: int32(dst), B: int16(er.Idx), C: int16(len(n.Args))})
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
			sc.emit(Instr{Op: OpMove, A: int32(argRegs[i]), B: int16(r)})
		}
	}
	dst := sc.dstReg(want)
	sc.wrote(dst)
	pc := sc.emit(Instr{Op: OpCallFunc, A: int32(dst), B: int16(fi), C: int16(argBase)})
	sc.callFix = append(sc.callFix, pc)
	return dst
}

// ---------------------------------------------------------------------------
// Constant folding

// fold evaluates a constant subtree at compile time, mirroring the
// runtime semantics exactly. Any panic during folding (an out-of-range
// slice, an invalid width) declines the fold so the panic happens at run
// time instead, matching the closure executor.
func (sc *segc) fold(e ast.Expr) (v V, ok bool) {
	defer func() {
		if recover() != nil {
			v, ok = V{}, false
		}
	}()
	return sc.fold1(e)
}

func (sc *segc) fold1(e ast.Expr) (V, bool) {
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
		if sc.ctx != nil {
			if b, ok := sc.c.hooks.Ident(n); ok && b.Kind == 1 {
				return b.Con, true
			}
			return V{}, false
		}
		if _, isSlot := sc.fslots[n.Name]; isSlot {
			return V{}, false
		}
		if sc.c.hooks.Const == nil {
			return V{}, false
		}
		if con, ok := sc.c.hooks.Const(n.Name); ok {
			return con, true
		}
		return V{}, false
	case *ast.Unary:
		x, ok := sc.fold1(n.X)
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
		l, ok := sc.fold1(n.L)
		if !ok {
			return V{}, false
		}
		r, ok := sc.fold1(n.R)
		if !ok {
			return V{}, false
		}
		h := &sc.c.hooks
		adapt := n.Op != ast.OpShl && n.Op != ast.OpShr
		adaptL := adapt && h.IsUnsized(n.L)
		adaptR := adapt && !adaptL && h.IsUnsized(n.R)
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
		c, ok := sc.fold1(n.Cond)
		if !ok {
			return V{}, false
		}
		if c.Val.IsTrue() {
			return sc.fold1(n.Then)
		}
		return sc.fold1(n.Else)
	case *ast.Slice:
		x, ok := sc.fold1(n.X)
		if !ok {
			return V{}, false
		}
		hi, ok := sc.fold1(n.Hi)
		if !ok {
			return V{}, false
		}
		lo, ok := sc.fold1(n.Lo)
		if !ok {
			return V{}, false
		}
		return Scalar(x.Val.Slice(int(hi.Uint()), int(lo.Uint()))), true
	case *ast.CallExpr:
		if n.Name != "ext" && n.Name != "sext" {
			return V{}, false
		}
		x, ok := sc.fold1(n.Args[0])
		if !ok {
			return V{}, false
		}
		w, ok := sc.fold1(n.Args[1])
		if !ok || w.Rec != nil {
			return V{}, false
		}
		if n.Name == "sext" {
			return Scalar(x.Val.SignExt(int(w.Val.Uint()))), true
		}
		return Scalar(x.Val.ZeroExt(int(w.Val.Uint()))), true
	}
	return V{}, false
}
