package check

import (
	"xpdl/internal/pdl/ast"
	"xpdl/internal/pdl/token"
)

// exprType type-checks an expression in the pipeline context and returns
// its type. Errors are reported on the checker; the returned type on error
// is a best-effort placeholder so checking can continue.
func (pc *pipeChecker) exprType(e ast.Expr) ast.Type {
	return pc.exprTypeEx(e, false)
}

// exprTypeAllowSync permits a sync-read MemRead at the top level; only the
// direct RHS of a latched assignment may contain one.
func (pc *pipeChecker) exprTypeAllowSync(e ast.Expr) ast.Type {
	return pc.exprTypeEx(e, true)
}

// exprTypeEx types e and records its type in the type table, keeping the
// value of a node already folded as a constant.
func (pc *pipeChecker) exprTypeEx(e ast.Expr, allowSync bool) ast.Type {
	t := pc.typeOf(e, allowSync)
	if !pc.c.info.TypeAndValue(e).Const {
		pc.c.record(e, TypeAndValue{Type: t})
	}
	return t
}

func (pc *pipeChecker) typeOf(e ast.Expr, allowSync bool) ast.Type {
	c := pc.c
	switch n := e.(type) {
	case *ast.IntLit:
		return ast.UIntType0(n.Width)
	case *ast.BoolLit:
		return ast.BoolType()
	case *ast.Ident:
		return pc.identType(n)
	case *ast.Unary:
		t := pc.exprTypeEx(n.X, false)
		switch n.Op {
		case ast.OpNot:
			if !isBoolish(t) {
				c.errorf(n.ExprPos(), "E-TYPE", "operand of ! must be bool, got %s", t)
			}
			return ast.BoolType()
		case ast.OpBNot, ast.OpNeg:
			if t.Kind != ast.TUInt {
				c.errorf(n.ExprPos(), "E-TYPE", "operand of %s must be uint, got %s",
					map[ast.UnOp]string{ast.OpBNot: "~", ast.OpNeg: "-"}[n.Op], t)
				return ast.UIntType(1)
			}
			return t
		}
	case *ast.Binary:
		return pc.binaryType(n)
	case *ast.Ternary:
		ct := pc.exprTypeEx(n.Cond, false)
		if !isBoolish(ct) {
			c.errorf(n.ExprPos(), "E-TYPE", "ternary condition must be bool, got %s", ct)
		}
		// An unsized arm takes the other arm's type, so when taken it
		// adapts to that width; the ternary is unsized only when both
		// arms are.
		tt := pc.exprTypeEx(n.Then, false)
		et := pc.exprTypeEx(n.Else, false)
		switch {
		case isUnsized(tt) && assignable(et, tt):
			return et
		case isUnsized(et) && assignable(tt, et):
			return tt
		case !tt.Equal(et):
			c.errorf(n.ExprPos(), "E-TYPE", "ternary arms disagree: %s vs %s", tt, et)
		}
		return tt
	case *ast.CallExpr:
		return pc.callType(n)
	case *ast.MemRead:
		return pc.memReadType(n, allowSync)
	case *ast.Slice:
		return pc.sliceType(n)
	case *ast.FieldAccess:
		xt := pc.exprTypeEx(n.X, false)
		if xt.Kind != ast.TRecord {
			c.errorf(n.ExprPos(), "E-TYPE", "field access on non-record type %s", xt)
			return ast.UIntType(1)
		}
		ft, ok := xt.FieldType(n.Field)
		if !ok {
			c.errorf(n.ExprPos(), "E-UNDEF", "record has no field %q", n.Field)
			return ast.UIntType(1)
		}
		return ft
	}
	c.errorf(e.ExprPos(), "E-INTERNAL", "internal expression %T is not allowed in source programs", e)
	return ast.UIntType(1)
}

func (pc *pipeChecker) identType(n *ast.Ident) ast.Type {
	c := pc.c
	name := n.Name
	if t, ok := pc.vars[name]; ok {
		pc.locals.used[name] = true
		if avail := pc.availStage[name]; avail > pc.stage {
			c.errorf(n.ExprPos(), "E-AVAIL", "%s is not available until %s (latched values are visible from the next stage)", name, fmtAvail(avail))
		}
		return t
	}
	if cv, ok := c.evalConst(n); ok {
		if cv.IsBool {
			return ast.BoolType()
		}
		return ast.UIntType0(cv.Width)
	}
	if v := c.vols[name]; v != nil {
		c.usedVols[name] = true
		pc.checkVolRead(name, n.ExprPos())
		return v.Elem
	}
	if c.mems[name] != nil {
		c.usedMems[name] = true
		c.errorf(n.ExprPos(), "E-TYPE", "memory %s must be read with an index", name)
		return ast.UIntType(1)
	}
	c.errorf(n.ExprPos(), "E-UNDEF", "undefined name %q", name)
	return ast.UIntType(1)
}

// checkVolRead enforces the §3.6 placement rule: volatile reads only in
// non-speculative, in-order regions (final blocks, or body stages at or
// after the spec_barrier when the pipeline speculates).
func (pc *pipeChecker) checkVolRead(name string, pos token.Pos) {
	if !pc.mods[name] {
		pc.c.errorf(pos, "E-CONNECT", "volatile %s is not connected to pipe %s", name, pc.pipe.Name)
		return
	}
	if pc.region != regBody {
		return // final blocks are always non-speculative and in-order
	}
	if pc.specUsed && (!pc.sawBarrier || pc.stage < pc.info.BarrierStage) {
		pc.c.errorf(pos, "E-VOL-READ", "volatile %s read in a speculative region; place the read after spec_barrier (§3.6)", name)
	}
}

func (pc *pipeChecker) binaryType(n *ast.Binary) ast.Type {
	c := pc.c
	lt := pc.exprTypeEx(n.L, false)
	rt := pc.exprTypeEx(n.R, false)
	switch n.Op {
	case ast.OpLAnd, ast.OpLOr:
		if !isBoolish(lt) || !isBoolish(rt) {
			c.errorf(n.ExprPos(), "E-TYPE", "operands of %s must be bool, got %s and %s", n.Op, lt, rt)
		}
		return ast.BoolType()
	case ast.OpEq, ast.OpNe, ast.OpLt, ast.OpLe, ast.OpGt, ast.OpGe:
		if !comparable2(lt, rt) {
			c.errorf(n.ExprPos(), "E-TYPE", "cannot compare %s with %s", lt, rt)
		}
		return ast.BoolType()
	case ast.OpShl, ast.OpShr:
		if lt.Kind != ast.TUInt || rt.Kind != ast.TUInt {
			c.errorf(n.ExprPos(), "E-TYPE", "shift operands must be uint, got %s and %s", lt, rt)
			return ast.UIntType(1)
		}
		return lt
	default: // arithmetic and bitwise
		if lt.Kind != ast.TUInt || rt.Kind != ast.TUInt {
			c.errorf(n.ExprPos(), "E-TYPE", "operands of %s must be uint, got %s and %s", n.Op, lt, rt)
			return ast.UIntType(1)
		}
		if lt.Width != 0 && rt.Width != 0 && lt.Width != rt.Width {
			c.errorf(n.ExprPos(), "E-TYPE", "width mismatch in %s: uint<%d> vs uint<%d>", n.Op, lt.Width, rt.Width)
		}
		if lt.Width == 0 {
			return rt
		}
		return lt
	}
}

func comparable2(a, b ast.Type) bool {
	if a.Kind == ast.TUInt && b.Kind == ast.TUInt {
		return a.Width == 0 || b.Width == 0 || a.Width == b.Width
	}
	if isBoolish(a) && isBoolish(b) {
		return true
	}
	return false
}

// builtinSigs lists the builtin combinational functions.
var builtinArity = map[string]int{
	"ext": 2, "sext": 2, // widen/narrow
	"lts": 2, "les": 2, "gts": 2, "ges": 2, // signed compares
	"shra": 2,            // arithmetic shift right
	"divs": 2, "rems": 2, // signed division
	"mulfull": 2, // full-width product
	// cat is variadic and handled separately.
}

func (pc *pipeChecker) callType(n *ast.CallExpr) ast.Type {
	c := pc.c
	// Builtins.
	if n.Name == "cat" {
		if len(n.Args) < 2 {
			c.errorf(n.ExprPos(), "E-CALL", "cat needs at least two operands")
			return ast.UIntType(1)
		}
		width := 0
		for _, a := range n.Args {
			t := pc.exprTypeEx(a, false)
			if t.Kind != ast.TUInt && t.Kind != ast.TBool {
				c.errorf(n.ExprPos(), "E-TYPE", "cat operand has type %s; need sized uint or bool", t)
				return ast.UIntType(1)
			}
			if isUnsized(t) {
				c.errorf(n.ExprPos(), "E-TYPE", "cat operands must have explicit widths (use sized literals)")
				return ast.UIntType(1)
			}
			width += t.BitWidth()
		}
		if width > 64 {
			c.errorf(n.ExprPos(), "E-TYPE", "cat result is %d bits; the maximum is 64", width)
			width = 64
		}
		return ast.UIntType(width)
	}
	if arity, isBuiltin := builtinArity[n.Name]; isBuiltin {
		if len(n.Args) != arity {
			c.errorf(n.ExprPos(), "E-CALL", "%s takes %d arguments, got %d", n.Name, arity, len(n.Args))
			return ast.UIntType(1)
		}
		switch n.Name {
		case "ext", "sext":
			t := pc.exprTypeEx(n.Args[0], false)
			if t.Kind != ast.TUInt {
				c.errorf(n.ExprPos(), "E-TYPE", "%s needs a uint operand, got %s", n.Name, t)
			}
			w, ok := c.constInt(n.Args[1])
			if !ok || w < 1 || w > 64 {
				c.errorf(n.ExprPos(), "E-CONST", "%s width must be a constant between 1 and 64", n.Name)
				return ast.UIntType(1)
			}
			return ast.UIntType(int(w))
		case "lts", "les", "gts", "ges":
			lt := pc.exprTypeEx(n.Args[0], false)
			rt := pc.exprTypeEx(n.Args[1], false)
			if !comparable2(lt, rt) {
				c.errorf(n.ExprPos(), "E-TYPE", "cannot compare %s with %s", lt, rt)
			}
			return ast.BoolType()
		case "shra", "divs", "rems":
			lt := pc.exprTypeEx(n.Args[0], false)
			pc.exprTypeEx(n.Args[1], false)
			if isUnsized(lt) {
				// Its width, and so its sign bit, would depend on context.
				c.errorf(n.ExprPos(), "E-TYPE", "%s needs a sized first operand", n.Name)
				return ast.UIntType(1)
			}
			return lt
		case "mulfull":
			lt := pc.exprTypeEx(n.Args[0], false)
			rt := pc.exprTypeEx(n.Args[1], false)
			if lt.Kind != ast.TUInt || rt.Kind != ast.TUInt {
				c.errorf(n.ExprPos(), "E-TYPE", "mulfull needs uint operands")
				return ast.UIntType(1)
			}
			w := lt.Width * 2
			if w > 64 {
				w = 64
			}
			if w == 0 {
				w = 64
			}
			return ast.UIntType(w)
		}
	}

	// Extern or in-language function.
	var params []ast.Param
	var result ast.Type
	if ex := c.externs[n.Name]; ex != nil {
		c.usedExterns[n.Name] = true
		params, result = ex.Params, ex.Result
	} else if fn := c.funcs[n.Name]; fn != nil {
		c.usedFuncs[n.Name] = true
		params, result = fn.Params, fn.Result
	} else {
		c.errorf(n.ExprPos(), "E-UNDEF", "call to undefined function %q", n.Name)
		return ast.UIntType(1)
	}
	if len(n.Args) != len(params) {
		c.errorf(n.ExprPos(), "E-CALL", "%s takes %d arguments, got %d", n.Name, len(params), len(n.Args))
		return result
	}
	for i, a := range n.Args {
		t := pc.exprTypeEx(a, false)
		if !assignable(params[i].Type, t) {
			c.errorf(n.ExprPos(), "E-TYPE", "%s argument %d has type %s, parameter is %s", n.Name, i, t, params[i].Type)
		}
	}
	return result
}

func (pc *pipeChecker) memReadType(n *ast.MemRead, allowSync bool) ast.Type {
	c := pc.c
	m := c.mems[n.Mem]
	if m == nil {
		c.errorf(n.ExprPos(), "E-UNDEF", "unknown memory %q", n.Mem)
		return ast.UIntType(1)
	}
	c.usedMems[n.Mem] = true
	if !pc.mods[n.Mem] {
		c.errorf(n.ExprPos(), "E-CONNECT", "memory %s is not connected to pipe %s", n.Mem, pc.pipe.Name)
	}
	if !m.CombRead && !allowSync {
		c.errorf(n.ExprPos(), "E-SYNC-READ", "memory %s is sync-read; its value must be latched with <- before use", n.Mem)
	}
	if !m.CombRead && pc.region == regExcept && pc.stage == ExceptBase+pc.info.ExceptStages-1 {
		c.errorf(n.ExprPos(), "E-R1B", "Rule 1b: the last except stage cannot issue asynchronous memory reads")
	}
	pc.exprTypeEx(n.Index, false)

	// Reads of a locked memory require a reservation covering the key.
	// Basic and renaming locks additionally require ownership (block);
	// the bypass queue forwards pending writes to reserved readers before
	// they own the lock (§3.4), so a reservation suffices there.
	if m.Lock != ast.LockNone {
		key := lockKey(n.Mem, n.Index)
		ls := pc.locks[key]
		if ls == nil {
			ls = pc.locks[n.Mem]
		}
		switch {
		case ls == nil || ls.released:
			c.errorf(n.ExprPos(), "E-LOCK-NORESERVE", "read of %s requires a lock reservation (reserve/acquire %s first)", key, key)
		case !ls.blocked && m.Lock != ast.LockBypass:
			c.errorf(n.ExprPos(), "E-LOCK-UNOWNED", "read of %s requires an owned lock (acquire/block %s first)", key, key)
		}
	}
	return m.Elem
}

func (pc *pipeChecker) sliceType(n *ast.Slice) ast.Type {
	c := pc.c
	xt := pc.exprTypeEx(n.X, false)
	if xt.Kind != ast.TUInt {
		c.errorf(n.ExprPos(), "E-TYPE", "slicing needs a uint operand, got %s", xt)
		return ast.UIntType(1)
	}
	hi, okH := c.constInt(n.Hi)
	lo, okL := c.constInt(n.Lo)
	if !okH || !okL {
		c.errorf(n.ExprPos(), "E-CONST", "slice bounds must be compile-time constants")
		return ast.UIntType(1)
	}
	if hi < lo {
		c.errorf(n.ExprPos(), "E-TYPE", "inverted slice [%d:%d]", hi, lo)
		return ast.UIntType(1)
	}
	w := xt.Width
	if w == 0 {
		w = 64 // an unsized operand is evaluated at 64 bits
	}
	if hi >= uint64(w) {
		c.errorf(n.ExprPos(), "E-TYPE", "slice [%d:%d] exceeds uint<%d>", hi, lo, w)
		return ast.UIntType(1)
	}
	return ast.UIntType(int(hi-lo) + 1)
}

// checkFunc validates an in-language combinational function: straight-line
// combinational assignments ending in a return of the declared type.
func (c *checker) checkFunc(f *ast.FuncDecl) {
	pc := &pipeChecker{
		c:          c,
		pipe:       &ast.PipeDecl{Name: "func " + f.Name, Pos: f.Pos},
		vars:       make(map[string]ast.Type),
		availStage: make(map[string]int),
		mods:       map[string]bool{},
		locks:      map[string]*lockState{},
		info:       &PipeInfo{BarrierStage: -1, LockedMems: map[string]bool{}},
		locals:     newLocalUsage("func " + f.Name),
	}
	c.pipeLocals = append(c.pipeLocals, pc.locals)
	for _, p := range f.Params {
		pc.defineVar(p.Name, p.Type, 0, f.Pos)
	}
	sawReturn := false
	for i, s := range f.Body {
		switch n := s.(type) {
		case *ast.Assign:
			if n.Latched {
				c.errorf(n.StmtPos(), "E-FUNC", "functions are combinational; use = not <-")
				continue
			}
			t := pc.exprType(n.RHS)
			pc.defineLocal(n.Name, t, 0, false, n.StmtPos())
		case *ast.If:
			pc.stmt(n)
		case *ast.Return:
			sawReturn = true
			if i != len(f.Body)-1 {
				c.errorf(n.StmtPos(), "E-FUNC", "return must be the last statement of function %s", f.Name)
			}
			t := pc.exprType(n.Value)
			if !assignable(f.Result, t) {
				c.errorf(n.StmtPos(), "E-FUNC", "function %s returns %s, declared %s", f.Name, t, f.Result)
			}
		default:
			c.errorf(s.StmtPos(), "E-FUNC", "statement %T is not allowed in a combinational function", s)
		}
	}
	if !sawReturn {
		c.errorf(f.Pos, "E-FUNC", "function %s has no return", f.Name)
	}
}
