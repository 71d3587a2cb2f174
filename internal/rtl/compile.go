package rtl

import "xpdl/internal/val"

// Lowering of statements and expressions to closures over the model's
// slots. Everything that can be decided from the source is decided
// here: name resolution, operator dispatch, signedness, which operands
// adapt their width, extern arities and result counts, and which reads
// inside a cyclic group must be watched for the fixpoint test. What is
// left for run time is arithmetic on val.Value.

// evalFn computes one expression.
type evalFn func() val.Value

// compiler lowers one model. tracked holds the reads, inside cyclic
// groups, of signals the group feeds back to itself; feedback marks
// those signals, whose writes record the pass. The first static error
// is kept in err and every lowering after it is a placeholder.
type compiler struct {
	m        *Model
	funcs    map[string]*Func
	tracked  map[Expr]bool
	feedback []bool
	comb     bool // lowering combinational logic
	cyclic   bool // ... of a cyclic group
	err      error
}

func (c *compiler) fail(err *Error) {
	if c.err == nil {
		c.err = err
	}
}

// compile scans, schedules and lowers the module.
func (m *Model) compile(funcs map[string]*Func) error {
	units, err := m.scan(funcs)
	if err != nil {
		return err
	}
	order := levelize(units, len(m.vals)+len(m.arrs))
	tracked, feedback := feedbackReads(order, units, len(m.vals))
	c := &compiler{m: m, funcs: funcs, tracked: tracked, feedback: feedback, comb: true}
	mod, na := m.mod, len(m.mod.Assigns)
	for _, comp := range order {
		c.cyclic = comp.cyclic
		if comp.cyclic || len(m.groups) == 0 || m.groups[len(m.groups)-1].cyclic {
			m.groups = append(m.groups, group{cyclic: comp.cyclic})
		}
		g := &m.groups[len(m.groups)-1]
		for _, u := range comp.units {
			if u < na {
				a := &mod.Assigns[u]
				g.units = append(g.units, c.store(m.slots[a.LHS], a.RHS))
			} else {
				g.units = append(g.units, c.stmts(mod.Combs[u-na].Stmts))
			}
		}
	}
	c.comb, c.cyclic = false, false
	for _, b := range mod.Seqs {
		m.seqs = append(m.seqs, c.stmts(b.Stmts))
	}
	return c.err
}

// ---------------------------------------------------------------------------
// Statements

func (c *compiler) stmts(stmts []Stmt) func() {
	fns := make([]func(), 0, len(stmts))
	for _, s := range stmts {
		switch n := s.(type) {
		case *AssignStmt:
			fns = append(fns, c.assign(n))
		case *IfStmt:
			fns = append(fns, c.ifStmt(n))
		}
	}
	switch len(fns) {
	case 0:
		return func() {}
	case 1:
		return fns[0]
	}
	return func() {
		for _, f := range fns {
			f()
		}
	}
}

func (c *compiler) ifStmt(n *IfStmt) func() {
	cond, then := c.expr(n.Cond), c.stmts(n.Then)
	if len(n.Else) == 0 {
		return func() {
			if cond().IsTrue() {
				then()
			}
		}
	}
	els := c.stmts(n.Else)
	return func() {
		if cond().IsTrue() {
			then()
		} else {
			els()
		}
	}
}

func (c *compiler) assign(n *AssignStmt) func() {
	mod := c.m.mod.Name
	if n.NonBlocking && c.comb {
		c.fail(errf(mod, "nonblocking assign in combinational block"))
		return func() {}
	}
	if len(n.Targets) > 1 {
		// A concat target binds a multi-result call's values in order.
		call, ok := n.RHS.(*CallExpr)
		if !ok {
			c.fail(errf(mod, "%d assignment targets, 1 result", len(n.Targets)))
			return func() {}
		}
		if fn := c.funcs[call.Name]; len(fn.Results) != len(n.Targets) {
			c.fail(errf(mod, "%d assignment targets, %d results", len(n.Targets), len(fn.Results)))
			return func() {}
		}
		rhs := c.call(call)
		ws := make([]func(val.Value), len(n.Targets))
		for i := range n.Targets {
			ws[i] = c.target(&n.Targets[i], n.NonBlocking)
		}
		return func() {
			rs := rhs()
			for i, w := range ws {
				w(rs[i])
			}
		}
	}
	t := &n.Targets[0]
	if t.Index == nil && !n.NonBlocking {
		return c.store(c.m.slots[t.Name], n.RHS)
	}
	rhs, w := c.expr(n.RHS), c.target(t, n.NonBlocking)
	return func() { w(rhs()) }
}

// store lowers a blocking assignment of rhs to a scalar slot. Plain
// copies between equal-width signals and constant stores skip the
// resize: every slot already holds a value of its declared width.
func (c *compiler) store(slot int, rhs Expr) func() {
	m := c.m
	p, w := &m.vals[slot], m.width[slot]
	if c.comb && c.feedback[slot] {
		f, wp := c.expr(rhs), &m.written[slot]
		return func() {
			*p = f().ZeroExt(w)
			*wp = m.pass
		}
	}
	switch n := rhs.(type) {
	case *Num:
		v := val.New(n.Val, n.Width).ZeroExt(w)
		return func() { *p = v }
	case *Ref:
		if src := m.slots[n.Name]; !c.tracked[n] && m.width[src] == w {
			q := &m.vals[src]
			return func() { *p = *q }
		}
	}
	f := c.expr(rhs)
	return func() { *p = f().ZeroExt(w) }
}

// target lowers the write half of an assignment to one target.
func (c *compiler) target(t *LValue, nonBlocking bool) func(val.Value) {
	m := c.m
	if arr := m.arrs[t.Name]; arr != nil {
		idx, cur, w := c.expr(t.Index), arr.cur, arr.width
		depth := uint64(len(cur))
		switch {
		case nonBlocking:
			return func(v val.Value) {
				i := idx().Uint() % depth
				m.nb = append(m.nb, nbWrite{&cur[i], v.ZeroExt(w)})
			}
		case c.cyclic:
			return func(v val.Value) {
				i := idx().Uint() % depth
				if v = v.ZeroExt(w); cur[i] != v {
					cur[i] = v
					m.arrChanged = true
				}
			}
		}
		return func(v val.Value) { cur[idx().Uint()%depth] = v.ZeroExt(w) }
	}
	slot := m.slots[t.Name]
	p, w := &m.vals[slot], m.width[slot]
	switch {
	case nonBlocking:
		return func(v val.Value) { m.nb = append(m.nb, nbWrite{p, v.ZeroExt(w)}) }
	case c.comb && c.feedback[slot]:
		wp := &m.written[slot]
		return func(v val.Value) {
			*p = v.ZeroExt(w)
			*wp = m.pass
		}
	}
	return func(v val.Value) { *p = v.ZeroExt(w) }
}

// ---------------------------------------------------------------------------
// Expressions

// isUnsized follows the XPDL checker's typing: bare literals and
// compositions of them, a ternary whose arms are both unsized, and a
// shift of an unsized value (a shift is sized by its left operand)
// adapt their width to the other operand.
func isUnsized(e Expr) bool {
	switch n := e.(type) {
	case *Num:
		return n.Unsized
	case *Unary:
		return isUnsized(n.X)
	case *Binary:
		if isShift(n.Op) {
			return isUnsized(n.L)
		}
		return isUnsized(n.L) && isUnsized(n.R)
	case *Ternary:
		return isUnsized(n.Then) && isUnsized(n.Else)
	}
	return false
}

// isShift reports whether op is a shift, which is sized by its left
// operand.
func isShift(op string) bool { return op == "<<" || op == ">>" || op == ">>>" }

// isSignedOperand reports whether an operand is $signed-tagged, selecting
// the signed variant of comparisons, division and remainder.
func isSignedOperand(e Expr) bool {
	_, ok := e.(*Signed)
	return ok
}

// read lowers a read of a scalar slot by the node e. Inside a cyclic
// group a read of a fed-back signal that the pass has not written yet
// is logged for the fixpoint test.
func (c *compiler) read(e Expr, slot int) evalFn {
	m := c.m
	p := &m.vals[slot]
	if !c.tracked[e] {
		return func() val.Value { return *p }
	}
	wp := &m.written[slot]
	return func() val.Value {
		v := *p
		if *wp != m.pass {
			m.stale = append(m.stale, staleRead{p, v})
		}
		return v
	}
}

func (c *compiler) expr(e Expr) evalFn {
	m := c.m
	switch n := e.(type) {
	case *Num:
		v := val.New(n.Val, n.Width)
		return func() val.Value { return v }
	case *Ref:
		return c.read(n, m.slots[n.Name])
	case *Index:
		i := c.expr(n.I)
		if arr := m.arrs[n.Name]; arr != nil {
			cur, depth := arr.cur, uint64(len(arr.cur))
			return func() val.Value { return cur[i().Uint()%depth] }
		}
		// Bit select on a scalar.
		x := c.read(n, m.slots[n.Name])
		return func() val.Value {
			b := int(i().Uint() % 64)
			return val.New(x().Bit(b), 1)
		}
	case *PartSel:
		// Elaborate checked the bounds against the signal's width, which
		// every value in its slot has.
		x, lo, w := c.read(n, m.slots[n.Name]), uint(n.Lo), n.Hi-n.Lo+1
		return func() val.Value { return val.New(x().Uint()>>lo, w) }
	case *Concat:
		return c.concat(n)
	case *Repl:
		x, k := c.expr(n.X), n.N
		return func() val.Value {
			v := x()
			if k < 1 {
				return val.Cat()
			}
			out := v
			for j := 1; j < k; j++ {
				out = val.Cat(out, v)
			}
			return out
		}
	case *Unary:
		x := c.expr(n.X)
		switch n.Op {
		case '!':
			return func() val.Value { return val.Bool(!x().IsTrue()) }
		case '~':
			return func() val.Value { return x().Not() }
		case '-':
			return func() val.Value { return x().Neg() }
		}
		c.fail(errf(m.mod.Name, "unknown unary operator %q", string(n.Op)))
	case *Binary:
		return c.binary(n)
	case *Ternary:
		cond, then, els := c.expr(n.Cond), c.expr(n.Then), c.expr(n.Else)
		return func() val.Value {
			if cond().IsTrue() {
				return then()
			}
			return els()
		}
	case *CallExpr:
		if fn := c.funcs[n.Name]; len(fn.Results) != 1 {
			c.fail(errf(m.mod.Name, "%s returns %d values in single-value context", n.Name, len(fn.Results)))
			break
		}
		call := c.call(n)
		return func() val.Value { return call()[0] }
	case *Signed:
		return c.expr(n.X)
	default:
		c.fail(errf(m.mod.Name, "unknown expression node %T", e))
	}
	return func() val.Value { return val.Value{} }
}

func (c *compiler) concat(n *Concat) evalFn {
	parts := make([]evalFn, len(n.Parts))
	for i, p := range n.Parts {
		parts[i] = c.expr(p)
	}
	switch len(parts) {
	case 0:
		return func() val.Value { return val.Cat() }
	case 2:
		hi, lo := parts[0], parts[1]
		return func() val.Value { return val.Cat(hi(), lo()) }
	}
	return func() val.Value {
		out := val.Cat(parts[0]())
		for _, p := range parts[1:] {
			out = val.Cat(out, p())
		}
		return out
	}
}

// binOp is one binary operator on operands of settled widths.
type binOp func(l, r val.Value) val.Value

// binaryOp resolves an operator spelling; signed selects the signed
// variant of division, remainder and the ordered comparisons.
func binaryOp(op string, signed bool) binOp {
	switch op {
	case "+":
		return val.Value.Add
	case "-":
		return val.Value.Sub
	case "*":
		return val.Value.Mul
	case "/":
		if signed {
			return val.Value.DivS
		}
		return val.Value.DivU
	case "%":
		if signed {
			return val.Value.RemS
		}
		return val.Value.RemU
	case "&":
		return val.Value.And
	case "|":
		return val.Value.Or
	case "^":
		return val.Value.Xor
	case "<<":
		return val.Value.Shl
	case ">>":
		return val.Value.ShrU
	case ">>>":
		return val.Value.ShrS
	case "&&":
		return func(l, r val.Value) val.Value { return val.Bool(l.IsTrue() && r.IsTrue()) }
	case "||":
		return func(l, r val.Value) val.Value { return val.Bool(l.IsTrue() || r.IsTrue()) }
	case "==":
		return val.Value.EqV
	case "!=":
		return val.Value.NeV
	case "<":
		if signed {
			return val.Value.LtS
		}
		return val.Value.LtU
	case "<=":
		if signed {
			return val.Value.LeS
		}
		return val.Value.LeU
	case ">":
		if signed {
			return val.Value.GtS
		}
		return val.Value.GtU
	case ">=":
		if signed {
			return val.Value.GeS
		}
		return val.Value.GeU
	}
	return nil
}

// binary lowers a binary operation. Both operands are always evaluated,
// left first. Except for shifts, whose width is the left operand's, an
// unsized operand takes the other's width when the two differ (the
// left one when both are unsized).
func (c *compiler) binary(n *Binary) evalFn {
	l, r := c.expr(n.L), c.expr(n.R)
	op := binaryOp(n.Op, isSignedOperand(n.L) || isSignedOperand(n.R))
	if op == nil {
		c.fail(errf(c.m.mod.Name, "unknown binary operator %q", n.Op))
		return func() val.Value { return val.Value{} }
	}
	if isShift(n.Op) {
		return func() val.Value { return op(l(), r()) }
	}
	switch {
	case isUnsized(n.L):
		return func() val.Value {
			lv, rv := l(), r()
			if lv.Width() != rv.Width() {
				lv = val.New(lv.Uint(), rv.Width())
			}
			return op(lv, rv)
		}
	case isUnsized(n.R):
		return func() val.Value {
			lv, rv := l(), r()
			if lv.Width() != rv.Width() {
				rv = val.New(rv.Uint(), lv.Width())
			}
			return op(lv, rv)
		}
	}
	return func() val.Value { return op(l(), r()) }
}

// call lowers an extern call to a closure returning its results,
// resized to the declared widths. The argument and result slices are
// reused from call to call; a result count that differs from the
// declaration is a run-time *Error.
func (c *compiler) call(n *CallExpr) func() []val.Value {
	fn := c.funcs[n.Name]
	args := make([]evalFn, len(n.Args))
	for i, a := range n.Args {
		args[i] = c.expr(a)
	}
	buf := make([]val.Value, len(args))
	out := make([]val.Value, len(fn.Results))
	mod, name := c.m.mod.Name, n.Name
	return func() []val.Value {
		for i, a := range args {
			buf[i] = a().ZeroExt(fn.Params[i])
		}
		rs := fn.Fn(buf)
		if len(rs) != len(out) {
			panic(evalError{errf(mod, "%s returned %d values, want %d", name, len(rs), len(out))})
		}
		for i, r := range rs {
			out[i] = r.ZeroExt(fn.Results[i])
		}
		return out
	}
}
