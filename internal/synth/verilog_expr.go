package synth

import (
	"fmt"

	"xpdl/internal/pdl/ast"
)

// ---------------------------------------------------------------------------
// Expressions
//
// The rtl evaluator implements the language's width semantics (left-width
// binary operators, one-sided unsized adaptation, logical shifts that
// never adapt), so most expressions translate token-for-token. Explicit
// resizes use the OR-with-zero idiom `(<w>'d0 | e)`, which under the
// left-width rule truncates or zero-extends e to exactly w bits.

// resizeExpr emits e coerced to exactly w bits.
func (g *rtlgen) resizeExpr(e ast.Expr, w int) string {
	return fmt.Sprintf("(%s | (%s))", zeroLit(w), g.expr(e))
}

func (g *rtlgen) expr(e ast.Expr) string {
	p := g.cur.Prefix
	switch n := e.(type) {
	case *ast.Ident:
		if c, ok := g.info.Consts[n.Name]; ok {
			if c.IsBool {
				if c.Value != 0 {
					return "1'b1"
				}
				return "1'b0"
			}
			if c.Width == 0 {
				return fmt.Sprintf("%d", c.Value)
			}
			return fmt.Sprintf("%d'd%d", c.Width, c.Value)
		}
		if _, isVol := g.volW[n.Name]; isVol {
			return n.Name + "_cur"
		}
		if t, ok := g.pi.Vars[n.Name]; ok {
			if t.Kind == ast.TRecord {
				g.failf("record %s used as a scalar value", n.Name)
			}
			return p + "_l_" + n.Name
		}
		g.failf("unresolved identifier %s", n.Name)
	case *ast.IntLit:
		if n.Width == 0 {
			return fmt.Sprintf("%d", n.Value)
		}
		return fmt.Sprintf("%d'd%d", n.Width, n.Value)
	case *ast.BoolLit:
		if n.Value {
			return "1'b1"
		}
		return "1'b0"
	case *ast.Binary:
		return fmt.Sprintf("((%s) %s (%s))", g.expr(n.L), n.Op.String(), g.expr(n.R))
	case *ast.Unary:
		switch n.Op {
		case ast.OpNot:
			return fmt.Sprintf("(!(%s))", g.expr(n.X))
		case ast.OpBNot:
			return fmt.Sprintf("(~(%s))", g.expr(n.X))
		case ast.OpNeg:
			return fmt.Sprintf("(-(%s))", g.expr(n.X))
		}
		g.failf("unsupported unary operator")
	case *ast.Ternary:
		cond, then, els := g.expr(n.Cond), g.expr(n.Then), g.expr(n.Else)
		// A ternary typed by its one sized arm resizes the unsized arm
		// to that arm's width, as the simulator does when it takes it.
		if w := g.info.TernaryWidth[n]; w > 0 {
			if g.widthOf(n.Then) <= 0 {
				then = g.resizeExpr(n.Then, w)
			} else {
				els = g.resizeExpr(n.Else, w)
			}
		}
		return fmt.Sprintf("((%s) ? (%s) : (%s))", cond, then, els)
	case *ast.CallExpr:
		return g.exprCall(n)
	case *ast.MemRead:
		return g.exprMemRead(n)
	case *ast.Slice:
		return g.exprSlice(n)
	case *ast.FieldAccess:
		id, ok := n.X.(*ast.Ident)
		if !ok {
			g.failf("field access on non-variable expression")
		}
		return p + "_l_" + id.Name + "__" + n.Field
	case *ast.EArgRef:
		return fmt.Sprintf("%s_l_earg%d", p, n.Index)
	case *ast.GefRef:
		return "gef_cur"
	case *ast.LefRef:
		return p + "_lefc"
	}
	g.failf("unsupported expression %T", e)
	return ""
}

func (g *rtlgen) exprCall(n *ast.CallExpr) string {
	switch n.Name {
	case "ext":
		w := g.constInt(n.Args[1])
		return g.resizeExpr(n.Args[0], w)
	case "sext":
		return g.exprSext(n)
	case "cat":
		parts := make([]string, len(n.Args))
		for i, a := range n.Args {
			if g.widthOf(a) <= 0 {
				g.failf("cat of unsized value")
			}
			parts[i] = g.expr(a)
		}
		return "{" + join(parts, ", ") + "}"
	case "lts":
		return fmt.Sprintf("($signed(%s) < $signed(%s))", g.expr(n.Args[0]), g.expr(n.Args[1]))
	case "les":
		return fmt.Sprintf("($signed(%s) <= $signed(%s))", g.expr(n.Args[0]), g.expr(n.Args[1]))
	case "gts":
		return fmt.Sprintf("($signed(%s) > $signed(%s))", g.expr(n.Args[0]), g.expr(n.Args[1]))
	case "ges":
		return fmt.Sprintf("($signed(%s) >= $signed(%s))", g.expr(n.Args[0]), g.expr(n.Args[1]))
	case "shra":
		return fmt.Sprintf("($signed(%s) >>> (%s))", g.expr(n.Args[0]), g.expr(n.Args[1]))
	case "divs":
		return fmt.Sprintf("($signed(%s) / $signed(%s))", g.expr(n.Args[0]), g.expr(n.Args[1]))
	case "rems":
		return fmt.Sprintf("($signed(%s) %% $signed(%s))", g.expr(n.Args[0]), g.expr(n.Args[1]))
	case "mulfull":
		g.failf("mulfull outside the synthesizable subset")
	}
	ext := g.externOf(n.Name)
	if ext == nil {
		g.failf("call to unknown function %s", n.Name)
	}
	if ext.Result.Kind == ast.TRecord {
		g.failf("record-returning extern %s used as a scalar", n.Name)
	}
	args := make([]string, len(n.Args))
	for i, a := range n.Args {
		args[i] = g.expr(a)
	}
	return fmt.Sprintf("%s(%s)", n.Name, join(args, ", "))
}

// exprSext widens with sign replication. Narrowing (or same width) is
// just a resize under the left-width rule.
func (g *rtlgen) exprSext(n *ast.CallExpr) string {
	w := g.constInt(n.Args[1])
	from := g.widthOf(n.Args[0])
	if from <= 0 {
		g.failf("sext of unsized value")
	}
	if w <= from {
		return g.resizeExpr(n.Args[0], w)
	}
	sx := g.newScratch("sx", from)
	g.mf("%s = %s;", sx, g.expr(n.Args[0]))
	return fmt.Sprintf("{{%d{%s[%d]}}, %s}", w-from, sx, from-1, sx)
}

func (g *rtlgen) exprMemRead(n *ast.MemRead) string {
	if _, isVol := g.volW[n.Mem]; isVol || n.Index == nil {
		return n.Mem + "_cur"
	}
	md := g.memOf[n.Mem]
	if md == nil {
		g.failf("read of unknown memory %s", n.Mem)
	}
	idx := g.expr(n.Index)
	if !g.isWritten(n.Mem) {
		return fmt.Sprintf("%s_arr[((%s) %% %d)]", n.Mem, idx, md.Depth)
	}
	return g.lockedRead(n.Mem, md, idx)
}

// lockedRead reads a written memory with age-ordered forwarding: the
// nearest staged write at or downstream of the reading node wins,
// falling back to the committed array. Downstream nodes are processed
// earlier in the machine block, so their swc scratches are final here;
// the reader's own swc gives read-after-write within one firing.
func (g *rtlgen) lockedRead(mem string, md *ast.MemDecl, idx string) string {
	ma := g.newScratch("ma", 32)
	g.mf("%s = ((%s) %% %d);", ma, idx, md.Depth)
	out := fmt.Sprintf("%s_arr[%s]", mem, ma)
	holders := g.forwardHolders()
	for i := len(holders) - 1; i >= 0; i-- {
		h := holders[i]
		out = fmt.Sprintf("((%s_swc_%s_v && (%s_swc_%s_a == %s)) ? %s_swc_%s_d : %s)",
			h, mem, h, mem, ma, h, mem, out)
	}
	return out
}

// forwardHolders lists node prefixes that may hold a staged write an
// instruction at the current node must observe, nearest (youngest
// older-or-self) first: itself, then every node its instruction flows
// through downstream. Body nodes flow into both chains via the fork.
func (g *rtlgen) forwardHolders() []string {
	var out []string
	add := func(kind byte, from int) {
		// Plan order is reversed (last chain/body index first).
		for i := len(g.plan.Nodes) - 1; i >= 0; i-- {
			n := &g.plan.Nodes[i]
			if n.Kind == kind && n.Index >= from {
				out = append(out, n.Prefix)
			}
		}
	}
	switch g.cur.Kind {
	case 'b':
		add('b', g.cur.Index)
		add('c', 1)
		add('x', 1)
	case 'c':
		add('c', g.cur.Index)
	case 'x':
		add('x', g.cur.Index)
	}
	return out
}

// widthOf computes an expression's value width; 0 means unsized (an
// integer literal or constant whose width adapts to context).
func (g *rtlgen) widthOf(e ast.Expr) int {
	switch n := e.(type) {
	case *ast.Ident:
		if c, ok := g.info.Consts[n.Name]; ok {
			if c.IsBool {
				return 1
			}
			return c.Width
		}
		if w, isVol := g.volW[n.Name]; isVol {
			return w
		}
		if t, ok := g.pi.Vars[n.Name]; ok {
			return t.BitWidth()
		}
		g.failf("unresolved identifier %s", n.Name)
	case *ast.IntLit:
		return n.Width
	case *ast.BoolLit:
		return 1
	case *ast.Binary:
		switch n.Op {
		case ast.OpEq, ast.OpNe, ast.OpLt, ast.OpLe, ast.OpGt, ast.OpGe,
			ast.OpLAnd, ast.OpLOr:
			return 1
		case ast.OpShl, ast.OpShr:
			return g.widthOf(n.L)
		}
		if w := g.widthOf(n.L); w > 0 {
			return w
		}
		return g.widthOf(n.R)
	case *ast.Unary:
		if n.Op == ast.OpNot {
			return 1
		}
		return g.widthOf(n.X)
	case *ast.Ternary:
		if w := g.widthOf(n.Then); w > 0 {
			return w
		}
		return g.widthOf(n.Else)
	case *ast.CallExpr:
		switch n.Name {
		case "ext", "sext":
			return g.constInt(n.Args[1])
		case "cat":
			total := 0
			for _, a := range n.Args {
				w := g.widthOf(a)
				if w <= 0 {
					g.failf("cat of unsized value")
				}
				total += w
			}
			return total
		case "lts", "les", "gts", "ges":
			return 1
		case "shra", "divs", "rems":
			return g.widthOf(n.Args[0])
		case "mulfull":
			g.failf("mulfull outside the synthesizable subset")
		}
		ext := g.externOf(n.Name)
		if ext == nil {
			g.failf("call to unknown function %s", n.Name)
		}
		return ext.Result.BitWidth()
	case *ast.MemRead:
		if w, isVol := g.volW[n.Mem]; isVol || n.Index == nil {
			return w
		}
		md := g.memOf[n.Mem]
		if md == nil {
			g.failf("read of unknown memory %s", n.Mem)
		}
		return md.Elem.Width
	case *ast.Slice:
		return g.constInt(n.Hi) - g.constInt(n.Lo) + 1
	case *ast.FieldAccess:
		id, ok := n.X.(*ast.Ident)
		if !ok {
			g.failf("field access on non-variable expression")
		}
		t := g.pi.Vars[id.Name]
		for _, f := range t.Fields {
			if f.Name == n.Field {
				return f.Type.BitWidth()
			}
		}
		g.failf("record %s has no field %s", id.Name, n.Field)
	case *ast.EArgRef:
		return g.slotW[fmt.Sprintf("earg%d", n.Index)]
	case *ast.GefRef, *ast.LefRef:
		return 1
	}
	g.failf("unsupported expression %T", e)
	return 0
}

func (g *rtlgen) exprSlice(n *ast.Slice) string {
	hi, lo := g.constInt(n.Hi), g.constInt(n.Lo)
	// A part-select needs a plain signal name on the left; materialize
	// anything else into a scratch first.
	base := ""
	switch x := n.X.(type) {
	case *ast.Ident:
		if _, isConst := g.info.Consts[x.Name]; !isConst {
			base = g.expr(x)
		}
	case *ast.FieldAccess, *ast.EArgRef:
		base = g.expr(n.X)
	}
	if base == "" {
		w := g.widthOf(n.X)
		if w <= 0 {
			g.failf("slice of unsized value")
		}
		sc := g.newScratch("sc", w)
		g.mf("%s = %s;", sc, g.expr(n.X))
		base = sc
	}
	if hi == lo {
		return fmt.Sprintf("%s[%d]", base, hi)
	}
	return fmt.Sprintf("%s[%d:%d]", base, hi, lo)
}

// constInt folds a checker-validated constant expression.
func (g *rtlgen) constInt(e ast.Expr) int {
	v, ok := g.constEval(e)
	if !ok {
		g.failf("expected a constant expression, got %T", e)
	}
	return int(v)
}

func (g *rtlgen) constEval(e ast.Expr) (uint64, bool) {
	switch n := e.(type) {
	case *ast.IntLit:
		return n.Value, true
	case *ast.BoolLit:
		if n.Value {
			return 1, true
		}
		return 0, true
	case *ast.Ident:
		if c, ok := g.info.Consts[n.Name]; ok {
			return c.Value, true
		}
	case *ast.Binary:
		l, lok := g.constEval(n.L)
		r, rok := g.constEval(n.R)
		if !lok || !rok {
			return 0, false
		}
		switch n.Op {
		case ast.OpAdd:
			return l + r, true
		case ast.OpSub:
			return l - r, true
		case ast.OpMul:
			return l * r, true
		case ast.OpShl:
			return l << (r & 63), true
		case ast.OpShr:
			return l >> (r & 63), true
		}
	}
	return 0, false
}

func join(parts []string, sep string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += sep
		}
		out += p
	}
	return out
}
