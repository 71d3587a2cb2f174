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
func (g *rtlgen) resizeExpr(e ast.Expr, w int) string { return resized(g.expr(e), w) }

// resized coerces emitted expression text to exactly w bits.
func resized(text string, w int) string { return fmt.Sprintf("(%s | (%s))", zeroLit(w), text) }

func (g *rtlgen) expr(e ast.Expr) string {
	p := g.cur.Prefix
	switch n := e.(type) {
	case *ast.Ident:
		if tv := g.info.TypeAndValue(n); tv.Const {
			switch {
			case tv.Type.Kind == ast.TBool:
				return fmt.Sprintf("1'b%d", tv.Value)
			case tv.Type.Width == 0:
				return fmt.Sprintf("%d", tv.Value)
			}
			return fmt.Sprintf("%d'd%d", tv.Type.Width, tv.Value)
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
		// An unsized arm is resized to the ternary's checked width, as
		// the simulator does when it takes it.
		switch thenW, elseW := g.info.ArmWidths(n); {
		case thenW > 0:
			then = resized(then, thenW)
		case elseW > 0:
			els = resized(els, elseW)
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
		return g.resizeExpr(n.Args[0], g.info.IntValue(n.Args[1]))
	case "sext":
		return g.exprSext(n)
	case "cat":
		parts := make([]string, len(n.Args))
		for i, a := range n.Args {
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
	w := g.info.IntValue(n.Args[1])
	from := g.info.TypeOf(n.Args[0]).BitWidth()
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

func (g *rtlgen) exprSlice(n *ast.Slice) string {
	hi, lo := g.info.IntValue(n.Hi), g.info.IntValue(n.Lo)
	// A part-select needs a plain signal name on the left; materialize
	// anything else into a scratch first.
	base := ""
	switch x := n.X.(type) {
	case *ast.Ident:
		if !g.info.TypeAndValue(x).Const {
			base = g.expr(x)
		}
	case *ast.FieldAccess, *ast.EArgRef:
		base = g.expr(n.X)
	}
	if base == "" {
		w := g.info.TypeOf(n.X).BitWidth()
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
