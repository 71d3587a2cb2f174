package designs

import (
	"testing"

	"xpdl/internal/pdl/ast"
)

// TestEveryExpressionTyped: the checker's type table is the one width
// rule every engine and the Verilog emitter read, so every expression of
// every variant's translated pipes and functions, slice bounds and
// ext/sext widths included, must have an entry. Only the nodes the
// translator creates are absent; a lookup of anything else that comes
// back TInvalid would silently change how wide an engine evaluates it.
func TestEveryExpressionTyped(t *testing.T) {
	for _, v := range Variants() {
		p := build(t, v)
		info := p.Design.Info
		walked := 0
		var expr func(e ast.Expr)
		expr = func(e ast.Expr) {
			switch e.(type) {
			case *ast.EArgRef, *ast.GefRef, *ast.LefRef:
				return
			}
			walked++
			if info.TypeOf(e).Kind == ast.TInvalid {
				t.Errorf("%s: %s (%T) has no checked type", v, ast.ExprString(e), e)
			}
			switch n := e.(type) {
			case *ast.Unary:
				expr(n.X)
			case *ast.Binary:
				expr(n.L)
				expr(n.R)
			case *ast.Ternary:
				expr(n.Cond)
				expr(n.Then)
				expr(n.Else)
			case *ast.CallExpr:
				for _, a := range n.Args {
					expr(a)
				}
			case *ast.MemRead:
				expr(n.Index)
			case *ast.Slice:
				expr(n.X)
				expr(n.Hi)
				expr(n.Lo)
				if !info.TypeAndValue(n.Hi).Const || !info.TypeAndValue(n.Lo).Const {
					t.Errorf("%s: bounds of %s carry no folded value", v, ast.ExprString(e))
				}
			case *ast.FieldAccess:
				expr(n.X)
			}
		}
		var stmts func(ss []ast.Stmt)
		stmts = func(ss []ast.Stmt) {
			for _, s := range ss {
				switch n := s.(type) {
				case *ast.Assign:
					expr(n.RHS)
				case *ast.MemWrite:
					if n.Index != nil {
						expr(n.Index)
					}
					expr(n.RHS)
				case *ast.VolWrite:
					expr(n.RHS)
				case *ast.If:
					expr(n.Cond)
					stmts(n.Then)
					stmts(n.Else)
				case *ast.Lock:
					if n.Index != nil {
						expr(n.Index)
					}
				case *ast.Call:
					for _, a := range n.Args {
						expr(a)
					}
				case *ast.SpecCall:
					for _, a := range n.Args {
						expr(a)
					}
				case *ast.Verify:
					expr(n.Handle)
				case *ast.Invalidate:
					expr(n.Handle)
				case *ast.Return:
					expr(n.Value)
				case *ast.SetEArg:
					expr(n.Value)
				case *ast.GefGuard:
					stmts(n.Body)
				case *ast.LefBranch:
					stmts(n.Commit)
					stmts(n.Except)
				}
			}
		}
		for _, tr := range p.Design.Translations {
			stmts(tr.Pipe.Body)
		}
		for _, f := range info.Prog.Funcs {
			stmts(f.Body)
		}
		if walked < 100 {
			t.Errorf("%s: walked only %d expressions", v, walked)
		}
		t.Logf("%s: %d expressions typed", v, walked)
	}
}
