package sim

import (
	"fmt"
	"testing"

	"xpdl/internal/check"
	"xpdl/internal/pdl/ast"
	"xpdl/internal/val"
)

// FuzzEngineExpr is a differential fuzzer for expression evaluation
// across the simulator's engines. From the fuzz input it grows a random
// well-typed XPDL expression over four inputs of odd and even widths
// (uint<5>, uint<13>, uint<32>, uint<64>): arithmetic, bitwise and
// logical operators, shifts, unsigned and signed comparisons, signed
// builtins, slices of inputs and of subexpressions, ext/sext,
// concatenation, mulfull, ternaries, and unsized literal trees (shifted
// by unsized or sized amounts) that adapt to their sized partner's
// width. The expression sits in a one-stage pipe that writes it to a
// memory; four instructions run it on input vectors derived from the
// fuzz arguments. Every engine in Engines() must store what refEval,
// the val-level reference, computes from the checker's widths, and all
// must agree on cycle and firing counts. The fixed-workload
// differential suite never reaches odd widths or unsized-literal
// adaptation, and the vm's compile-time folding and immediate forms are
// exercised nowhere else.
func FuzzEngineExpr(f *testing.F) {
	f.Add([]byte{4, 0, 1, 0, 3}, uint64(5), uint64(7))
	f.Add([]byte{1, 5, 4, 2, 8, 0, 2, 1, 9, 3}, uint64(0xffffffff), uint64(1))
	f.Add([]byte{0, 2, 5, 7, 3, 5, 0, 6, 1, 0, 0xff, 0x80}, uint64(0x80000000), uint64(1<<63))
	f.Add([]byte{3, 9, 11, 0, 13, 4, 12, 1, 7, 6, 0, 2, 2}, uint64(42), uint64(0))
	f.Add([]byte{2, 10, 12, 8, 6, 1, 2, 4, 0, 7, 0x7f, 9, 3, 3}, uint64(0x1234_5678_9abc_def0), uint64(3))
	f.Add([]byte{1, 6, 5, 3, 0, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint64(1<<63-1), uint64(0xfffffffffffffffe))
	// (5'h14 > (3 << a)) with a = 4: the shift is unsized, so it adapts
	// to 5 bits (48 -> 16) and the compare holds.
	f.Add([]byte{0, 2, 3, 4, 0, 1, 20, 0, 0, 4, 0, 0, 3, 3, 0}, uint64(4), uint64(7))
	// Pseudo-random seeds, so a plain go test already runs a spread of
	// deep expressions through every engine.
	s := uint64(1)
	for range 64 {
		data := make([]byte, 48)
		for i := range data {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			data[i] = byte(s)
		}
		f.Add(data, s, s*0x9e3779b97f4a7c15)
	}
	f.Fuzz(func(t *testing.T, data []byte, x, y uint64) {
		g := &exprGen{data: data}
		expr := g.root()
		src := fmt.Sprintf(engineExprPipe, expr)
		inputs := engineExprInputs(x, y)

		type outcome struct {
			out             [4]uint64
			cycles, firings uint64
		}
		var want outcome
		for i, engine := range Engines() {
			m := build(t, src, Config{Engine: engine})
			if i == 0 {
				info := m.plan.info
				rhs := info.Prog.Pipes[0].Body[0].(*ast.Assign).RHS
				for k, in := range inputs {
					env := map[string]val.Value{"a": in[0], "b": in[1], "c": in[2], "d": in[3]}
					want.out[k] = refEval(t, info, rhs, env).Uint()
				}
			}
			for _, in := range inputs {
				if err := m.Start("p", in...); err != nil {
					t.Fatalf("%s: start: %v\n%s", engine, err, src)
				}
			}
			run(t, m, 100)
			var got outcome
			for k := range got.out {
				got.out[k] = m.MemPeek("out", uint64(k)).Uint()
			}
			got.cycles, got.firings = uint64(m.Cycle()), m.Firings()
			if i == 0 {
				want.cycles, want.firings = got.cycles, got.firings
			}
			if got != want {
				t.Fatalf("%s: got %+v, want %+v (out from the reference, counts from %s; x=%#x y=%#x)\n%s",
					engine, got, want, Engines()[0], x, y, src)
			}
		}
	})
}

// refEval is FuzzEngineExpr's val-level reference: a plain recursive
// evaluator over internal/val that takes every width from the checker's
// table. An unsized operand is taken at its sized partner's checked
// width, and an unsized arm at its ternary's, with no run-time width
// test; a shift's operands never adapt. Every result must come out as
// wide as the checker typed it, 64 bits when unsized.
func refEval(t *testing.T, info *check.Info, e ast.Expr, env map[string]val.Value) val.Value {
	ev := func(x ast.Expr) val.Value { return refEval(t, info, x, env) }
	// at takes v, the value of x, at the checked width of its sized
	// context ctx when x is unsized.
	at := func(x ast.Expr, v val.Value, ctx ast.Expr) val.Value {
		if info.Unsized(x) && !info.Unsized(ctx) {
			return val.New(v.Uint(), info.TypeOf(ctx).BitWidth())
		}
		return v
	}
	var v val.Value
	switch n := e.(type) {
	case *ast.IntLit:
		v = val.New(n.Value, 64)
		if n.Width > 0 {
			v = val.New(n.Value, n.Width)
		}
	case *ast.BoolLit:
		v = val.Bool(n.Value)
	case *ast.Ident:
		v = env[n.Name]
	case *ast.Unary:
		switch x := ev(n.X); n.Op {
		case ast.OpNot:
			v = val.Bool(!x.IsTrue())
		case ast.OpBNot:
			v = x.Not()
		default:
			v = x.Neg()
		}
	case *ast.Binary:
		l, r := ev(n.L), ev(n.R)
		if n.Op != ast.OpShl && n.Op != ast.OpShr {
			l, r = at(n.L, l, n.R), at(n.R, r, n.L)
		}
		v = binOp(n.Op, l, r)
	case *ast.Ternary:
		arm := n.Else
		if ev(n.Cond).IsTrue() {
			arm = n.Then
		}
		v = at(arm, ev(arm), n)
	case *ast.Slice:
		v = ev(n.X).Slice(info.IntValue(n.Hi), info.IntValue(n.Lo))
	case *ast.CallExpr:
		switch n.Name {
		case "ext":
			v = ev(n.Args[0]).ZeroExt(info.IntValue(n.Args[1]))
		case "sext":
			v = ev(n.Args[0]).SignExt(info.IntValue(n.Args[1]))
		case "cat":
			parts := make([]val.Value, len(n.Args))
			for i, a := range n.Args {
				parts[i] = ev(a)
			}
			v = val.Cat(parts...)
		default:
			v = refBuiltins[n.Name](ev(n.Args[0]), ev(n.Args[1]))
		}
	default:
		t.Fatalf("reference: unhandled expression %T", e)
	}
	typ := info.TypeOf(e)
	w := typ.BitWidth()
	if info.Unsized(e) {
		w = 64
	}
	if typ.Kind == ast.TInvalid || v.Width() != w {
		t.Fatalf("reference: %s is %d bits, checked type %s", ast.ExprString(e), v.Width(), typ)
	}
	return v
}

// TestUnsizedTernaryWidth: a ternary whose arms are both unsized
// literals is unsized, as the checker types it, so every engine adapts
// it to its sized partner's width like any unsized literal tree. Left
// at 64 bits, the first case stores 37 and the compare picks 1.
func TestUnsizedTernaryWidth(t *testing.T) {
	cases := []struct {
		expr string
		a    uint64
		want uint64
	}{
		{"(a == 5'd0 ? 5 : 6) + a", 31, 5},
		{"(a == 5'd0 ? 5 : 6) + a", 0, 5},
		{"a + (a == 5'd0 ? 5 : 6)", 31, 5},
		{"((a == 5'd1 ? 3 : 4) * 10) + a", 31, 7},
		{"(true ? 40 : 33) + a", 31, 7},
		{"a / (a == 5'd0 ? 40 : 34)", 31, 15},
		{"(a < (a == 5'd0 ? 40 : 33) ? 64'd1 : 64'd0)", 31, 0},
		// A sized constant beside a run-time unsized ternary: the
		// ternary adapts, so no immediate form may keep its width.
		{"5'd3 + (a == 5'd0 ? 40 : 33)", 31, 4},
		{"(a == 5'd0 ? 40 : 33) + 5'd3", 31, 4},
		// A shift has its left operand's type: 3 << a is unsized and
		// adapts to 5 bits (48 -> 16). Left at 64 bits, the compare
		// picks 0 and the quotient is 6.
		{"((3 << a) < 5'd20 ? 64'd1 : 64'd0)", 4, 1},
		{"(3 << a) / 5'd7", 4, 2},
	}
	for _, tc := range cases {
		src := fmt.Sprintf(engineExprPipe, tc.expr)
		for _, engine := range Engines() {
			m := build(t, src, Config{Engine: engine})
			err := m.Start("p", val.New(tc.a, 5), val.New(0, 13), val.New(0, 32), val.New(0, 64), val.New(0, 2))
			if err != nil {
				t.Fatal(err)
			}
			run(t, m, 100)
			if got := m.MemPeek("out", 0).Uint(); got != tc.want {
				t.Errorf("%s: %s with a=%d stores %d, want %d", engine, tc.expr, tc.a, got, tc.want)
			}
		}
	}
}

// TestMixedTernaryWidth: a ternary with one unsized arm and one sized
// arm has the sized arm's type, so every engine takes the unsized arm
// at that width. Left at 64 bits, the first case stores 71 and the
// compare picks 1.
func TestMixedTernaryWidth(t *testing.T) {
	cases := []struct {
		expr string
		c    uint64
		want uint64
	}{
		{"(c[0:0] ? 40 : a) + a", 1, 7},
		{"(a < (c[0:0] ? 40 : a) ? 64'd1 : 64'd0)", 1, 0},
		{"(c[0:0] ? 40 : a) + a", 0, 30},
		{"(c[0:0] ? a : 40) + a", 0, 7},
		{"(true ? 40 : a) + a", 0, 7},
		// The unsized arm is itself an unsized ternary.
		{"(c[0:0] ? (c[1:1] ? 40 : 33) : a) + a", 1, 0},
	}
	for _, tc := range cases {
		src := fmt.Sprintf(engineExprPipe, tc.expr)
		for _, engine := range Engines() {
			m := build(t, src, Config{Engine: engine})
			err := m.Start("p", val.New(31, 5), val.New(0, 13), val.New(tc.c, 32), val.New(0, 64), val.New(0, 2))
			if err != nil {
				t.Fatal(err)
			}
			run(t, m, 100)
			if got := m.MemPeek("out", 0).Uint(); got != tc.want {
				t.Errorf("%s: %s with a=31 c=%d stores %d, want %d", engine, tc.expr, tc.c, got, tc.want)
			}
		}
	}
}

// refBuiltins are the two-operand builtins refEval applies, operands
// as they come.
var refBuiltins = map[string]func(val.Value, val.Value) val.Value{
	"lts": val.Value.LtS, "les": val.Value.LeS, "gts": val.Value.GtS, "ges": val.Value.GeS,
	"shra": val.Value.ShrS, "divs": val.Value.DivS, "rems": val.Value.RemS, "mulfull": val.Value.MulFull,
}

// engineExprPipe is the fuzzed design: one stage computes the
// expression and writes it, widened to 64 bits, to out[k].
const engineExprPipe = `
memory out: uint<64>[4] with basic, comb_read;
pipe p(a: uint<5>, b: uint<13>, c: uint<32>, d: uint<64>, k: uint<2>)[out] {
    r = %s;
    acquire(out[k], W);
    out[k] <- ext(r, 64);
    release(out[k]);
}
`

// engineExprInputs derives the four instructions' arguments: the fuzz
// values, their complements, and sign-boundary patterns.
func engineExprInputs(x, y uint64) [][]val.Value {
	vecs := [4][4]uint64{
		{x, x >> 5, x >> 18, y},
		{y, y >> 7, y>>20 ^ x, x},
		{^x, ^y, ^(x * y), x ^ y},
		{x | 1<<4, y | 1<<12, x&0xffff | 1<<31, y | 1<<63},
	}
	widths := [4]int{5, 13, 32, 64}
	out := make([][]val.Value, len(vecs))
	for k, v := range vecs {
		for i, w := range widths {
			out[k] = append(out[k], val.New(v[i], w))
		}
		out[k] = append(out[k], val.New(uint64(k), 2))
	}
	return out
}

// exprGen grows a well-typed expression from fuzz bytes. Every
// production returns text of a known type: uint<w> (sized, w in
// 1..64), bool, or an unsized literal tree, which is used only as a
// binary operand beside a sized one or inside another unsized tree —
// the shapes whose width the simulator adapts.
type exprGen struct {
	data []byte
	pos  int
}

func (g *exprGen) next() byte {
	if g.pos >= len(g.data) {
		return 0
	}
	b := g.data[g.pos]
	g.pos++
	return b
}

// leafOnly reports whether a production at depth must be a leaf.
func (g *exprGen) leafOnly(depth int) bool {
	return depth >= exprMaxDepth || g.pos >= len(g.data)
}

const exprMaxDepth = 6

var exprWidths = []int{1, 2, 3, 5, 7, 8, 13, 16, 31, 32, 33, 47, 63, 64}

func (g *exprGen) width() int { return exprWidths[int(g.next())%len(exprWidths)] }

// root returns the pipe's expression: a bool becomes 0/1, anything
// else a uint of a fuzzed width.
func (g *exprGen) root() string {
	if g.next()%4 == 0 {
		return "(" + g.cond(0) + " ? 64'd1 : 64'd0)"
	}
	return g.uint(g.width(), 0)
}

// uint returns an expression of type uint<w>.
func (g *exprGen) uint(w, depth int) string {
	b := g.next()
	if g.leafOnly(depth) {
		b %= 3
	}
	switch b % 14 {
	case 0: // an input: the one of width w, else a slice of d
		switch w {
		case 5:
			return "a"
		case 13:
			return "b"
		case 32:
			return "c"
		case 64:
			return "d"
		}
		lo := int(g.next()) % (65 - w)
		return fmt.Sprintf("d[%d:%d]", lo+w-1, lo)
	case 1: // sized literal
		v := uint64(g.next()) | uint64(g.next())<<8 | uint64(g.next())<<56
		return fmt.Sprintf("%d'h%x", w, val.New(v, w).Uint())
	case 2: // ext of a narrower input
		return fmt.Sprintf("ext(%s, %d)", []string{"a", "b", "c"}[g.next()%3], w)
	case 3: // unary
		return "(" + []string{"~", "-"}[g.next()%2] + g.uint(w, depth+1) + ")"
	case 4: // same-width binary
		op := []string{"+", "-", "*", "/", "%", "&", "|", "^"}[g.next()%8]
		return "(" + g.uint(w, depth+1) + " " + op + " " + g.uint(w, depth+1) + ")"
	case 5: // binary with an unsized literal tree on one side
		op := []string{"+", "-", "*", "/", "%", "&", "|", "^"}[g.next()%8]
		if g.next()%2 == 0 {
			return "(" + g.unsized(depth+1) + " " + op + " " + g.uint(w, depth+1) + ")"
		}
		return "(" + g.uint(w, depth+1) + " " + op + " " + g.unsized(depth+1) + ")"
	case 6: // shift by an amount of any width, or by an unsized tree
		op := []string{"<<", ">>"}[g.next()%2]
		amt := g.uint(g.width(), depth+1)
		if g.next()%3 == 0 {
			amt = g.unsized(depth + 1)
		}
		return "(" + g.uint(w, depth+1) + " " + op + " " + amt + ")"
	case 7: // ternary; one arm may be an unsized tree, taken at the other's width
		cond, unsized := g.cond(depth+1), int(g.next()%4)
		var arms [2]string
		for i := range arms {
			if i == unsized {
				arms[i] = g.unsized(depth + 1)
			} else {
				arms[i] = g.uint(w, depth+1)
			}
		}
		return "(" + cond + " ? " + arms[0] + " : " + arms[1] + ")"
	case 8: // ext/sext of any width (narrowing truncates)
		fn := []string{"ext", "sext"}[g.next()%2]
		return fmt.Sprintf("%s(%s, %d)", fn, g.uint(g.width(), depth+1), w)
	case 9: // concatenation
		if w < 2 {
			return g.uint(w, exprMaxDepth)
		}
		hi := 1 + int(g.next())%(w-1)
		return "cat(" + g.uint(hi, depth+1) + ", " + g.uint(w-hi, depth+1) + ")"
	case 10: // slice of a wider subexpression
		lo := int(g.next()) % (65 - w)
		return fmt.Sprintf("(%s)[%d:%d]", g.uint(lo+w, depth+1), lo+w-1, lo)
	case 11: // signed builtins
		switch g.next() % 3 {
		case 0:
			return "shra(" + g.uint(w, depth+1) + ", " + g.uint(g.width(), depth+1) + ")"
		case 1:
			return "divs(" + g.uint(w, depth+1) + ", " + g.uint(w, depth+1) + ")"
		default:
			return "rems(" + g.uint(w, depth+1) + ", " + g.uint(w, depth+1) + ")"
		}
	case 12: // full-width product
		if w%2 != 0 {
			return g.uint(w, exprMaxDepth)
		}
		return "mulfull(" + g.uint(w/2, depth+1) + ", " + g.uint(w/2, depth+1) + ")"
	default: // unsized tree adapted by a same-width binary partner
		return "(" + g.uint(w, depth+1) + " ^ " + g.unsized(depth+1) + ")"
	}
}

// unsized returns an unsized literal tree: literals combined by unary
// and binary operators, shifted by any amount and selected by
// ternaries, evaluated at 64 bits until a sized partner adapts the
// result.
func (g *exprGen) unsized(depth int) string {
	b := g.next()
	if g.leafOnly(depth) {
		b %= 2
	}
	switch b % 6 {
	case 0:
		return fmt.Sprintf("%d", g.next())
	case 1:
		v := uint64(g.next())<<56 | uint64(g.next())<<8 | uint64(g.next())
		return fmt.Sprintf("0x%x", v)
	case 2:
		op := []string{"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>"}[g.next()%10]
		return "(" + g.unsized(depth+1) + " " + op + " " + g.unsized(depth+1) + ")"
	case 3: // both arms unsized: the ternary is unsized too
		return "(" + g.cond(depth+1) + " ? " + g.unsized(depth+1) + " : " + g.unsized(depth+1) + ")"
	case 4: // a shift has its left operand's type, so it stays unsized
		op := []string{"<<", ">>"}[g.next()%2]
		return "(" + g.unsized(depth+1) + " " + op + " " + g.uint(g.width(), depth+1) + ")"
	default:
		return "(" + []string{"~", "-"}[g.next()%2] + g.unsized(depth+1) + ")"
	}
}

// cond returns an expression of type bool (or uint<1>, which the
// language accepts wherever a condition is required).
func (g *exprGen) cond(depth int) string {
	b := g.next()
	if g.leafOnly(depth) {
		b %= 2
	}
	switch b % 8 {
	case 0:
		return []string{"true", "false"}[g.next()%2]
	case 1: // a 1-bit slice of an input
		i := g.next() % 32
		return fmt.Sprintf("c[%d:%d]", i, i)
	case 2: // unsigned comparison
		w := g.width()
		op := []string{"==", "!=", "<", "<=", ">", ">="}[g.next()%6]
		if g.next()%3 == 0 {
			return "(" + g.uint(w, depth+1) + " " + op + " " + g.unsized(depth+1) + ")"
		}
		return "(" + g.uint(w, depth+1) + " " + op + " " + g.uint(w, depth+1) + ")"
	case 3: // signed comparison
		w := g.width()
		fn := []string{"lts", "les", "gts", "ges"}[g.next()%4]
		return fn + "(" + g.uint(w, depth+1) + ", " + g.uint(w, depth+1) + ")"
	case 4:
		return "(!" + g.cond(depth+1) + ")"
	case 5:
		op := []string{"&&", "||"}[g.next()%2]
		return "(" + g.cond(depth+1) + " " + op + " " + g.cond(depth+1) + ")"
	case 6: // arms negated to bool: a bool and a uint<1> arm would disagree
		return "(" + g.cond(depth+1) + " ? (!" + g.cond(depth+1) + ") : (!" + g.cond(depth+1) + "))"
	default: // a computed 1-bit uint
		return g.uint(1, depth+1)
	}
}
