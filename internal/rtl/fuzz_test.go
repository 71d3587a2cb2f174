package rtl_test

import (
	"fmt"
	"strings"
	"testing"

	"xpdl/internal/rtl"
	"xpdl/internal/val"
)

// FuzzRTLExpr is a differential fuzzer for the RTL expression engine:
// from the fuzz input it grows a random expression tree over three
// input signals and emits it twice — once as Verilog text that goes
// through the full lexer → parser → elaborator → evaluator path, and
// once as a direct computation on val.Value mirroring the language
// rules (width adaptation of unsized literals, $signed operand
// selection, self-determined shifts, 1-bit logical results). Any
// disagreement is a bug in one of the two implementations; since
// internal/val is the same kernel the pipeline simulator computes
// with, agreement here is what entitles the cosim harness to blame
// *scheduling* rather than *arithmetic* when a run diverges.
//
// The generated text exercises every operator the emitter can produce:
// all binary/unary ops, ternaries, concats, replications, part- and
// bit-selects, $signed, and sized/unsized literals.
//
// Each expression is also checked in a chain form: every subexpression
// whose width is fixed by the source is bound to a wire of exactly that
// width, and the wires' assigns are emitted in reverse order, consumers
// before producers, so the result depends on the evaluator ordering the
// assigns by their dependencies.
func FuzzRTLExpr(f *testing.F) {
	f.Add([]byte{0, 1, 2}, uint64(5), uint64(7), byte(9))
	f.Add([]byte{11, 0, 1, 12, 3, 2, 0xff}, uint64(0xffffffff), uint64(1), byte(0))
	f.Add([]byte{6, 5, 0, 1, 2, 13, 4, 9, 8}, uint64(0x80000000), uint64(3), byte(0x80))
	f.Add([]byte{7, 9, 10, 14, 3, 0, 0, 8, 1, 2, 2}, uint64(42), uint64(0), byte(255))
	f.Fuzz(func(t *testing.T, data []byte, av, bv uint64, cv byte) {
		g := &exprGen{data: data}
		root := g.gen(0)
		g.av, g.bv, g.cv = val.New(av, 32), val.New(bv, 32), val.New(uint64(cv), 8)
		want := g.ref(root).ZeroExt(32)

		var ch chain
		y := ch.render(root)
		var body strings.Builder
		for _, w := range ch.wires {
			fmt.Fprintf(&body, "    wire [%d:0] %s;\n", w.width-1, w.name)
		}
		fmt.Fprintf(&body, "    assign y = %s;\n", y)
		for i := len(ch.wires) - 1; i >= 0; i-- {
			fmt.Fprintf(&body, "    assign %s = %s;\n", ch.wires[i].name, ch.wires[i].text)
		}
		for _, form := range []string{"    assign y = " + root.text() + ";\n", body.String()} {
			src := `module t(
    input wire [31:0] a,
    input wire [31:0] b,
    input wire [7:0] c,
    output wire [31:0] y
);
` + form + "endmodule\n"
			got := settleY(t, src, g)
			if got.Uint() != want.Uint() {
				t.Fatalf("rtl evaluated y to %#x, val reference says %#x (a=%#x b=%#x c=%#x)\n%s",
					got.Uint(), want.Uint(), av, bv, cv, src)
			}
		}
	})
}

// TestUnsizedTernaryAdapts: a ternary whose arms are both unsized
// literals is itself unsized, as the checker types it and the simulator
// evaluates it, so it takes its sized partner's width. Treated as a
// 64-bit operand instead, the compare and the divide below give 1 and 0
// (and the shift cases 0 and 6).
func TestUnsizedTernaryAdapts(t *testing.T) {
	for _, tc := range []struct {
		expr string
		want uint64
	}{
		{"(a < ((c == 8'd0) ? 40 : 33))", 0},
		{"(((c == 8'd0) ? 5 : 6) + a)", 5},
		{"(a / ((c == 8'd0) ? 40 : 34))", 15},
		// A shift of an unsized literal by a sized amount is unsized:
		// 3 << 4 adapts to 5 bits (48 -> 16).
		{"(((3 << (c + 8'd3)) < 5'd20) ? 5'd1 : 5'd0)", 1},
		{"((3 << (c + 8'd3)) / 5'd7)", 2},
	} {
		src := "module t(input wire [4:0] a, input wire [7:0] c, output wire [4:0] y);\n" +
			"    assign y = " + tc.expr + ";\nendmodule\n"
		file, err := rtl.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		m, err := rtl.Elaborate(file.Module("t"), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Poke("a", val.New(31, 5)); err != nil {
			t.Fatal(err)
		}
		if err := m.Poke("c", val.New(1, 8)); err != nil {
			t.Fatal(err)
		}
		if err := m.Settle(); err != nil {
			t.Fatal(err)
		}
		if y, _ := m.Peek("y"); y.Uint() != tc.want {
			t.Errorf("%s with a=31, c=1: y = %d, want %d", tc.expr, y.Uint(), tc.want)
		}
	}
}

// settleY elaborates a generated module, drives its inputs and returns
// the settled output.
func settleY(t *testing.T, src string, g *exprGen) val.Value {
	t.Helper()
	file, err := rtl.Parse(src)
	if err != nil {
		t.Fatalf("generated Verilog does not parse: %v\n%s", err, src)
	}
	m, err := rtl.Elaborate(file.Module("t"), nil)
	if err != nil {
		t.Fatalf("generated Verilog does not elaborate: %v\n%s", err, src)
	}
	for name, v := range map[string]val.Value{"a": g.av, "b": g.bv, "c": g.cv} {
		if err := m.Poke(name, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Settle(); err != nil {
		t.Fatalf("settle: %v\n%s", err, src)
	}
	got, err := m.Peek("y")
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// chain renders an expression with every composite subexpression of
// source-fixed width bound to its own wire, innermost first.
type chain struct {
	wires []wire
}

type wire struct {
	name, text string
	width      int
}

func (c *chain) render(n node) string {
	kids := make([]string, len(n.kids))
	for i, k := range n.kids {
		kids[i] = c.render(k)
	}
	text := n.format(kids)
	// A wire of the exact width holds the value unchanged; an unsized
	// or $signed operand would lose its meaning behind one.
	if len(n.kids) == 0 || n.ew == 0 || n.unsized || n.signed {
		return text
	}
	name := fmt.Sprintf("w%d", len(c.wires))
	c.wires = append(c.wires, wire{name: name, text: text, width: n.ew})
	return name
}

// node is one generated subexpression: its operands and how to spell
// it around their Verilog text, plus the metadata the reference
// evaluation needs (the evaluator's isUnsized / isSignedOperand
// predicates, recomputed structurally at generation time, and a thunk
// that evaluates the subtree over val.Value).
type node struct {
	kids    []node
	format  func(kids []string) string
	unsized bool // mirrors the evaluator's isUnsized
	signed  bool // node is a direct $signed(...) wrapper
	w       int  // static upper bound on the result width
	ew      int  // exact result width, or 0 when it depends on the inputs
	eval    func(g *exprGen) val.Value
}

// text spells the subexpression.
func (n node) text() string {
	kids := make([]string, len(n.kids))
	for i, k := range n.kids {
		kids[i] = k.text()
	}
	return n.format(kids)
}

// leaf spells a node without operands.
func leaf(text string) func([]string) string {
	return func([]string) string { return text }
}

type exprGen struct {
	data       []byte
	pos        int
	av, bv, cv val.Value
}

func (g *exprGen) next() byte {
	if g.pos >= len(g.data) {
		return 0
	}
	b := g.data[g.pos]
	g.pos++
	return b
}

func (g *exprGen) ref(n node) val.Value { return n.eval(g) }

const maxDepth = 7

var binOps = []string{"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>", ">>>",
	"&&", "||", "==", "!=", "<", "<=", ">", ">="}

func (g *exprGen) gen(depth int) node {
	b := g.next()
	if depth >= maxDepth || g.pos >= len(g.data) {
		b = b % 5 // leaves only
	}
	switch b % 16 {
	case 0:
		return node{format: leaf("a"), w: 32, ew: 32, eval: func(g *exprGen) val.Value { return g.av }}
	case 1:
		return node{format: leaf("b"), w: 32, ew: 32, eval: func(g *exprGen) val.Value { return g.bv }}
	case 2:
		return node{format: leaf("c"), w: 8, ew: 8, eval: func(g *exprGen) val.Value { return g.cv }}
	case 3: // sized literal
		w := []int{1, 4, 8, 16, 32, 64}[g.next()%6]
		v := val.New(uint64(g.next())|uint64(g.next())<<8, w)
		return node{
			format: leaf(fmt.Sprintf("%d'h%x", w, v.Uint())),
			w:      w,
			ew:     w,
			eval:   func(*exprGen) val.Value { return v },
		}
	case 4: // unsized decimal literal: width 64 until a binary op adapts it
		v := val.New(uint64(g.next())|uint64(g.next())<<8, 64)
		return node{
			format:  leaf(fmt.Sprintf("%d", v.Uint())),
			unsized: true,
			w:       64,
			ew:      64,
			eval:    func(*exprGen) val.Value { return v },
		}
	case 5: // unary
		op := []string{"!", "~", "-"}[g.next()%3]
		x := g.gen(depth + 1)
		uw, ew := x.w, x.ew
		if op == "!" {
			uw, ew = 1, 1
		}
		return node{
			kids:    []node{x},
			format:  func(k []string) string { return "(" + op + k[0] + ")" },
			unsized: x.unsized,
			w:       uw,
			ew:      ew,
			eval: func(g *exprGen) val.Value {
				xv := x.eval(g)
				switch op {
				case "!":
					return val.Bool(!xv.IsTrue())
				case "~":
					return xv.Not()
				default:
					return xv.Neg()
				}
			},
		}
	case 6: // ternary
		c, th, el := g.gen(depth+1), g.gen(depth+1), g.gen(depth+1)
		// One unsized arm beside an arm of known width is taken at that
		// width, as the simulator takes it and synth emits it.
		switch {
		case th.unsized && !el.unsized && el.ew > 0:
			th = resized(th, el.ew)
		case el.unsized && !th.unsized && th.ew > 0:
			el = resized(el, th.ew)
		}
		return node{
			kids:    []node{c, th, el},
			format:  func(k []string) string { return "(" + k[0] + " ? " + k[1] + " : " + k[2] + ")" },
			unsized: th.unsized && el.unsized,
			w:       max(th.w, el.w),
			ew:      sameWidth(th.ew, el.ew),
			eval: func(g *exprGen) val.Value {
				if c.eval(g).IsTrue() {
					return th.eval(g)
				}
				return el.eval(g)
			},
		}
	case 7: // concat {hi, lo}; fall back to the first part past 64 bits
		hi, lo := g.gen(depth+1), g.gen(depth+1)
		if hi.w+lo.w > val.MaxWidth {
			return hi
		}
		return node{
			kids:   []node{hi, lo},
			format: func(k []string) string { return "{" + k[0] + ", " + k[1] + "}" },
			w:      hi.w + lo.w,
			ew:     known(hi.ew, lo.ew, hi.ew+lo.ew),
			eval:   func(g *exprGen) val.Value { return val.Cat(hi.eval(g), lo.eval(g)) },
		}
	case 8: // replication {n{x}}
		n := 1 + int(g.next()%3)
		x := g.gen(depth + 1)
		if n*x.w > val.MaxWidth {
			return x
		}
		return node{
			kids:   []node{x},
			format: func(k []string) string { return fmt.Sprintf("{%d{%s}}", n, k[0]) },
			w:      n * x.w,
			ew:     n * x.ew,
			eval: func(g *exprGen) val.Value {
				parts := make([]val.Value, n)
				for i := range parts {
					parts[i] = x.eval(g)
				}
				return val.Cat(parts...)
			},
		}
	case 9: // part-select on a signal
		lo := int(g.next() % 32)
		hi := lo + int(g.next())%(32-lo)
		return node{
			format: leaf(fmt.Sprintf("a[%d:%d]", hi, lo)),
			w:      hi - lo + 1,
			ew:     hi - lo + 1,
			eval:   func(g *exprGen) val.Value { return g.av.Slice(hi, lo) },
		}
	case 10: // bit-select on a signal, including out-of-range indices
		idx := int(g.next() % 40)
		return node{
			format: leaf(fmt.Sprintf("b[%d]", idx)),
			w:      1,
			ew:     1,
			eval:   func(g *exprGen) val.Value { return val.New(g.bv.Bit(idx%64), 1) },
		}
	default: // binary, optionally with a $signed-wrapped operand
		op := binOps[int(g.next())%len(binOps)]
		l, r := g.gen(depth+1), g.gen(depth+1)
		switch g.next() % 4 {
		case 1:
			l = signedWrap(l)
		case 2:
			r = signedWrap(r)
		}
		shift := op == "<<" || op == ">>" || op == ">>>"
		signed := l.signed || r.signed
		// Result-width bound: comparisons and logical ops yield 1 bit;
		// shifts are self-determined by the left side; everything else
		// takes the left width, which adaptation can raise to the right.
		// The exact width is the left operand's after adaptation: the
		// right one's when an unsized left operand is adapted to it.
		bw, ew := max(l.w, r.w), l.ew
		if l.unsized {
			ew = r.ew
		}
		switch op {
		case "&&", "||", "==", "!=", "<", "<=", ">", ">=":
			bw, ew = 1, 1
		case "<<", ">>", ">>>":
			bw, ew = l.w, l.ew
		}
		// A shift is sized by its left operand alone.
		unsized := l.unsized && r.unsized
		if shift {
			unsized = l.unsized
		}
		return node{
			kids:    []node{l, r},
			format:  func(k []string) string { return "(" + k[0] + " " + op + " " + k[1] + ")" },
			unsized: unsized,
			w:       bw,
			ew:      ew,
			eval: func(g *exprGen) val.Value {
				lv, rv := l.eval(g), r.eval(g)
				if lv.Width() != rv.Width() && !shift {
					switch {
					case l.unsized:
						lv = val.New(lv.Uint(), rv.Width())
					case r.unsized:
						rv = val.New(rv.Uint(), lv.Width())
					}
				}
				return applyBin(op, lv, rv, signed)
			},
		}
	}
}

// resized spells x the way synth emits a ternary's unsized arm beside
// a sized one, (w'd0 | (x)): x taken at w bits.
func resized(x node, w int) node {
	return node{
		kids:   []node{x},
		format: func(k []string) string { return fmt.Sprintf("(%d'd0 | (%s))", w, k[0]) },
		w:      w,
		ew:     w,
		eval:   func(g *exprGen) val.Value { return val.New(x.eval(g).Uint(), w) },
	}
}

// sameWidth is the exact width of a choice between two operands: known
// only when both are known and equal.
func sameWidth(a, b int) int {
	if a != b {
		return 0
	}
	return a
}

// known is w when both operand widths are known, else 0.
func known(a, b, w int) int {
	if a == 0 || b == 0 {
		return 0
	}
	return w
}

func signedWrap(x node) node {
	return node{
		kids:   []node{x},
		format: func(k []string) string { return "$signed(" + k[0] + ")" },
		signed: true,
		w:      x.w,
		ew:     x.ew,
		eval:   x.eval,
	}
}

// applyBin mirrors the evaluator's operator dispatch over val.Value.
func applyBin(op string, lv, rv val.Value, signed bool) val.Value {
	switch op {
	case "+":
		return lv.Add(rv)
	case "-":
		return lv.Sub(rv)
	case "*":
		return lv.Mul(rv)
	case "/":
		if signed {
			return lv.DivS(rv)
		}
		return lv.DivU(rv)
	case "%":
		if signed {
			return lv.RemS(rv)
		}
		return lv.RemU(rv)
	case "&":
		return lv.And(rv)
	case "|":
		return lv.Or(rv)
	case "^":
		return lv.Xor(rv)
	case "<<":
		return lv.Shl(rv)
	case ">>":
		return lv.ShrU(rv)
	case ">>>":
		return lv.ShrS(rv)
	case "&&":
		return val.Bool(lv.IsTrue() && rv.IsTrue())
	case "||":
		return val.Bool(lv.IsTrue() || rv.IsTrue())
	case "==":
		return lv.EqV(rv)
	case "!=":
		return lv.NeV(rv)
	case "<":
		if signed {
			return lv.LtS(rv)
		}
		return lv.LtU(rv)
	case "<=":
		if signed {
			return lv.LeS(rv)
		}
		return lv.LeU(rv)
	case ">":
		if signed {
			return lv.GtS(rv)
		}
		return lv.GtU(rv)
	default: // ">="
		if signed {
			return lv.GeS(rv)
		}
		return lv.GeU(rv)
	}
}
