package sim

import (
	"fmt"
	"testing"

	"xpdl/internal/val"
)

// FuzzEngineExpr is a differential fuzzer for expression evaluation
// across the simulator's engines. From the fuzz input it grows a random
// well-typed XPDL expression over four inputs of odd and even widths
// (uint<5>, uint<13>, uint<32>, uint<64>): arithmetic, bitwise and
// logical operators, shifts, unsigned and signed comparisons, signed
// builtins, slices of inputs and of subexpressions, ext/sext,
// concatenation, mulfull, ternaries, and unsized literal trees that
// adapt to their sized partner's width. The expression sits in a
// one-stage pipe that writes it to a memory; four instructions run it
// on input vectors derived from the fuzz arguments, and every engine in
// Engines() must leave the same memory contents, cycle count and
// firing count. The fixed-workload differential suite never reaches
// odd widths or unsized-literal adaptation, and the vm's compile-time
// folding and immediate forms are exercised nowhere else.
func FuzzEngineExpr(f *testing.F) {
	f.Add([]byte{4, 0, 1, 0, 3}, uint64(5), uint64(7))
	f.Add([]byte{1, 5, 4, 2, 8, 0, 2, 1, 9, 3}, uint64(0xffffffff), uint64(1))
	f.Add([]byte{0, 2, 5, 7, 3, 5, 0, 6, 1, 0, 0xff, 0x80}, uint64(0x80000000), uint64(1<<63))
	f.Add([]byte{3, 9, 11, 0, 13, 4, 12, 1, 7, 6, 0, 2, 2}, uint64(42), uint64(0))
	f.Add([]byte{2, 10, 12, 8, 6, 1, 2, 4, 0, 7, 0x7f, 9, 3, 3}, uint64(0x1234_5678_9abc_def0), uint64(3))
	f.Add([]byte{1, 6, 5, 3, 0, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint64(1<<63-1), uint64(0xfffffffffffffffe))
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
				want = got
				continue
			}
			if got != want {
				t.Fatalf("%s disagrees with %s: %+v vs %+v (x=%#x y=%#x)\n%s",
					engine, Engines()[0], got, want, x, y, src)
			}
		}
	})
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
	case 7: // ternary
		return "(" + g.cond(depth+1) + " ? " + g.uint(w, depth+1) + " : " + g.uint(w, depth+1) + ")"
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
// and binary operators, evaluated at 64 bits until a sized partner
// adapts the result.
func (g *exprGen) unsized(depth int) string {
	b := g.next()
	if g.leafOnly(depth) {
		b %= 2
	}
	switch b % 4 {
	case 0:
		return fmt.Sprintf("%d", g.next())
	case 1:
		v := uint64(g.next())<<56 | uint64(g.next())<<8 | uint64(g.next())
		return fmt.Sprintf("0x%x", v)
	case 2:
		op := []string{"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>"}[g.next()%10]
		return "(" + g.unsized(depth+1) + " " + op + " " + g.unsized(depth+1) + ")"
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
