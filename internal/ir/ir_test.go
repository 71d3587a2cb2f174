package ir

import (
	"testing"

	"xpdl/internal/check"
	"xpdl/internal/core"
	"xpdl/internal/pdl/parser"
)

func lower(t *testing.T, src string) *Design {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := check.Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return Lower(info, core.TranslateProgram(info))
}

func TestLivenessCarriesAcrossStages(t *testing.T) {
	// x defined in stage 0, used in stage 2: boundaries feeding stages 1
	// and 2 must each carry its 16 bits, plus the pipe arg (8 bits) to
	// its last use in stage 0 only.
	d := lower(t, `
pipe p(i: uint<8>)[] {
    x = ext(i, 16);
    ---
    skip;
    ---
    y = x + 16'd1;
}`)
	p := d.Pipelines[0]
	if len(p.Body) != 3 {
		t.Fatalf("stages = %d", len(p.Body))
	}
	if p.Body[0].InRegBits != 0 {
		t.Errorf("stage 0 register = %d bits, want 0", p.Body[0].InRegBits)
	}
	for i := 1; i <= 2; i++ {
		if p.Body[i].InRegBits != 16 {
			t.Errorf("stage %d register = %d bits, want 16 (x carried)", i, p.Body[i].InRegBits)
		}
	}
}

func TestArgCarriedToLastUse(t *testing.T) {
	d := lower(t, `
pipe p(i: uint<8>)[] {
    skip;
    ---
    y = i + 1;
    ---
    skip;
}`)
	p := d.Pipelines[0]
	if p.Body[1].InRegBits != 8 {
		t.Errorf("arg not carried to its use: %d bits", p.Body[1].InRegBits)
	}
	if p.Body[2].InRegBits != 0 {
		t.Errorf("arg carried past its last use: %d bits", p.Body[2].InRegBits)
	}
}

func TestOpClassification(t *testing.T) {
	d := lower(t, `
extern func blackbox(x: uint<32>) -> uint<32>;
pipe p(i: uint<32>)[] {
    a = i + 1;
    b = i * 3;
    c = i / 2;
    d0 = i << 4;
    e = i == 7;
    f = i & 15;
    g = e ? a : b;
    h = blackbox(i);
    j = lts(i, a);
    k = mulfull(i, b);
}`)
	st := d.Pipelines[0].Body[0]
	wantMin := map[check.CostOp]int{
		check.CostAdd: 1, check.CostMul: 2, check.CostDiv: 1, check.CostShift: 1, check.CostCmp: 2, check.CostLogic: 1, check.CostMux: 1,
	}
	for class, n := range wantMin {
		if st.Ops[class].Count < n {
			t.Errorf("%s count = %d, want >= %d", class, st.Ops[class].Count, n)
		}
	}
	if st.Externs["blackbox"] != 1 {
		t.Errorf("extern count = %d", st.Externs["blackbox"])
	}
}

func TestExceptionStructureLowered(t *testing.T) {
	d := lower(t, `
memory m: uint<8>[4] with basic, comb_read;
pipe p(i: uint<8>)[m] {
    acquire(m[i[1:0]], W);
    m[i[1:0]] <- i;
    if (i == 0) { throw(4'd1, i); }
commit:
    skip;
    ---
    release(m[i[1:0]]);
except(c: uint<4>, v: uint<8>):
    skip;
}`)
	p := d.Pipelines[0]
	if !p.Translated {
		t.Fatal("not translated")
	}
	if p.EArgBits != 12 {
		t.Errorf("earg bits = %d, want 12", p.EArgBits)
	}
	if len(p.Commit) != 1 {
		t.Errorf("commit tail stages = %d, want 1", len(p.Commit))
	}
	// Except chain: padding (1) + rollback + except body.
	if len(p.Except) != 3 {
		t.Errorf("except chain stages = %d, want 3", len(p.Except))
	}
	fork := p.Body[len(p.Body)-1]
	if !fork.HasFork || fork.Throws != 1 {
		t.Errorf("fork stage: hasFork=%v throws=%d", fork.HasFork, fork.Throws)
	}
	if len(p.AbortMems) != 1 || p.AbortMems[0] != "m" {
		t.Errorf("abort mems = %v", p.AbortMems)
	}
	// Exception-chain stages carry lef+eargs via boundary bits.
	if p.Except[0].InRegBits == 0 {
		t.Error("except chain boundary carries no bits")
	}
}

func TestUntranslatedHasNoExceptionOverhead(t *testing.T) {
	d := lower(t, `pipe p(i: uint<8>)[] { y = i; --- z = y; }`)
	p := d.Pipelines[0]
	if p.Translated || len(p.Except) != 0 || len(p.Commit) != 0 {
		t.Error("plain pipe acquired exception structure")
	}
	for _, s := range p.Body {
		if s.GefGuarded || s.HasFork {
			t.Error("plain pipe has gef/fork logic")
		}
	}
	// y (8 bits) carried into stage 1; no lef bit.
	if p.Body[1].InRegBits != 8 {
		t.Errorf("boundary bits = %d, want 8", p.Body[1].InRegBits)
	}
}

func TestInLanguageFunctionsInlined(t *testing.T) {
	d := lower(t, `
func double(a: uint<8>) -> uint<8> {
    b = a + a;
    return b;
}
pipe p(i: uint<8>)[] { y = double(i); }`)
	st := d.Pipelines[0].Body[0]
	if st.Externs["double"] != 1 {
		// In-language functions are currently counted as extern-like
		// blocks; either accounting is acceptable, but it must appear.
		if st.Ops[check.CostAdd].Count == 0 {
			t.Error("function body contributes no hardware")
		}
	}
}

func TestStageCountsStable(t *testing.T) {
	d := lower(t, `
pipe p(i: uint<8>)[] {
    a = i;
    ---
    b = a;
    ---
    c = b;
    ---
    e = c;
    ---
    f = e;
}`)
	if got := len(d.Pipelines[0].Stages()); got != 5 {
		t.Errorf("stages = %d", got)
	}
}
