package check

import (
	"strings"
	"testing"

	"xpdl/internal/pdl/ast"
	"xpdl/internal/pdl/parser"
)

// checkSrc parses and checks, returning the Info or failing the test.
func checkSrc(t *testing.T, src string) *Info {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse failed:\n%v", err)
	}
	info, err := Check(prog)
	if err != nil {
		t.Fatalf("check failed:\n%v", err)
	}
	return info
}

// checkErr parses and checks, expecting the checker (not the parser) to
// reject the program with a message containing want.
func checkErr(t *testing.T, src, want string) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse failed:\n%v", err)
	}
	_, err = Check(prog)
	if err == nil {
		t.Fatalf("check unexpectedly succeeded (want error containing %q)", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q\ndoes not contain %q", err.Error(), want)
	}
}

// A minimal well-formed XPDL pipeline with final blocks, used as the
// template for rule tests.
const okXPDL = `
const ERR = 5'd2;
memory rf: uint<32>[32] with basic, comb_read;
memory imem: uint<32>[64] with nolock, sync_read;

pipe cpu(pc: uint<32>)[rf, imem] {
    insn <- imem[pc];
    ---
    rd = insn[11:7];
    if (insn == 0) { throw(ERR); }
    acquire(rf[rd], W);
    rf[rd] <- insn;
commit:
    release(rf[rd]);
except(code: uint<5>):
    call cpu(64);
}
`

func TestAcceptsWellFormedXPDL(t *testing.T) {
	info := checkSrc(t, okXPDL)
	pi := info.Pipes["cpu"]
	if pi.BodyStages != 2 || pi.CommitStages != 1 || pi.ExceptStages != 1 {
		t.Errorf("stage counts = %d/%d/%d", pi.BodyStages, pi.CommitStages, pi.ExceptStages)
	}
	if len(pi.WriteLocks) != 1 || pi.WriteLocks[0] != "rf[rd]" {
		t.Errorf("write locks = %v", pi.WriteLocks)
	}
	if c := info.Consts["ERR"]; c.Value != 2 || c.Width != 5 {
		t.Errorf("const ERR = %+v", c)
	}
}

// --- Base PDL analyses -----------------------------------------------------

func TestUndefinedVariable(t *testing.T) {
	checkErr(t, `pipe p(x: uint<8>)[] { y = z; }`, `undefined name "z"`)
}

func TestLatchedValueNotAvailableSameStage(t *testing.T) {
	src := `
memory m: uint<8>[4] with nolock, sync_read;
pipe p(x: uint<2>)[m] {
    v <- m[x];
    w = v + 1;
}`
	checkErr(t, src, "not available until")
}

func TestLatchedValueAvailableNextStage(t *testing.T) {
	checkSrc(t, `
memory m: uint<8>[4] with nolock, sync_read;
pipe p(x: uint<2>)[m] {
    v <- m[x];
    ---
    w = v + 1;
}`)
}

func TestSyncReadMustBeLatched(t *testing.T) {
	src := `
memory m: uint<8>[4] with nolock, sync_read;
pipe p(x: uint<2>)[m] {
    v = m[x];
}`
	checkErr(t, src, "sync-read")
}

func TestCombReadSameStage(t *testing.T) {
	checkSrc(t, `
memory m: uint<8>[4] with nolock, comb_read;
pipe p(x: uint<2>)[m] {
    v = m[x];
    w = v + 1;
}`)
}

func TestWidthMismatch(t *testing.T) {
	checkErr(t, `pipe p(x: uint<8>, y: uint<16>)[] { z = x + y; }`, "width mismatch")
}

func TestLiteralAdoptsWidth(t *testing.T) {
	checkSrc(t, `pipe p(x: uint<8>)[] { z = x + 200; }`)
}

func TestIfConditionMustBeBool(t *testing.T) {
	checkErr(t, `pipe p(x: uint<8>)[] { if (x + 1) { y = x; } }`, "must be bool")
}

func TestUnknownMemory(t *testing.T) {
	checkErr(t, `pipe p(x: uint<8>)[] { v = zap[x]; }`, `unknown memory "zap"`)
}

func TestUnconnectedMemory(t *testing.T) {
	src := `
memory m: uint<8>[4] with nolock, comb_read;
pipe p(x: uint<2>)[] { v = m[x]; }`
	checkErr(t, src, "not connected")
}

func TestSliceBoundsChecked(t *testing.T) {
	checkErr(t, `pipe p(x: uint<8>)[] { y = x[9:0]; }`, "exceeds uint<8>")
	checkErr(t, `pipe p(x: uint<8>)[] { y = x[0:3]; }`, "inverted slice")
}

func TestSliceWidthInference(t *testing.T) {
	// x[7:4] is uint<4>; adding uint<4> works, uint<8> fails.
	checkSrc(t, `pipe p(x: uint<8>, y: uint<4>)[] { z = x[7:4] + y; }`)
	checkErr(t, `pipe p(x: uint<8>)[] { z = x[7:4] + x; }`, "width mismatch")
}

func TestRecordFieldAccess(t *testing.T) {
	src := `
extern func dec(i: uint<32>) -> (op: uint<5>, rd: uint<5>);
pipe p(x: uint<32>)[] {
    d = dec(x);
    o = d.op;
    bad = d.nope;
}`
	checkErr(t, src, `no field "nope"`)
}

func TestConstEvaluation(t *testing.T) {
	info := checkSrc(t, `
const A = 3;
const B = A * 4 + 1;
const C = B == 13;
pipe p(x: uint<8>)[] { y = x; }
`)
	if info.Consts["B"].Value != 13 {
		t.Errorf("B = %+v", info.Consts["B"])
	}
	if !info.Consts["C"].Bool || !info.Consts["C"].IsBool {
		t.Errorf("C = %+v", info.Consts["C"])
	}
}

func TestBuiltins(t *testing.T) {
	checkSrc(t, `
pipe p(x: uint<8>, y: uint<8>)[] {
    a = ext(x, 16);
    b = sext(x, 32);
    c = cat(x, y);
    d = lts(x, y);
    e = shra(x, y);
    f = divs(x, y);
    g = mulfull(x, y);
    h = a + 16'd1;
    i = c + 16'd2;
    j = g + 16'd3;
}`)
	checkErr(t, `pipe p(x: uint<8>)[] { a = ext(x, 0); }`, "between 1 and 64")
	checkErr(t, `pipe p(x: uint<8>)[] { a = cat(x); }`, "at least two")
}

func TestFunctionChecking(t *testing.T) {
	checkSrc(t, `
func inc(a: uint<8>) -> uint<8> {
    b = a + 1;
    return b;
}
pipe p(x: uint<8>)[] { y = inc(x); }`)
	checkErr(t, `func f(a: uint<8>) -> uint<8> { b = a; }`, "no return")
	checkErr(t, `func f(a: uint<8>) -> bool { return a; }`, "returns uint<8>")
}

// --- Lock discipline --------------------------------------------------------

func TestWriteWithoutLock(t *testing.T) {
	src := `
memory m: uint<8>[4] with basic, comb_read;
pipe p(x: uint<2>)[m] { m[x] <- 1; }`
	checkErr(t, src, "requires an owned write lock")
}

func TestBlockWithoutReserve(t *testing.T) {
	src := `
memory m: uint<8>[4] with basic, comb_read;
pipe p(x: uint<2>)[m] { block(m[x]); }`
	checkErr(t, src, "without a prior reserve")
}

func TestReleaseWithoutReserve(t *testing.T) {
	src := `
memory m: uint<8>[4] with basic, comb_read;
pipe p(x: uint<2>)[m] { release(m[x]); }`
	checkErr(t, src, "without an active reservation")
}

func TestUnreleasedLock(t *testing.T) {
	src := `
memory m: uint<8>[4] with basic, comb_read;
pipe p(x: uint<2>)[m] { acquire(m[x], W); m[x] <- 1; }`
	checkErr(t, src, "never released")
}

func TestReadNeedsOwnership(t *testing.T) {
	src := `
memory m: uint<8>[4] with basic, comb_read;
pipe p(x: uint<2>)[m] { v = m[x]; }`
	checkErr(t, src, "requires a lock reservation")
	// Reserved but never blocked on a basic lock: still not readable.
	src2 := `
memory m: uint<8>[4] with basic, comb_read;
pipe p(x: uint<2>)[m] {
    reserve(m[x], R);
    v = m[x];
    ---
    block(m[x]);
    release(m[x]);
}`
	checkErr(t, src2, "requires an owned lock")
}

func TestReserveBlockReleaseAcrossStages(t *testing.T) {
	checkSrc(t, `
memory m: uint<8>[4] with basic, comb_read;
pipe p(x: uint<2>)[m] {
    reserve(m[x], W);
    ---
    block(m[x]);
    m[x] <- 7;
    release(m[x]);
}`)
}

func TestDoubleReserve(t *testing.T) {
	src := `
memory m: uint<8>[4] with basic, comb_read;
pipe p(x: uint<2>)[m] {
    reserve(m[x], W);
    reserve(m[x], W);
    ---
    block(m[x]);
    release(m[x]);
}`
	checkErr(t, src, "reserved twice")
}

func TestVolatileCannotBeLocked(t *testing.T) {
	src := `
volatile v: uint<8>;
pipe p(x: uint<8>)[v] { acquire(v, W); }`
	checkErr(t, src, "cannot be locked")
}

func TestNolockMemoryIsReadOnly(t *testing.T) {
	src := `
memory m: uint<8>[4] with nolock, comb_read;
pipe p(x: uint<2>)[m] { m[x] <- 1; }`
	checkErr(t, src, "read-only")
}

// --- XPDL Rules 1-4 ----------------------------------------------------------

func TestRule3WriteLockReleasedInBody(t *testing.T) {
	src := `
memory rf: uint<8>[4] with basic, comb_read;
pipe p(x: uint<2>)[rf] {
    acquire(rf[x], W);
    rf[x] <- 1;
    release(rf[x]);
    if (x == 0) { throw(5'd1); }
commit:
    skip;
except(c: uint<5>):
    skip;
}`
	checkErr(t, src, "Rule 3")
}

func TestRule3WriteLockReleasedInExcept(t *testing.T) {
	src := `
memory rf: uint<8>[4] with basic, comb_read;
pipe p(x: uint<2>)[rf] {
    acquire(rf[x], W);
    rf[x] <- 1;
    if (x == 0) { throw(5'd1); }
commit:
    skip;
except(c: uint<5>):
    release(rf[x]);
}`
	checkErr(t, src, "Rule 3")
}

func TestRule4NoAcquireInCommit(t *testing.T) {
	src := `
memory rf: uint<8>[4] with basic, comb_read;
pipe p(x: uint<2>)[rf] {
    if (x == 0) { throw(5'd1); }
commit:
    acquire(rf[x], W);
    release(rf[x]);
except(c: uint<5>):
    skip;
}`
	checkErr(t, src, "Rule 4")
}

func TestRule4NoCallInCommit(t *testing.T) {
	src := `
pipe p(x: uint<2>)[] {
    if (x == 0) { throw(5'd1); }
commit:
    call p(x);
except(c: uint<5>):
    skip;
}`
	checkErr(t, src, "Rule 4")
}

func TestRule4NoMemWriteInCommit(t *testing.T) {
	src := `
memory rf: uint<8>[4] with basic, comb_read;
pipe p(x: uint<2>)[rf] {
    acquire(rf[x], W);
    if (x == 0) { throw(5'd1); }
commit:
    rf[x] <- 1;
    release(rf[x]);
except(c: uint<5>):
    skip;
}`
	checkErr(t, src, "Rule 4")
}

func TestRule2NoSpecInFinalBlocks(t *testing.T) {
	src := `
pipe p(x: uint<8>)[] {
    spec_barrier();
    if (x == 0) { throw(5'd1); }
commit:
    spec_check();
except(c: uint<5>):
    skip;
}`
	checkErr(t, src, "Rule 2")
}

func TestRule2NoSpecCallInExcept(t *testing.T) {
	src := `
pipe p(x: uint<8>)[] {
    spec_barrier();
    if (x == 0) { throw(5'd1); }
commit:
    skip;
except(c: uint<5>):
    s <- spec_call p(x);
}`
	checkErr(t, src, "Rule 2")
}

func TestRule1aExceptLockReleased(t *testing.T) {
	src := `
memory csr: uint<8>[4] with basic, comb_read;
pipe p(x: uint<2>)[csr] {
    if (x == 0) { throw(5'd1); }
commit:
    skip;
except(c: uint<5>):
    acquire(csr[0], W);
    csr[0] <- 1;
}`
	checkErr(t, src, "Rule 1a")
}

func TestRule1cRecursiveCallLastStageOnly(t *testing.T) {
	src := `
pipe p(x: uint<8>)[] {
    if (x == 0) { throw(5'd1); }
commit:
    skip;
except(c: uint<5>):
    call p(x);
    ---
    y = c;
}`
	checkErr(t, src, "Rule 1c")
}

func TestRule1bNoAsyncReadAtExceptEnd(t *testing.T) {
	src := `
memory m: uint<8>[4] with nolock, sync_read;
pipe p(x: uint<2>)[m] {
    if (x == 0) { throw(5'd1); }
commit:
    skip;
except(c: uint<5>):
    y <- m[0];
}`
	checkErr(t, src, "Rule 1b")
}

func TestThrowWithoutExceptBlock(t *testing.T) {
	checkErr(t, `pipe p(x: uint<8>)[] { throw(5'd1); }`, "no except block")
}

func TestThrowArgumentMismatch(t *testing.T) {
	src := `
pipe p(x: uint<8>)[] {
    if (x == 0) { throw(5'd1, 5'd2); }
commit:
    skip;
except(c: uint<5>):
    skip;
}`
	checkErr(t, src, "throw passes 2 arguments")
}

func TestThrowBeforeBarrierRejected(t *testing.T) {
	src := `
pipe p(x: uint<8>)[] {
    s <- spec_call p(x + 1);
    if (x == 0) { throw(5'd1); }
    ---
    spec_barrier();
    verify(s);
commit:
    skip;
except(c: uint<5>):
    skip;
}`
	checkErr(t, src, "throw before spec_barrier")
}

func TestBodyVarsInvisibleInExcept(t *testing.T) {
	src := `
pipe p(x: uint<8>)[] {
    tmp = x + 1;
    if (x == 0) { throw(5'd1); }
commit:
    skip;
except(c: uint<5>):
    y = tmp;
}`
	checkErr(t, src, `undefined name "tmp"`)
}

func TestExceptArgsVisibleInExcept(t *testing.T) {
	checkSrc(t, `
pipe p(x: uint<8>)[] {
    if (x == 0) { throw(5'd1); }
commit:
    skip;
except(c: uint<5>):
    y = c + 5'd1;
}`)
}

// --- Volatile rules ----------------------------------------------------------

func TestVolatileWriteOnlyInExcept(t *testing.T) {
	src := `
volatile pend: uint<8>;
pipe p(x: uint<8>)[pend] {
    pend <- 0;
}`
	checkErr(t, src, "only be written in final blocks")
}

func TestVolatileWriteNotInCommit(t *testing.T) {
	src := `
volatile pend: uint<8>;
pipe p(x: uint<8>)[pend] {
    if (x == 0) { throw(5'd1); }
commit:
    pend <- 0;
except(c: uint<5>):
    skip;
}`
	checkErr(t, src, "Rule 4")
}

func TestVolatileWriteInExceptOK(t *testing.T) {
	checkSrc(t, `
volatile pend: uint<8>;
pipe p(x: uint<8>)[pend] {
    if (pend != 0) { throw(5'd1); }
commit:
    skip;
except(c: uint<5>):
    pend <- 0;
}`)
}

func TestVolatileReadInSpeculativeRegion(t *testing.T) {
	src := `
volatile pend: uint<8>;
pipe p(x: uint<8>)[pend] {
    s <- spec_call p(x + 1);
    v = pend;
    ---
    spec_barrier();
    verify(s);
    if (v != 0) { throw(5'd1); }
commit:
    skip;
except(c: uint<5>):
    pend <- 0;
}`
	checkErr(t, src, "speculative region")
}

func TestVolatileReadAfterBarrierOK(t *testing.T) {
	checkSrc(t, `
volatile pend: uint<8>;
pipe p(x: uint<8>)[pend] {
    s <- spec_call p(x + 1);
    ---
    spec_barrier();
    verify(s);
    v = pend;
    if (v != 0) { throw(5'd1); }
commit:
    skip;
except(c: uint<5>):
    pend <- 0;
}`)
}

// --- Speculation and calls ----------------------------------------------------

func TestSpecCallTargetsSelf(t *testing.T) {
	src := `
pipe q(x: uint<8>)[] { y = x; }
pipe p(x: uint<8>)[q] { s <- spec_call q(x); }`
	checkErr(t, src, "must target the same pipeline")
}

func TestVerifyNeedsHandle(t *testing.T) {
	checkErr(t, `pipe p(x: uint<8>)[] { verify(x); }`, "needs a speculation handle")
}

func TestCallArgCount(t *testing.T) {
	checkErr(t, `pipe p(x: uint<8>)[] { call p(x, x); }`, "passes 2 arguments")
}

func TestSubPipelineResultBinding(t *testing.T) {
	checkSrc(t, `
pipe div(n: uint<32>, d: uint<32>) -> uint<32> [] {
    q = n / d;
    return q;
}
pipe cpu(pc: uint<32>)[div] {
    r <- call div(pc, pc);
    ---
    y = r + 1;
}`)
}

func TestSubPipelineResultNotAvailableSameStage(t *testing.T) {
	src := `
pipe div(n: uint<32>, d: uint<32>) -> uint<32> [] {
    q = n / d;
    return q;
}
pipe cpu(pc: uint<32>)[div] {
    r <- call div(pc, pc);
    y = r + 1;
}`
	checkErr(t, src, "not available until")
}

func TestReturnOutsideResultPipe(t *testing.T) {
	checkErr(t, `pipe p(x: uint<8>)[] { return x; }`, "does not declare a result")
}

func TestShadowingModuleRejected(t *testing.T) {
	src := `
memory m: uint<8>[4] with nolock, comb_read;
pipe p(x: uint<8>)[m] { m = x; }`
	checkErr(t, src, "shadows a module")
}

func TestDuplicateDeclarations(t *testing.T) {
	checkErr(t, `
memory m: uint<8>[4] with nolock, comb_read;
volatile m: uint<8>;
pipe p(x: uint<8>)[] { y = x; }`, "redeclared")
}

func TestFigure1StyleProcessorChecks(t *testing.T) {
	// The shape of the paper's Figure 1 (base PDL, no exceptions).
	checkSrc(t, `
extern func alu(op: uint<4>, a: uint<32>, b: uint<32>) -> uint<32>;
extern func calc_npc(pc: uint<32>, insn: uint<32>) -> uint<32>;
extern func isStore(insn: uint<32>) -> bool;
extern func isLoad(insn: uint<32>) -> bool;

memory rf: uint<32>[32] with bypass, comb_read;
memory imem: uint<32>[1024] with nolock, sync_read;
memory dmem: uint<32>[1024] with bypass, sync_read;

pipe cpu(pc: uint<32>)[rf, imem, dmem] {
    spec_check();
    insn <- imem[pc[9:0]];
    ---
    spec_check();
    s <- spec_call cpu(pc + 1);
    rs1 = insn[19:15];
    rd = insn[11:7];
    acquire(rf[ext(rs1, 5)], R);
    alu_arg1 = rf[ext(rs1, 5)];
    release(rf[ext(rs1, 5)]);
    reserve(rf[ext(rd, 5)], W);
    ---
    spec_barrier();
    alu_out = alu(insn[3:0], alu_arg1, alu_arg1);
    npc = calc_npc(pc, insn);
    if (npc == pc + 1) { verify(s); }
    else { invalidate(s); call cpu(npc); }
    ---
    addr = alu_out[9:0];
    acquire(dmem[addr], W);
    if (isStore(insn)) { dmem[addr] <- alu_arg1; }
    if (isLoad(insn)) { dmem_out <- dmem[addr]; }
    else { dmem_out = alu_out; }
    release(dmem[addr]);
    ---
    block(rf[ext(rd, 5)]);
    rf[ext(rd, 5)] <- dmem_out;
    release(rf[ext(rd, 5)]);
}`)
}

// TestTypeTable: Info.Types holds every expression's checked type and
// the value of every constant operand the checker folds. A shift has
// its left operand's type, so a shifted unsized literal stays unsized.
func TestTypeTable(t *testing.T) {
	info := checkSrc(t, `
const HI = 6;
pipe p(x: uint<8>, a: uint<5>)[] {
    s = 3 << a;
    y = x[HI+1:2];
    z = sext(x, 16);
    q = (x == 8'd0 ? 40 : x);
}`)
	body := info.Prog.Pipes[0].Body
	rhs := func(i int) ast.Expr { return body[i].(*ast.Assign).RHS }
	if shl := rhs(0); !info.Unsized(shl) {
		t.Errorf("3 << a has type %s, want unsized", info.TypeOf(shl))
	}
	sl := rhs(1).(*ast.Slice)
	if got := info.TypeOf(sl); got.Width != 6 {
		t.Errorf("x[HI+1:2] has type %s, want uint<6>", got)
	}
	if hi, lo := info.IntValue(sl.Hi), info.IntValue(sl.Lo); hi != 7 || lo != 2 {
		t.Errorf("slice bounds fold to [%d:%d], want [7:2]", hi, lo)
	}
	if w := info.IntValue(rhs(2).(*ast.CallExpr).Args[1]); w != 16 {
		t.Errorf("sext width folds to %d, want 16", w)
	}
	if then, els := info.ArmWidths(rhs(3).(*ast.Ternary)); then != 8 || els != 0 {
		t.Errorf("arm widths %d, %d; want 8, 0", then, els)
	}
	if got := info.TypeOf(ast.NewEArgRef(body[0].StmtPos(), 0)); got.Kind != ast.TInvalid {
		t.Errorf("an expression the checker never saw has type %s, want TInvalid", got)
	}
	if len(warnsWithCode(analyzeWarn(t, `
const HI = 3;
pipe p(x: uint<8>)[] { y = x[HI:0]; }`), "W-DEAD-CONST")) != 0 {
		t.Error("a constant used only as a slice bound is reported unused")
	}
}

// TestUnsizedOperandRules: the places where an unsized value has no
// well-defined width are rejected.
func TestUnsizedOperandRules(t *testing.T) {
	checkErr(t, `pipe p(x: uint<8>)[] { y = shra(40, x); }`, "shra needs a sized first operand")
	checkErr(t, `pipe p(x: uint<8>)[] { y = (x + 1)[7:0]; z = (3 << x)[64:0]; }`, "exceeds uint<64>")
	checkErr(t, `
extern func dec(i: uint<32>) -> (op: uint<5>, rd: uint<5>);
pipe p(x: uint<32>)[] { d = (x == 0 ? 5 : dec(x)); }`, "ternary arms disagree")
}

// TestConstFoldMatchesEngines: constants fold with the engines' width
// rule and arithmetic. An unsized operand is compared at its sized
// partner's width (40 is 8 at 5 bits), a shift amount is taken modulo
// the width (internal/val), and a shift keeps its left operand's type.
func TestConstFoldMatchesEngines(t *testing.T) {
	info := checkSrc(t, `
const LT = 40 < 5'd20;
const S = 5'd1 << 5;
const U = 3 << 5'd4;
const E = true == false;
pipe p(x: uint<8>)[] { y = x; }
`)
	for name, want := range map[string]Const{
		"LT": {Bool: true, IsBool: true},
		"S":  {Value: 1, Width: 5},
		"U":  {Value: 48},
		"E":  {IsBool: true},
	} {
		if got := info.Consts[name]; got != want {
			t.Errorf("%s = %+v, want %+v", name, got, want)
		}
	}
}
