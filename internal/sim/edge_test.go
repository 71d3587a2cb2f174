package sim

import (
	"errors"
	"strings"
	"testing"

	"xpdl/internal/check"
	"xpdl/internal/core"
	"xpdl/internal/pdl/parser"
	"xpdl/internal/val"
)

// buildErr compiles a program and expects machine construction to fail.
func buildErr(t *testing.T, src string, cfg Config, want string) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := check.Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	_, err = New(info, core.TranslateProgram(info), cfg)
	if err == nil {
		t.Fatal("New unexpectedly succeeded")
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not contain %q", err, want)
	}
}

func TestUnboundExternRejected(t *testing.T) {
	buildErr(t, `
extern func magic(x: uint<8>) -> uint<8>;
pipe p(i: uint<8>)[] { y = magic(i); }
`, Config{}, `extern "magic" is not bound`)
}

func TestStartValidation(t *testing.T) {
	m := build(t, `pipe p(i: uint<8>)[] { y = i; }`, Config{})
	if err := m.Start("nope", val.New(0, 8)); err == nil {
		t.Error("unknown pipe accepted")
	}
	if err := m.Start("p", val.New(0, 8), val.New(0, 8)); err == nil {
		t.Error("wrong arity accepted")
	}
	if err := m.Start("p", val.New(0, 8)); err != nil {
		t.Error(err)
	}
}

// Cross-pipe backpressure: the cpu issues two requests per instruction
// into a sub-pipeline that retires one per cycle. The sub-pipe's entry
// queue fills, the capacity check stalls the cpu, and the sub-pipe keeps
// draining — bounded queues, full completion.
func TestEntryQueueBackpressure(t *testing.T) {
	src := `
memory m: uint<32>[64] with basic, comb_read;
pipe slow(x: uint<32>)[m] {
    skip;
    ---
    a = x[5:0];
    acquire(m[ext(a, 6)], W);
    m[ext(a, 6)] <- x + 1;
    release(m[ext(a, 6)]);
}
pipe cpu(i: uint<32>)[slow]{
    if (i < 10) { call cpu(i + 1); }
    call slow(2 * i);
    call slow(2 * i + 1);
}
`
	m := build(t, src, Config{EntryCap: 4})
	m.Start("cpu", val.New(0, 32))
	run(t, m, 2000)
	for i := uint64(0); i < 22; i++ {
		if got := m.MemPeek("m", i).Uint(); got != i+1 {
			t.Errorf("m[%d] = %d, want %d (request lost under backpressure)", i, got, i+1)
		}
	}
	if got := len(m.Retired()); got != 11+22 {
		t.Errorf("retired %d, want 33", got)
	}
}

func TestMaxTraceBoundsRetirements(t *testing.T) {
	src := `
pipe p(i: uint<32>)[] {
    if (i < 100) { call p(i + 1); }
    y = i;
}
`
	m := build(t, src, Config{MaxTrace: 10})
	m.Start("p", val.New(0, 32))
	run(t, m, 1000)
	if got := len(m.Retired()); got != 10 {
		t.Errorf("trace length %d, want capped 10", got)
	}
}

func TestVolatileWidthTruncation(t *testing.T) {
	src := `
volatile v: uint<8>;
pipe p(i: uint<8>)[v] { y = v; }
`
	m := build(t, src, Config{})
	m.VolPoke("v", val.New(0x1FF, 32))
	if got := m.VolPeek("v"); got.Uint() != 0xFF || got.Width() != 8 {
		t.Errorf("volatile poke truncation: %v", got)
	}
}

func TestFiringsCounterAdvances(t *testing.T) {
	m := build(t, `pipe p(i: uint<8>)[] { y = i; --- z = y; }`, Config{})
	m.Start("p", val.New(1, 8))
	run(t, m, 50)
	if m.Firings() != 2 {
		t.Errorf("firings = %d, want 2 (one per stage)", m.Firings())
	}
}

func TestSpecHandleTableReclaimed(t *testing.T) {
	// A long run of verified speculations must not accumulate table
	// entries (the barrier deletes resolved entries).
	src := `
pipe p(i: uint<32>)[] {
    spec_check();
    s <- spec_call p(i + 1);
    ---
    spec_barrier();
    if (i >= 500) { invalidate(s); } else { verify(s); }
}
`
	m := build(t, src, Config{})
	m.Start("p", val.New(0, 32))
	run(t, m, 5000)
	if got := len(m.pipe("p").specTab.handles()); got > 8 {
		t.Errorf("speculation table leaked %d entries", got)
	}
	if got := len(m.Retired()); got != 501 {
		t.Errorf("retired %d, want 501", got)
	}
}

func TestZeroOfCheckedTypeForUntakenPath(t *testing.T) {
	// A variable assigned only on an untaken arm reads as a typed zero.
	src := `
memory m: uint<32>[4] with basic, comb_read;
pipe p(i: uint<32>)[m] {
    if (i == 999) { v = i + 7; }
    ---
    acquire(m[2'd0], W);
    m[2'd0] <- v + 1;
    release(m[2'd0]);
}
`
	m := build(t, src, Config{})
	m.Start("p", val.New(0, 32))
	run(t, m, 100)
	if got := m.MemPeek("m", 0).Uint(); got != 1 {
		t.Errorf("m[0] = %d, want 1 (undriven mux input reads zero)", got)
	}
}

func TestGefBlocksEntryDuringException(t *testing.T) {
	// While the exceptional instruction walks the except chain, the body
	// must not execute anything — measured here by the cycle gap between
	// the exceptional retirement and the handler instruction.
	src := `
memory m: uint<32>[8] with basic, comb_read;
pipe p(i: uint<32>)[m] {
    skip;
    ---
    if (i == 0) { throw(4'd1); }
    ---
    a = i[2:0];
    acquire(m[ext(a, 3)], W);
    m[ext(a, 3)] <- i;
commit:
    release(m[ext(a, 3)]);
except(c: uint<4>):
    skip;
    ---
    skip;
    ---
    call p(5);
}
`
	m := build(t, src, Config{})
	m.Start("p", val.New(0, 32))
	run(t, m, 200)
	rs := m.Retired()
	if len(rs) != 2 {
		t.Fatalf("retired %d, want 2 (exceptional + handler)", len(rs))
	}
	if !rs[0].Exceptional || rs[0].Args[0].Uint() != 0 {
		t.Fatalf("first retirement: %+v", rs[0])
	}
	if rs[1].Args[0].Uint() != 5 {
		t.Fatalf("handler instruction arg: %v", rs[1].Args[0])
	}
	if m.MemPeek("m", 5).Uint() != 5 {
		t.Error("handler instruction did not commit")
	}
	if m.MemPeek("m", 0).Uint() != 0 {
		t.Error("exceptional instruction committed")
	}
}

func TestPipeTraceOutput(t *testing.T) {
	m := build(t, counterPipe, Config{})
	var buf strings.Builder
	m.PipeTrace(&buf)
	m.Start("p", val.New(0, 32))
	run(t, m, 100)
	out := buf.String()
	if !strings.Contains(out, "cycle     0 | p:") {
		t.Errorf("trace missing header line:\n%.200s", out)
	}
	if !strings.Contains(out, " ---") {
		t.Error("trace should show empty slots")
	}
	lines := strings.Count(out, "\n")
	if lines != m.Cycle() {
		t.Errorf("%d trace lines for %d cycles", lines, m.Cycle())
	}
}

func TestPipeTraceShowsExceptionFlow(t *testing.T) {
	src := `
memory m: uint<32>[8] with basic, comb_read;
pipe p(i: uint<32>)[m] {
    if (i == 0) { throw(4'd1); }
    ---
    acquire(m[i[2:0]], W);
    m[i[2:0]] <- i;
commit:
    release(m[i[2:0]]);
except(c: uint<4>):
    skip;
}
`
	m := build(t, src, Config{})
	var buf strings.Builder
	m.PipeTrace(&buf)
	m.Start("p", val.New(0, 32))
	run(t, m, 100)
	out := buf.String()
	if !strings.Contains(out, "GEF") {
		t.Errorf("trace never showed gef:\n%s", out)
	}
	if !strings.Contains(out, "!") {
		t.Errorf("trace never marked the exceptional instruction:\n%s", out)
	}
	if !strings.Contains(out, "/x") {
		t.Errorf("trace missing exception chain:\n%s", out)
	}
}

// Exercise every builtin evaluator in pipeline context against val's
// reference semantics.
func TestBuiltinEvaluators(t *testing.T) {
	src := `
memory out: uint<32>[16] with basic, comb_read;
pipe p(x: uint<32>)[out] {
    a = sext(x[7:0], 32);
    b = shra(x, 32'd4);
    c = divs(x, 32'd3);
    d0 = rems(x, 32'd3);
    e = mulfull(x[15:0], x[15:0]);
    f = lts(x, 32'd0) ? 32'd1 : 32'd0;
    g = les(x, x) ? 32'd1 : 32'd0;
    h = gts(x, 32'd5) ? 32'd1 : 32'd0;
    i2 = ges(x, x) ? 32'd1 : 32'd0;
    j = cat(x[7:0], x[7:0]);
    acquire(out, W);
    out[4'd0] <- a;
    out[4'd1] <- b;
    out[4'd2] <- c;
    out[4'd3] <- d0;
    out[4'd4] <- ext(e, 32);
    out[4'd5] <- f;
    out[4'd6] <- g;
    out[4'd7] <- h;
    out[4'd8] <- i2;
    out[4'd9] <- ext(j, 32);
    release(out);
}
`
	m := build(t, src, Config{})
	x := uint32(0xFFFFFF85) // -123 signed; low byte 0x85
	m.Start("p", val.New(uint64(x), 32))
	run(t, m, 50)
	get := func(i uint64) uint32 { return uint32(m.MemPeek("out", i).Uint()) }
	if got := get(0); got != 0xFFFFFF85 {
		t.Errorf("sext = %#x", got)
	}
	if got := get(1); got != uint32(int32(x)>>4) {
		t.Errorf("shra = %#x, want %#x", got, uint32(int32(x)>>4))
	}
	if got := get(2); got != uint32(int32(x)/3) {
		t.Errorf("divs = %d, want %d", int32(got), int32(x)/3)
	}
	if got := get(3); got != uint32(int32(x)%3) {
		t.Errorf("rems = %d, want %d", int32(got), int32(x)%3)
	}
	if got := get(4); got != uint32(0xFF85*0xFF85) {
		t.Errorf("mulfull low = %#x", got)
	}
	if get(5) != 1 || get(6) != 1 || get(7) != 0 || get(8) != 1 {
		t.Errorf("signed compares: %d %d %d %d", get(5), get(6), get(7), get(8))
	}
	if got := get(9); got != 0x8585 {
		t.Errorf("cat = %#x", got)
	}
}

// In-language functions with conditionals and nested calls evaluate
// correctly inside a pipeline.
func TestInLanguageFunctionEvaluation(t *testing.T) {
	src := `
func clamp(v: uint<8>, hi: uint<8>) -> uint<8> {
    r = v;
    if (v > hi) { r = hi; }
    return r;
}
func double_clamped(v: uint<8>) -> uint<8> {
    d0 = v + v;
    c = clamp(d0, 100);
    return c;
}
memory out: uint<8>[4] with basic, comb_read;
pipe p(x: uint<8>)[out] {
    y = double_clamped(x);
    acquire(out[2'd0], W);
    out[2'd0] <- y;
    release(out[2'd0]);
}
`
	m := build(t, src, Config{})
	m.Start("p", val.New(80, 8)) // 160 clamps to 100
	run(t, m, 50)
	if got := m.MemPeek("out", 0).Uint(); got != 100 {
		t.Errorf("clamped = %d, want 100", got)
	}
	m2 := build(t, src, Config{})
	m2.Start("p", val.New(30, 8))
	run(t, m2, 50)
	if got := m2.MemPeek("out", 0).Uint(); got != 60 {
		t.Errorf("unclamped = %d, want 60", got)
	}
}

// A structural deadlock — an instruction in the first stage spawning two
// successors into its own full entry queue, which only it can drain —
// must be detected and reported, not spin forever.
func TestStructuralDeadlockReported(t *testing.T) {
	src := `
pipe p(i: uint<32>)[] {
    call p(i + 1);
    call p(i + 2);
}
`
	m := build(t, src, Config{EntryCap: 2})
	m.Start("p", val.New(0, 32))
	_, err := m.Run(5000)
	if err == nil {
		t.Fatal("deadlock not detected")
	}
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("got %T (%v), want *DeadlockError", err, err)
	}
	if dl.InFlight == 0 {
		t.Error("DeadlockError reports no instructions in flight")
	}
	msg := err.Error()
	for _, frag := range []string{"deadlock", "p.body0", "entryQ"} {
		if !strings.Contains(msg, frag) {
			t.Errorf("diagnostic %q missing %q", msg, frag)
		}
	}
}

func TestMemoryAccessors(t *testing.T) {
	src := `
memory m: uint<16>[8] with basic, comb_read;
memory rom: uint<16>[4] with nolock, comb_read;
pipe p(i: uint<16>)[m, rom] {
    acquire(m[i[2:0]], W);
    m[i[2:0]] <- rom[i[1:0]];
    release(m[i[2:0]]);
}
`
	m := build(t, src, Config{})
	if m.MemDepth("m") != 8 || m.MemDepth("rom") != 4 {
		t.Error("MemDepth")
	}
	m.MemPoke("rom", 1, val.New(0x1234, 16))
	m.MemPoke("m", 7, val.New(9, 16))
	if m.MemPeek("rom", 1).Uint() != 0x1234 || m.MemPeek("m", 7).Uint() != 9 {
		t.Error("MemPoke/MemPeek round trip")
	}
	m.Start("p", val.New(1, 16))
	run(t, m, 20)
	if m.MemPeek("m", 1).Uint() != 0x1234 {
		t.Error("rom value did not flow through the pipe")
	}
}

func TestRecordValuePanicsAsScalar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Uint on a record must panic")
		}
	}()
	_ = Record(map[string]val.Value{"f": val.New(1, 8)}).Uint()
}
