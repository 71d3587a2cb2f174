package designs

import (
	"strings"
	"testing"

	"xpdl/internal/asm"
	"xpdl/internal/riscv"
	"xpdl/internal/sim"
	"xpdl/internal/val"
	"xpdl/internal/workloads"
)

// checkedRun is one drained run with the lines its device raised.
type checkedRun struct {
	p      *Processor
	prog   *asm.Program
	raised uint32
}

// runFor builds v with cfg and runs prog to drain with a device that
// raises pulses[c] at cycle c.
func runFor(t *testing.T, v Variant, cfg sim.Config, prog *asm.Program, pulses map[int]uint32) checkedRun {
	t.Helper()
	p, err := BuildCfg(v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return checkedRun{p: p, prog: prog, raised: runOn(t, p, prog, 1_000_000, pulses)}
}

// check runs the checker on r as its devices left it.
func (r checkedRun) check(c *Checker, lines uint32) *Mismatch {
	return c.Check(r.p.M, &OIAT{Variant: r.p.Variant, Text: r.prog.Text, Data: r.prog.Data,
		Lines: lines, Raised: r.raised})
}

// TestCheckerReportsMismatches: every way a run can leave the OIAT
// reading of its program is reported, at the stage and with the detail
// counterexamples carry.
func TestCheckerReportsMismatches(t *testing.T) {
	var c Checker
	ecall := mustAsm(t, progEcall)
	short := mustAsm(t, "li t0, 5\nsw t0, 0(zero)\nebreak\n")
	longer := mustAsm(t, "li t0, 5\nsw t0, 0(zero)\nnop\nebreak\n")
	for _, tc := range []struct {
		name   string
		prog   *asm.Program
		pulses map[int]uint32
		lines  uint32
		// poke corrupts the drained run; golden, when set, replaces the
		// program the checker reads.
		poke   func(p *Processor)
		golden *asm.Program
		stage  string
		detail string
	}{
		{name: "register", prog: ecall, poke: func(p *Processor) {
			p.M.MemPoke("rf", 9, val.New(0x1234, 32))
		}, stage: "state", detail: "x9 = 0x1234, golden 0x0"},
		{name: "dmem", prog: ecall, poke: func(p *Processor) {
			p.M.MemPoke("dmem", 300, val.New(0xdead, 32))
		}, stage: "state", detail: "dmem[300] = 0xdead, golden 0x0"},
		{name: "csr", prog: ecall, poke: func(p *Processor) {
			p.SetCSR("mscratch", 0x42)
		}, stage: "state", detail: "mscratch = 0x42, golden 0x0"},
		{name: "wrong-pc", prog: ecall, poke: func(p *Processor) {
			p.M.Retired()[3].Args[0] = val.New(0x400, 32)
		}, stage: "trace", detail: "retirement 3: pipeline pc 0x400, golden pc 0xc"},
		{name: "missing-retirement", prog: ecall, poke: func(p *Processor) {
			p.M.Retired()[2].Pipe = "gone"
		}, stage: "trace", detail: "retirement 2: pipeline pc 0xc, golden pc 0x8"},
		{name: "line-outside-mask", prog: mustAsm(t, progInterrupt), pulses: map[int]uint32{60: riscv.MIPMTIP},
			lines: riscv.MIPMSIP,
			stage: "trace", detail: "pipeline kind 3, golden trap=false"},
		{name: "drain-before-halt", prog: short, golden: longer,
			stage: "drain", detail: "pipeline drained after 3 retirements but the golden model has not halted (pc=0xc)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := runFor(t, All, sim.Config{}, tc.prog, tc.pulses)
			if mm := r.check(&c, riscv.MIPMTIP); mm != nil {
				t.Fatalf("clean run mismatched: %v", mm)
			}
			if tc.poke != nil {
				tc.poke(r.p)
			}
			if tc.golden != nil {
				r.prog = tc.golden
			}
			mm := r.check(&c, tc.lines)
			if mm == nil || mm.Stage != tc.stage || !strings.Contains(mm.Detail, tc.detail) {
				t.Fatalf("mismatch %v, want %s: …%s…", mm, tc.stage, tc.detail)
			}
		})
	}
}

// TestCheckerCappedTrace: a trace capped by MaxTrace is compared up to
// the cap, then the golden model runs to halt and the final state must
// still agree, as it does for every daemon job.
func TestCheckerCappedTrace(t *testing.T) {
	w, err := workloads.ByName("aes")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := w.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	var c Checker
	r := runFor(t, All, sim.Config{MaxTrace: 64}, prog, nil)
	if !r.p.M.TraceFull() || r.p.RetiredCount() != 64 {
		t.Fatalf("trace of %d retirements is not capped at 64", r.p.RetiredCount())
	}
	if mm := r.check(&c, 0); mm != nil {
		t.Fatalf("capped run mismatched: %v", mm)
	}
	r.p.M.MemPoke("dmem", 700, val.New(uint64(r.p.DMemWord(700)^1), 32))
	if mm := r.check(&c, 0); mm == nil || mm.Stage != "state" || !strings.HasPrefix(mm.Detail, "dmem[700] = ") {
		t.Fatalf("capped run with a poked dmem word: mismatch %v, want state at dmem[700]", mm)
	}
}

// TestCheckerManyInterrupts: periodic timer pulses claimed at many
// boundaries, as in TestLongRunStress but short, replay at each one.
func TestCheckerManyInterrupts(t *testing.T) {
	if p := stress(t, 3000, 997, 100_000); p.DMemWord(1) < 10 {
		t.Fatalf("only %d interrupts over the run", p.DMemWord(1))
	}
}

// TestCheckerAcrossDesigns: one Checker serves machines of different
// plans, resolving each design's registers anew.
func TestCheckerAcrossDesigns(t *testing.T) {
	var c Checker
	prog := mustAsm(t, progLoop)
	for _, v := range []Variant{All, Base, Fatal, Trap, CSR, All} {
		r := runFor(t, v, sim.Config{}, prog, nil)
		if mm := r.check(&c, 0); mm != nil {
			t.Fatalf("%s: %v", v, mm)
		}
	}
	r := runFor(t, CSR, sim.Config{}, prog, nil)
	r.p.SetCSR("mtval", 7)
	if mm := r.check(&c, 0); mm == nil || mm.Detail != "mtval = 0x7, golden 0x0" {
		t.Fatalf("poked mtval on csr: mismatch %v", mm)
	}
}
