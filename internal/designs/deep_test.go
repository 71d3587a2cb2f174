package designs

import (
	"testing"

	"xpdl"
	"xpdl/internal/riscv"
	"xpdl/internal/sim"
	"xpdl/internal/workloads"
)

// buildAll compiles a source of the full processor (the deep-commit
// and basic-lock register file ablations).
func buildAll(t *testing.T, src string) *Processor {
	t.Helper()
	d, err := xpdl.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m, err := d.NewMachine(sim.Config{Externs: Externs()})
	if err != nil {
		t.Fatal(err)
	}
	return &Processor{Variant: All, Design: d, M: m}
}

func TestDeepCommitGeneratesPadding(t *testing.T) {
	p := buildAll(t, DeepCommitSource())
	tr := p.Design.Translations["cpu"]
	if tr.CommitStages != 3 {
		t.Fatalf("commit stages = %d, want 3", tr.CommitStages)
	}
	if tr.PaddingStages != 2 {
		t.Errorf("padding stages = %d, want 2 (Fig. 6)", tr.PaddingStages)
	}
}

func TestDeepCommitRunsWorkloadsCorrectly(t *testing.T) {
	for _, name := range []string{"fib", "sort"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prog, _ := w.Assemble()
		p := buildAll(t, DeepCommitSource())
		runOn(t, p, prog, w.MaxSteps*10, nil)
		checkGolden(t, p, prog, 0, 0)
	}
}

// The deep commit tail must drain before the rollback stage fires: the
// committing instructions immediately ahead of the exceptional one still
// land, exactly as with the merged commit.
func TestDeepCommitExceptionStillPrecise(t *testing.T) {
	src := `
        li   t0, 40
        csrw mtvec, t0
        li   s0, 1
        sw   s0, 0(zero)
        li   s1, 2
        sw   s1, 4(zero)
        .word 0xFFFFFFFF
        li   s2, 3
        sw   s2, 8(zero)
        ebreak
        # handler (byte 40):
        csrr s3, mepc
        addi s3, s3, 4
        csrw mepc, s3
        mret
`
	prog := mustAsm(t, src)
	p := buildAll(t, DeepCommitSource())
	runOn(t, p, prog, 10000, nil)
	checkGolden(t, p, prog, 0, 0)
	if p.DMemWord(0) != 1 || p.DMemWord(1) != 2 {
		t.Error("stores ahead of the exception must commit through the deep tail")
	}
	if p.DMemWord(2) != 3 {
		t.Error("handled program must complete")
	}
	if p.CSR("mcause") != riscv.CauseIllegalInst {
		t.Errorf("mcause = %d", p.CSR("mcause"))
	}
}

func TestDeepCommitInterruptPrecise(t *testing.T) {
	src := `
        li   t0, 48
        csrw mtvec, t0
        li   t1, 0x80
        csrw mie, t1
        csrrsi zero, mstatus, 8
        li   t2, 0
        li   t3, 400
loop:   addi t2, t2, 1
        bne  t2, t3, loop
        sw   t2, 0(zero)
        ebreak
        nop
        # handler (byte 48):
        lw   s2, 4(zero)
        addi s2, s2, 1
        sw   s2, 4(zero)
        mret
`
	prog := mustAsm(t, src)
	p := buildAll(t, DeepCommitSource())
	raised := runOn(t, p, prog, 50000, map[int]uint32{70: riscv.MIPMTIP})
	checkGolden(t, p, prog, riscv.MIPMTIP, raised)
	if p.DMemWord(1) != 1 {
		t.Errorf("interrupts handled = %d", p.DMemWord(1))
	}
	if p.DMemWord(0) != 400 {
		t.Errorf("loop result = %d (deep-commit interrupt corrupted state)", p.DMemWord(0))
	}
}

// Exception resolution costs strictly more cycles with the deeper commit
// (the padding delay), while exception-free code costs the same per
// instruction up to the longer drain of the deeper pipeline.
func TestDeepCommitPaddingDelaysException(t *testing.T) {
	src := `
        li   t0, 24
        csrw mtvec, t0
        ecall
        ebreak
        nop
        nop
        # handler (byte 24):
        csrr s3, mepc
        addi s3, s3, 4
        csrw mepc, s3
        mret
`
	run := func(p *Processor) int {
		runOn(t, p, mustAsm(t, src), 10000, nil)
		return p.M.Cycle()
	}
	merged, deep := run(build(t, All)), run(buildAll(t, DeepCommitSource()))
	if deep <= merged {
		t.Errorf("deep commit (%d cycles) should be slower than merged (%d) on an exception-heavy run", deep, merged)
	}
}

// The trap variant (no CSR instructions) still supports interrupts when
// firmware state is initialized from outside, and mret returns correctly
// — CSR reads in hardware, none in software.
func TestTrapVariantInterruptWithoutCSRInstructions(t *testing.T) {
	src := `
        li   t2, 0
        li   t3, 500
loop:   addi t2, t2, 1
        bne  t2, t3, loop
        sw   t2, 0(zero)
        ebreak
        nop
        nop
        nop
        # handler (byte 36): counts, no CSR instructions available
        lw   s2, 4(zero)
        addi s2, s2, 1
        sw   s2, 4(zero)
        mret
`
	prog := mustAsm(t, src)
	p := build(t, Trap)
	// Firmware initialization from outside (the variant has no csrw).
	firmware := map[string]uint32{
		"mtvec":   36,
		"mie":     riscv.MIPMTIP | riscv.MIPMEIP,
		"mstatus": riscv.MStatusMIE,
	}
	for name, v := range firmware {
		p.SetCSR(name, v)
	}
	raised := runOn(t, p, prog, 50000, map[int]uint32{100: riscv.MIPMTIP})
	o := OIAT{Variant: Trap, Text: prog.Text, Data: prog.Data, Firmware: firmware,
		Lines: riscv.MIPMTIP, Raised: raised}
	if mm := new(Checker).Check(p.M, &o); mm != nil {
		t.Fatal(mm)
	}
	if p.DMemWord(1) != 1 {
		t.Errorf("interrupts handled = %d, want 1", p.DMemWord(1))
	}
	if p.DMemWord(0) != 500 {
		t.Errorf("loop result = %d", p.DMemWord(0))
	}
	if p.CSR("mcause") != riscv.CauseMachineTimer {
		t.Errorf("mcause = %#x", p.CSR("mcause"))
	}
}
