package designs

import (
	"fmt"
	"testing"

	"xpdl/internal/asm"
	"xpdl/internal/riscv"
	"xpdl/internal/sim"
)

// build builds a variant or fails the test.
func build(t *testing.T, v Variant) *Processor {
	t.Helper()
	p, err := Build(v)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p
}

// runOn loads prog into p and boots it, with a device that raises
// pulses[c] at cycle c, then runs it to drain within maxCycles. It
// returns the lines the device raised.
func runOn(t *testing.T, p *Processor, prog *asm.Program, maxCycles int, pulses map[int]uint32) uint32 {
	t.Helper()
	if err := p.Load(prog); err != nil {
		t.Fatal(err)
	}
	if err := p.Boot(); err != nil {
		t.Fatal(err)
	}
	var raised uint32
	if len(pulses) > 0 {
		p.M.OnCycle(func(m *sim.Machine) {
			if bit := pulses[m.Cycle()]; bit != 0 {
				p.RaiseInterrupt(bit)
				raised |= bit
			}
		})
	}
	if _, err := p.Run(maxCycles); err != nil {
		t.Fatalf("pipeline run: %v", err)
	}
	if p.M.InFlight() != 0 {
		t.Fatalf("pipeline did not drain (%d in flight) after %d cycles", p.M.InFlight(), p.M.Cycle())
	}
	return raised
}

// runPipe assembles and runs a program on a pipeline variant.
func runPipe(t *testing.T, v Variant, src string, maxCycles int) *Processor {
	t.Helper()
	p := build(t, v)
	runOn(t, p, mustAsm(t, src), maxCycles, nil)
	return p
}

// checkGolden fails the test unless p's run of prog passes the OIAT
// checker; lines and raised are the interrupt lines its devices could
// raise and did raise.
func checkGolden(t *testing.T, p *Processor, prog *asm.Program, lines, raised uint32) {
	t.Helper()
	o := OIAT{Variant: p.Variant, Text: prog.Text, Data: prog.Data, Lines: lines, Raised: raised}
	if mm := new(Checker).Check(p.M, &o); mm != nil {
		t.Fatalf("%s: %v", p.Variant, mm)
	}
}

// equivalent runs a program on the pipeline and requires it to match
// the golden model's retirement sequence and final state.
func equivalent(t *testing.T, v Variant, src string, maxCycles int) *Processor {
	t.Helper()
	p := runPipe(t, v, src, maxCycles)
	checkGolden(t, p, mustAsm(t, src), 0, 0)
	return p
}

// --- Plain programs on the baseline -------------------------------------------

const progALU = `
        li   a0, 1000
        li   a1, 7
        add  a2, a0, a1
        sub  a3, a0, a1
        xor  a4, a0, a1
        or   a5, a0, a1
        and  a6, a0, a1
        sll  a7, a1, a1
        srl  s2, a0, a1
        sra  s3, a0, a1
        slt  s4, a1, a0
        sltu s5, a0, a1
        mul  s6, a0, a1
        mulh s7, a0, a0
        div  s8, a0, a1
        rem  s9, a0, a1
        li   t0, -13
        div  s10, t0, a1
        rem  s11, t0, a1
        ebreak
`

func TestBaselineALUMatchesGolden(t *testing.T) {
	equivalent(t, Base, progALU, 2000)
}

const progMemory = `
        li   t0, 0x12345678
        sw   t0, 64(zero)
        lw   t1, 64(zero)
        lb   t2, 65(zero)
        lbu  t3, 67(zero)
        lh   t4, 66(zero)
        lhu  t5, 64(zero)
        sb   t0, 100(zero)
        sh   t0, 102(zero)
        lw   t6, 100(zero)
        ebreak
`

func TestBaselineMemoryMatchesGolden(t *testing.T) {
	equivalent(t, Base, progMemory, 2000)
}

const progLoop = `
        li   t0, 0
        li   t1, 0
        li   t2, 50
loop:   add  t1, t1, t0
        addi t0, t0, 1
        bne  t0, t2, loop
        sw   t1, 0(zero)
        ebreak
`

func TestBaselineLoopMatchesGolden(t *testing.T) {
	p := equivalent(t, Base, progLoop, 5000)
	if p.DMemWord(0) != 1225 {
		t.Errorf("sum = %d, want 1225", p.DMemWord(0))
	}
}

const progCallFib = `
        li   sp, 1024
        li   a0, 10
        call fib
        sw   a0, 0(zero)
        ebreak
fib:    li   t0, 2
        blt  a0, t0, fibret
        addi sp, sp, -12
        sw   ra, 0(sp)
        sw   a0, 4(sp)
        addi a0, a0, -1
        call fib
        sw   a0, 8(sp)
        lw   a0, 4(sp)
        addi a0, a0, -2
        call fib
        lw   t1, 8(sp)
        add  a0, a0, t1
        lw   ra, 0(sp)
        addi sp, sp, 12
        ret
fibret: ret
`

func TestBaselineRecursiveFibMatchesGolden(t *testing.T) {
	p := equivalent(t, Base, progCallFib, 30000)
	if p.DMemWord(0) != 55 {
		t.Errorf("fib(10) = %d, want 55", p.DMemWord(0))
	}
}

// --- CPI equality across variants (§4.2) --------------------------------------

func TestCPIEqualAcrossVariantsWhenNoExceptions(t *testing.T) {
	cycles := map[Variant]int{}
	var retired int
	for _, v := range Variants() {
		p := runPipe(t, v, progLoop, 5000)
		cycles[v] = p.M.Cycle()
		n := p.RetiredCount()
		if retired == 0 {
			retired = n
		} else if n != retired {
			t.Errorf("%s retired %d instructions, others %d", v, n, retired)
		}
	}
	for _, v := range Variants() {
		if cycles[v] != cycles[Base] {
			t.Errorf("CPI differs: %s took %d cycles, base %d (exception support must not cost CPI)",
				v, cycles[v], cycles[Base])
		}
	}
}

// --- Fatal variant --------------------------------------------------------------

func TestFatalIllegalInstructionHaltsPrecisely(t *testing.T) {
	src := `
        li   t0, 7
        sw   t0, 0(zero)
        .word 0xFFFFFFFF
        li   t1, 9
        sw   t1, 4(zero)
        ebreak
`
	p := runPipe(t, Fatal, src, 2000)
	checkGolden(t, p, mustAsm(t, src), 0, 0)
	if p.DMemWord(0) != 7 {
		t.Error("instruction before the fault must commit")
	}
	if p.DMemWord(1) != 0 {
		t.Error("instruction after the fault must not execute")
	}
	if p.CSR("faultcode") != riscv.CauseIllegalInst {
		t.Errorf("faultcode = %d", p.CSR("faultcode"))
	}
	if p.CSR("faultpc") != 8 {
		t.Errorf("faultpc = %d, want 8", p.CSR("faultpc"))
	}
}

func TestFatalMemoryFault(t *testing.T) {
	src := `
        li   t0, 0x10000
        lw   t1, 0(t0)
        ebreak
`
	p := runPipe(t, Fatal, src, 2000)
	checkGolden(t, p, mustAsm(t, src), 0, 0)
	if p.CSR("faultcode") != riscv.CauseLoadFault {
		t.Errorf("faultcode = %d, want load fault", p.CSR("faultcode"))
	}
}

func TestFatalMisalignedStore(t *testing.T) {
	src := `
        li t0, 3
        sw t0, 2(zero)
        ebreak
`
	p := runPipe(t, Fatal, src, 2000)
	checkGolden(t, p, mustAsm(t, src), 0, 0)
	if p.CSR("faultcode") != riscv.CauseMisalignedStore {
		t.Errorf("faultcode = %d, want misaligned store", p.CSR("faultcode"))
	}
}

// --- All variant: full trap flows vs golden --------------------------------------

const progEcall = `
        li   t0, 48            # handler address
        csrw mtvec, t0
        li   a0, 11
        li   a1, 22
        ecall
        add  a2, a0, a1
        sw   a2, 0(zero)
        ebreak
        nop
        nop
        nop
        nop
        # handler (byte 48):
        csrr t1, mepc
        addi t1, t1, 4
        csrw mepc, t1
        addi a0, a0, 100
        mret
`

func TestEcallRoundTripMatchesGolden(t *testing.T) {
	p := equivalent(t, All, progEcall, 5000)
	if p.DMemWord(0) != 133 {
		t.Errorf("result = %d, want 133", p.DMemWord(0))
	}
	var traps int
	for _, r := range p.Retired() {
		if r.Exceptional && r.EArgs[0].Uint() == KTrap {
			traps++
		}
	}
	if traps != 1 {
		t.Errorf("%d traps, want 1", traps)
	}
}

const progIllegalTrap = `
        li   t0, 40
        csrw mtvec, t0
        li   s0, 5
        .word 0xFFFFFFFF
        sw   s0, 8(zero)
        ebreak
        nop
        nop
        nop
        nop
        # handler (byte 40):
        csrr s1, mepc
        csrr s2, mcause
        csrr s3, mtval
        addi s1, s1, 4
        csrw mepc, s1
        mret
`

func TestIllegalInstructionTrapMatchesGolden(t *testing.T) {
	p := equivalent(t, All, progIllegalTrap, 5000)
	if p.Reg(18) != riscv.CauseIllegalInst {
		t.Errorf("handler saw mcause %d", p.Reg(18))
	}
	if p.Reg(19) != 0xFFFFFFFF {
		t.Errorf("handler saw mtval %#x", p.Reg(19))
	}
	if p.DMemWord(2) != 5 {
		t.Error("instruction after the handled fault must re-execute and commit")
	}
}

const progMemFaultTrap = `
        li   t0, 44
        csrw mtvec, t0
        li   t1, 0x20000
        lw   t2, 0(t1)
        li   t3, 1
        sw   t3, 0(zero)
        ebreak
        nop
        nop
        nop
        nop
        # handler (byte 44):
        csrr s2, mcause
        csrr s3, mtval
        csrr s4, mepc
        addi s4, s4, 4
        csrw mepc, s4
        mret
`

func TestLoadFaultTrapMatchesGolden(t *testing.T) {
	p := equivalent(t, All, progMemFaultTrap, 5000)
	if p.Reg(18) != riscv.CauseLoadFault {
		t.Errorf("mcause seen = %d", p.Reg(18))
	}
	if p.Reg(19) != 0x20000 {
		t.Errorf("mtval seen = %#x", p.Reg(19))
	}
}

const progCSRs = `
        li    t0, 0x1234
        csrw  mscratch, t0
        csrr  t1, mscratch
        csrrs t2, mscratch, t1      # old, then set (no change)
        li    t3, 0xFF
        csrrc t4, mscratch, t3      # old, clear low bits
        csrr  t5, mscratch
        csrrwi t6, mscratch, 21
        csrrsi s2, mscratch, 2
        csrrci s3, mscratch, 1
        csrr  s4, mscratch
        sw    t1, 0(zero)
        sw    t5, 4(zero)
        sw    s4, 8(zero)
        ebreak
`

func TestCSRInstructionsMatchGolden(t *testing.T) {
	for _, v := range []Variant{CSR, All} {
		p := equivalent(t, v, progCSRs, 5000)
		if p.DMemWord(0) != 0x1234 {
			t.Errorf("%s: csrr = %#x", v, p.DMemWord(0))
		}
		if p.DMemWord(1) != 0x1200 {
			t.Errorf("%s: after clear = %#x", v, p.DMemWord(1))
		}
		if p.DMemWord(2) != 0x16 {
			t.Errorf("%s: final = %#x", v, p.DMemWord(2))
		}
	}
}

// CSR instructions throw; each costs a pipeline drain but must stay
// architecturally invisible otherwise.
func TestCSRHeavySequenceMatchesGolden(t *testing.T) {
	src := `
        li   t0, 0
        li   t1, 0
loop:   csrw mscratch, t0
        csrr t2, mscratch
        add  t1, t1, t2
        addi t0, t0, 1
        li   t3, 8
        bne  t0, t3, loop
        sw   t1, 0(zero)
        ebreak
`
	p := equivalent(t, All, src, 20000)
	if p.DMemWord(0) != 28 {
		t.Errorf("sum = %d, want 28", p.DMemWord(0))
	}
}

// --- Interrupts -------------------------------------------------------------------

// interruptProgram loops incrementing a counter; the handler stores the
// cause and returns.
const progInterrupt = `
        li   t0, 64            # handler
        csrw mtvec, t0
        li   t1, 0x888         # MEIE|MTIE|MSIE
        csrw mie, t1
        csrrsi zero, mstatus, 8
        li   t2, 0
        li   t3, 200
loop:   addi t2, t2, 1
        bne  t2, t3, loop
        sw   t2, 0(zero)
        ebreak
        nop
        nop
        nop
        nop
        nop
        # handler (byte 64):
        csrr s2, mcause
        sw   s2, 4(zero)
        mret
`

func TestTimerInterruptPrecise(t *testing.T) {
	prog := mustAsm(t, progInterrupt)
	p := build(t, All)
	// Device: raise the timer interrupt at cycle 60.
	raised := runOn(t, p, prog, 20000, map[int]uint32{60: riscv.MIPMTIP})
	if got := p.DMemWord(1); got != riscv.CauseMachineTimer {
		t.Fatalf("handler stored cause %#x, want timer", got)
	}
	if got := p.DMemWord(0); got != 200 {
		t.Errorf("loop completed with %d, want 200 (interrupt must not corrupt it)", got)
	}
	if p.CSR("mip")&riscv.MIPMTIP != 0 {
		t.Error("pending bit not acknowledged")
	}
	// Precision: the golden model takes the interrupt at the same
	// instruction boundary the pipeline chose; traces and final state
	// must be identical.
	checkGolden(t, p, prog, riscv.MIPMTIP, raised)
}

func TestInterruptMaskedWhenMIEClear(t *testing.T) {
	src := `
        li   t0, 0x888
        csrw mie, t0
        li   t2, 0
        li   t3, 50
loop:   addi t2, t2, 1
        bne  t2, t3, loop
        sw   t2, 0(zero)
        ebreak
`
	prog := mustAsm(t, src)
	p := build(t, All)
	raised := runOn(t, p, prog, 10000, map[int]uint32{30: riscv.MIPMTIP})
	for _, r := range p.Retired() {
		// CSR instructions retire exceptionally by design (kind KCSR);
		// only an interrupt or trap kind would be wrong here.
		if r.Exceptional && r.EArgs[0].Uint() == KInt {
			t.Fatal("masked interrupt was taken")
		}
	}
	if p.DMemWord(0) != 50 {
		t.Errorf("loop result %d", p.DMemWord(0))
	}
	// The unclaimed pulse stays pending in mip on both sides.
	checkGolden(t, p, prog, riscv.MIPMTIP, raised)
}

// --- Speculation interplay -----------------------------------------------------

func TestBranchHeavyProgramMatchesGolden(t *testing.T) {
	src := `
        li   t0, 0
        li   t1, 0
        li   t2, 97
loop:   andi t3, t0, 3
        beqz t3, skip
        add  t1, t1, t0
skip:   addi t0, t0, 1
        bne  t0, t2, loop
        sw   t1, 0(zero)
        ebreak
`
	equivalent(t, All, src, 20000)
}

func TestStoreLoadForwardingSequence(t *testing.T) {
	// Immediate store-then-load to the same address exercises the bypass
	// queue.
	src := `
        li   t0, 0xBEEF
        sw   t0, 40(zero)
        lw   t1, 40(zero)
        addi t1, t1, 1
        sw   t1, 44(zero)
        lw   t2, 44(zero)
        ebreak
`
	p := equivalent(t, All, src, 2000)
	if p.Reg(7) != 0xBEF0 { // t2 = x7
		t.Errorf("t2 = %#x, want 0xBEF0", p.Reg(7))
	}
}

// progStress loops %d times over ALU and memory traffic with timer
// interrupts enabled; the handler counts interrupts in dmem[1].
const progStress = `
        la   t0, handler
        csrw mtvec, t0
        li   t1, 0x80
        csrw mie, t1
        csrrsi zero, mstatus, 8
        li   s0, 0             # accumulator
        li   s1, 0             # i
        li   s2, %d
outer:  mul  t2, s1, s1
        add  s0, s0, t2
        xor  s0, s0, s1
        andi t3, s1, 63
        slli t3, t3, 2
        addi t3, t3, 256
        sw   s0, 0(t3)
        lw   t4, 0(t3)
        add  s0, s0, t4
        addi s1, s1, 1
        bne  s1, s2, outer
        sw   s0, 0(zero)
        ebreak
handler:
        lw   s4, 4(zero)
        addi s4, s4, 1
        sw   s4, 4(zero)
        mret
`

// stress runs progStress for iters iterations with a timer pulse every
// period cycles, requires the golden model to take every interrupt at
// the boundary the pipeline chose, and checks the handler's count
// against the interrupts taken.
func stress(t *testing.T, iters, period, maxCycles int) *Processor {
	t.Helper()
	prog := mustAsm(t, fmt.Sprintf(progStress, iters))
	p := build(t, All)
	pulses := map[int]uint32{}
	for c := period; c < maxCycles; c += period {
		pulses[c] = riscv.MIPMTIP
	}
	checkGolden(t, p, prog, riscv.MIPMTIP, runOn(t, p, prog, maxCycles, pulses))
	interrupts := 0
	for _, r := range p.M.Retired() {
		if r.Exceptional && r.EArgs[0].Uint() == KInt {
			interrupts++
		}
	}
	if interrupts < 2 {
		t.Fatalf("only %d interrupts over the run", interrupts)
	}
	if p.DMemWord(1) != uint32(interrupts) {
		t.Errorf("handler count %d, interrupts %d", p.DMemWord(1), interrupts)
	}
	return p
}

// A scale stress test: a quarter-million instructions through the full
// processor with periodic timer interrupts, cross-checked instruction
// counts and architectural results.
func TestLongRunStress(t *testing.T) {
	if testing.Short() {
		t.Skip("long stress run")
	}
	p := stress(t, 40000, 50000, 3_000_000)
	t.Logf("stress: %d instructions, %d cycles, %d interrupts, CPI %.3f",
		p.RetiredCount(), p.M.Cycle(), p.DMemWord(1), p.CPI())
}
