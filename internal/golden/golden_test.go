package golden

import (
	"testing"

	"xpdl/internal/asm"
	"xpdl/internal/riscv"
)

func runAsm(t *testing.T, src string, steps int) *Machine {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := New(p.Text, p.Data, 256)
	if err := m.Run(steps); err != nil {
		t.Fatalf("run: %v", err)
	}
	return m
}

func TestArithmeticProgram(t *testing.T) {
	m := runAsm(t, `
        li  a0, 6
        li  a1, 7
        mul a2, a0, a1
        add a3, a2, a0
        sub a4, a3, a1
        ebreak
    `, 100)
	if !m.Halted {
		t.Fatal("machine did not halt")
	}
	if m.Regs[12] != 42 || m.Regs[13] != 48 || m.Regs[14] != 41 {
		t.Errorf("regs a2..a4 = %d %d %d", m.Regs[12], m.Regs[13], m.Regs[14])
	}
}

func TestLoopAndBranches(t *testing.T) {
	m := runAsm(t, `
        li   t0, 0
        li   t1, 0
loop:   add  t1, t1, t0
        addi t0, t0, 1
        li   t2, 10
        blt  t0, t2, loop
        ebreak
    `, 1000)
	if m.Regs[6] != 45 {
		t.Errorf("sum = %d, want 45", m.Regs[6])
	}
}

func TestLoadsAndStores(t *testing.T) {
	m := runAsm(t, `
        li  t0, 0x12345678
        sw  t0, 0(zero)
        lb  t1, 0(zero)
        lbu t2, 3(zero)
        lh  t3, 2(zero)
        lw  t4, 0(zero)
        sb  zero, 1(zero)
        lw  t5, 0(zero)
        ebreak
    `, 100)
	if m.Regs[6] != 0x78 {
		t.Errorf("lb = %#x", m.Regs[6])
	}
	if m.Regs[7] != 0x12 {
		t.Errorf("lbu high byte = %#x", m.Regs[7])
	}
	if m.Regs[28] != 0x1234 {
		t.Errorf("lh = %#x", m.Regs[28])
	}
	if m.Regs[29] != 0x12345678 {
		t.Errorf("lw = %#x", m.Regs[29])
	}
	if m.Regs[30] != 0x12340078 {
		t.Errorf("sb merge = %#x", m.Regs[30])
	}
}

func TestSignedByteLoad(t *testing.T) {
	m := runAsm(t, `
        li t0, 0xFF
        sb t0, 0(zero)
        lb t1, 0(zero)
        ebreak
    `, 100)
	if int32(m.Regs[6]) != -1 {
		t.Errorf("lb 0xFF = %d, want -1", int32(m.Regs[6]))
	}
}

func TestX0IsHardwiredZero(t *testing.T) {
	m := runAsm(t, `
        li   zero, 55
        addi x0, x0, 7
        add  t0, zero, zero
        ebreak
    `, 100)
	if m.Regs[0] != 0 || m.Regs[5] != 0 {
		t.Errorf("x0 = %d, t0 = %d", m.Regs[0], m.Regs[5])
	}
}

func TestJalLinkAndReturn(t *testing.T) {
	m := runAsm(t, `
        li   a0, 1
        call fn
        addi a0, a0, 100
        ebreak
fn:     addi a0, a0, 10
        ret
    `, 100)
	if m.Regs[10] != 111 {
		t.Errorf("a0 = %d, want 111", m.Regs[10])
	}
}

func TestEcallTrapIsPrecise(t *testing.T) {
	m := runAsm(t, `
        li   t0, 16       # handler address
        csrw mtvec, t0
        li   a0, 5
        ecall
        # handler at byte 16:
        csrr a1, mepc
        csrr a2, mcause
        ebreak
    `, 100)
	if m.Regs[12] != riscv.CauseECallM {
		t.Errorf("mcause = %d, want %d", m.Regs[12], riscv.CauseECallM)
	}
	// ecall is the 4th word (li t0 is one word: 16 fits), compute: li t0,16
	// (1) + csrw (1) + li a0 (1) = pc 12 for ecall.
	if m.Regs[11] != 12 {
		t.Errorf("mepc = %d, want 12", m.Regs[11])
	}
	if m.Regs[10] != 5 {
		t.Error("a0 clobbered: instructions before the trap must have executed")
	}
}

func TestMretRestoresFlow(t *testing.T) {
	m := runAsm(t, `
        li   t0, 24
        csrw mtvec, t0
        ecall
        li   a0, 42       # resumed here? no: mepc points AT ecall
        ebreak
        nop
        # handler at 24:
        csrr t1, mepc
        addi t1, t1, 4    # skip the ecall
        csrw mepc, t1
        mret
    `, 100)
	if m.Regs[10] != 42 {
		t.Errorf("a0 = %d, want 42 (mret must resume after ecall)", m.Regs[10])
	}
}

func TestIllegalInstructionTrap(t *testing.T) {
	m := runAsm(t, `
        li   t0, 16
        csrw mtvec, t0
        .word 0xFFFFFFFF
        nop
        csrr a2, mcause
        csrr a3, mtval
        ebreak
    `, 100)
	if m.Regs[12] != riscv.CauseIllegalInst {
		t.Errorf("mcause = %d", m.Regs[12])
	}
	if m.Regs[13] != 0xFFFFFFFF {
		t.Errorf("mtval = %#x, want the faulting word", m.Regs[13])
	}
}

func TestLoadFaultOutOfRange(t *testing.T) {
	m := runAsm(t, `
        li   t0, 20
        csrw mtvec, t0
        li   t1, 0x10000
        lw   t2, 0(t1)
        nop
        csrr a2, mcause
        ebreak
    `, 100)
	if m.Regs[12] != riscv.CauseLoadFault {
		t.Errorf("mcause = %d, want load fault", m.Regs[12])
	}
}

func TestMisalignedStoreTrap(t *testing.T) {
	m := runAsm(t, `
        li   t0, 20
        csrw mtvec, t0
        li   t1, 2
        sw   t1, 1(zero)
        nop
        csrr a2, mcause
        csrr a3, mtval
        ebreak
    `, 100)
	if m.Regs[12] != riscv.CauseMisalignedStore {
		t.Errorf("mcause = %d", m.Regs[12])
	}
	if m.Regs[13] != 1 {
		t.Errorf("mtval = %d, want faulting address 1", m.Regs[13])
	}
}

func TestTimerInterrupt(t *testing.T) {
	p, err := asm.Assemble(`
        li   t0, 28
        csrw mtvec, t0
        li   t1, 0x80      # MTIE
        csrw mie, t1
        csrsi mstatus, 8   # MIE — not supported mnemonic; use csrrsi
        nop
loop:   j    loop
        # handler at 28:
        csrr a2, mcause
        ebreak
    `)
	if err != nil {
		// csrsi isn't a supported pseudo: rewrite with csrrsi.
		p, err = asm.Assemble(`
        li   t0, 28
        csrw mtvec, t0
        li   t1, 0x80
        csrw mie, t1
        csrrsi zero, mstatus, 8
        nop
loop:   j    loop
        # handler at 28:
        csrr a2, mcause
        ebreak
    `)
		if err != nil {
			t.Fatal(err)
		}
	}
	m := New(p.Text, p.Data, 64)
	for i := 0; i < 10; i++ {
		m.Step()
	}
	m.RaiseInterrupt(riscv.MIPMTIP)
	if err := m.Run(50); err != nil {
		t.Fatal(err)
	}
	if !m.Halted {
		t.Fatal("handler did not run")
	}
	if m.Regs[12] != riscv.CauseMachineTimer {
		t.Errorf("mcause = %#x, want machine timer", m.Regs[12])
	}
	// MIE must be cleared during handling, MPIE stacked.
	if m.MStatus()&riscv.MStatusMIE != 0 {
		t.Error("MIE still set inside handler")
	}
	if m.MStatus()&riscv.MStatusMPIE == 0 {
		t.Error("MPIE not stacked")
	}
}

func TestInterruptDisabledNotTaken(t *testing.T) {
	p, _ := asm.Assemble(`
        li t0, 0
loop:   addi t0, t0, 1
        li   t1, 20
        blt  t0, t1, loop
        ebreak
    `)
	m := New(p.Text, p.Data, 64)
	m.RaiseInterrupt(riscv.MIPMTIP) // pending but mie/mstatus disabled
	for _, ev := range stepToHalt(t, m, 200) {
		if ev.Trap {
			t.Fatal("masked interrupt was taken")
		}
	}
}

// stepToHalt steps m until it halts, at most maxSteps times, and
// returns the events Step reported.
func stepToHalt(t *testing.T, m *Machine, maxSteps int) []Event {
	t.Helper()
	var evs []Event
	for i := 0; i < maxSteps && !m.Halted; i++ {
		ev, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
	if !m.Halted {
		t.Fatalf("program did not halt within %d steps", maxSteps)
	}
	return evs
}

func TestCSRReadWriteSemantics(t *testing.T) {
	m := runAsm(t, `
        li    t0, 0xF0
        csrw  mscratch, t0
        csrr  t1, mscratch
        csrrs t2, mscratch, t1   # read 0xF0, set same bits
        li    t3, 0x0F
        csrrc t4, mscratch, t3   # read 0xF0, clear low bits (no-op here)
        csrr  t5, mscratch
        ebreak
    `, 100)
	if m.Regs[6] != 0xF0 || m.Regs[7] != 0xF0 || m.Regs[29] != 0xF0 {
		t.Errorf("csr reads: %x %x %x", m.Regs[6], m.Regs[7], m.Regs[29])
	}
	if m.Regs[30] != 0xF0 {
		t.Errorf("final mscratch = %#x", m.Regs[30])
	}
}

func TestDivisionEdgeCases(t *testing.T) {
	m := runAsm(t, `
        li   t0, 10
        li   t1, 0
        div  a0, t0, t1     # -1
        rem  a1, t0, t1     # 10
        li   t2, 0x80000000
        li   t3, -1
        div  a2, t2, t3     # MinInt
        rem  a3, t2, t3     # 0
        divu a4, t0, t1     # all ones
        ebreak
    `, 100)
	if m.Regs[10] != ^uint32(0) {
		t.Errorf("div by zero = %#x", m.Regs[10])
	}
	if m.Regs[11] != 10 {
		t.Errorf("rem by zero = %d", m.Regs[11])
	}
	if m.Regs[12] != 0x80000000 {
		t.Errorf("overflow div = %#x", m.Regs[12])
	}
	if m.Regs[13] != 0 {
		t.Errorf("overflow rem = %d", m.Regs[13])
	}
	if m.Regs[14] != ^uint32(0) {
		t.Errorf("divu by zero = %#x", m.Regs[14])
	}
}

func TestTraceRecordsRetirementOrder(t *testing.T) {
	p, err := asm.Assemble(`
        nop
        nop
        ebreak
    `)
	if err != nil {
		t.Fatal(err)
	}
	m := New(p.Text, p.Data, 64)
	evs := stepToHalt(t, m, 10)
	if len(evs) != 3 {
		t.Fatalf("trace length = %d", len(evs))
	}
	for i, ev := range evs {
		if ev.PC != uint32(i*4) {
			t.Errorf("trace[%d].PC = %d", i, ev.PC)
		}
	}
	if m.Retired != 3 {
		t.Errorf("retired = %d", m.Retired)
	}
}

func TestMisalignedFetchTrap(t *testing.T) {
	m := runAsm(t, `
        li   t0, 20
        csrw mtvec, t0
        li   t1, 2
        jalr zero, 1(t1)     # target 3 after lsb clear? 2+1=3 &^1 = 2 -> misaligned
        nop
        csrr a2, mcause
        ebreak
    `, 100)
	if m.Regs[12] != riscv.CauseMisalignedFetch {
		t.Errorf("mcause = %d, want misaligned fetch", m.Regs[12])
	}
}

func TestJalrClearsLowBit(t *testing.T) {
	m := runAsm(t, `
        li   t0, 13          # odd target; bit 0 must be cleared -> 12
        jalr ra, 0(t0)
        ebreak               # at byte 8? no: li(1)+jalr(1)=8; target 12 skips it
        li   a0, 1
        ebreak
    `, 100)
	if m.Regs[10] != 1 {
		t.Errorf("jalr lsb clear failed: a0 = %d", m.Regs[10])
	}
	if m.Regs[1] != 8 {
		t.Errorf("link register = %d, want 8", m.Regs[1])
	}
}

func TestAUIPC(t *testing.T) {
	m := runAsm(t, `
        nop
        auipc a0, 1          # pc=4 + 0x1000
        ebreak
    `, 10)
	if m.Regs[10] != 0x1004 {
		t.Errorf("auipc = %#x, want 0x1004", m.Regs[10])
	}
}

func TestFetchPastEndIsError(t *testing.T) {
	m := New([]uint32{0x00000013}, nil, 16) // single nop, falls off the end
	var err error
	for i := 0; i < 5 && err == nil && !m.Halted; i++ {
		_, err = m.Step()
	}
	if err == nil {
		t.Fatal("fetch past end of text should error")
	}
}

func TestSetMIEHelper(t *testing.T) {
	m := New([]uint32{0x00000013}, nil, 16)
	m.SetMIE(true)
	if m.MStatus()&riscv.MStatusMIE == 0 {
		t.Error("SetMIE(true)")
	}
	m.SetMIE(false)
	if m.MStatus()&riscv.MStatusMIE != 0 {
		t.Error("SetMIE(false)")
	}
}

func TestInterruptPriorityOrder(t *testing.T) {
	// All three pending: external must win, then software, then timer.
	p, _ := asm.Assemble(`
        li   t0, 16
        csrw mtvec, t0
        li   t1, 0x888
        csrw mie, t1
        # handler at 16:
        csrr a2, mcause
        ebreak
    `)
	m := New(p.Text, p.Data, 16)
	m.Run(4) // execute setup
	m.RaiseInterrupt(riscv.MIPMTIP)
	m.RaiseInterrupt(riscv.MIPMSIP)
	m.RaiseInterrupt(riscv.MIPMEIP)
	m.SetMIE(true)
	if err := m.Run(20); err != nil {
		t.Fatal(err)
	}
	if m.Regs[12] != riscv.CauseMachineExternal {
		t.Errorf("first cause = %#x, want external", m.Regs[12])
	}
	// External acknowledged on entry; software still pending.
	if m.CSR[7]&riscv.MIPMEIP != 0 { // mip index 7
		t.Error("external not acknowledged")
	}
	if m.CSR[7]&riscv.MIPMSIP == 0 || m.CSR[7]&riscv.MIPMTIP == 0 {
		t.Error("other pending bits must survive")
	}
}

func TestWFIAndFenceAreNops(t *testing.T) {
	m := runAsm(t, `
        li a0, 1
        wfi
        fence
        addi a0, a0, 1
        ebreak
    `, 20)
	if m.Regs[10] != 2 {
		t.Errorf("a0 = %d", m.Regs[10])
	}
}
