package designs

import (
	"strings"
	"testing"

	"xpdl/internal/riscv"
)

func replaceOnce(s, old, new string) string {
	return strings.Replace(s, old, new, 1)
}

// §3.5e: "Exception handling is strictly non-speculative. Misspeculative
// instructions cannot raise exceptions." A wrong-path faulting load must
// be squashed without any trap being taken.
func TestWrongPathFaultRaisesNoException(t *testing.T) {
	src := `
        li   t0, 48
        csrw mtvec, t0
        li   t1, 1
        li   t2, 0x10000       # faulting address
        bnez t1, safe          # always taken; fall-through is wrong path
        lw   t3, 0(t2)         # wrong path: would fault if executed
        sw   t3, 0(zero)
safe:   li   t4, 77
        sw   t4, 4(zero)
        ebreak
        nop
        nop
        # handler (byte 48): count trap entries
        lw   s2, 8(zero)
        addi s2, s2, 1
        sw   s2, 8(zero)
        csrr s3, mepc
        addi s3, s3, 4
        csrw mepc, s3
        mret
`
	p := equivalent(t, All, src, 5000)
	if p.DMemWord(2) != 0 {
		t.Errorf("wrong-path fault entered the handler %d times; speculative instructions must not throw", p.DMemWord(2))
	}
	if p.DMemWord(1) != 77 {
		t.Error("correct path did not complete")
	}
	for _, r := range p.Retired() {
		// CSR instructions retire exceptionally (kind KCSR) by design;
		// only a trap or interrupt here would betray a wrong-path fault.
		if r.Exceptional && (r.EArgs[0].Uint() == KTrap || r.EArgs[0].Uint() == KInt) {
			t.Errorf("trap taken at pc %#x from a squashed path", r.Args[0].Uint())
		}
	}
}

// §3.5d: exceptional instructions leave no visible trace — the
// Meltdown-style scenario. A faulting load must not move data anywhere
// an attacker could observe: no register change, no memory change, no
// lock residue.
func TestMeltdownStyleNoVisibleTrace(t *testing.T) {
	src := `
        li   t0, 64
        csrw mtvec, t0
        li   s0, 0xAAAA        # canary in the "secret" observation regs
        li   s1, 0xBBBB
        li   t1, 0x10000       # inaccessible address
        lw   s0, 0(t1)         # faults: s0 must keep its canary
        slli s1, s0, 2         # younger dependent: unexecuted
        sw   s1, 32(zero)      # younger store: must not land
        ebreak
        nop
        nop
        nop
        nop
        # handler (byte 64): skip the faulting load, then re-run the rest
        csrr s3, mepc
        addi s3, s3, 4
        csrw mepc, s3
        mret
`
	p := equivalent(t, All, src, 5000)
	// The faulting load's destination keeps its canary (condition 3).
	if p.Reg(8) != 0xAAAA {
		t.Errorf("s0 = %#x; the faulting load must not write its destination", p.Reg(8))
	}
	// The dependent computation re-ran AFTER the handler with the canary
	// value, so the store observes 0xAAAA<<2 — not secret-derived data.
	if got := p.DMemWord(8); got != 0xAAAA<<2 {
		t.Errorf("dmem[8] = %#x, want canary-derived %#x", got, 0xAAAA<<2)
	}
	if p.M.InFlight() != 0 {
		t.Error("lock/pipeline residue after the exception")
	}
}

// Fig. 9 (non-reentrant): with MIE cleared during handling, a second
// interrupt raised mid-handler waits and the two are handled strictly in
// the order they were raised.
func TestNonReentrantInterruptsHandledInOrder(t *testing.T) {
	src := `
        li   t0, 80
        csrw mtvec, t0
        li   t1, 0x880         # MEIE|MTIE
        csrw mie, t1
        csrrsi zero, mstatus, 8
        li   t2, 0
        li   t3, 2000
loop:   addi t2, t2, 1
        bne  t2, t3, loop
        sw   t2, 0(zero)
        ebreak
        nop
        nop
        nop
        nop
        nop
        nop
        nop
        nop
        # handler (byte 80): append mcause to a log, spin a while
        csrr s2, mcause
        lw   s3, 4(zero)       # log index
        slli s4, s3, 2
        addi s4, s4, 32
        sw   s2, 0(s4)         # log[i] = cause (at bytes 32+)
        addi s3, s3, 1
        sw   s3, 4(zero)
        li   s5, 40            # dwell inside the handler
dwell:  addi s5, s5, -1
        bnez s5, dwell
        mret
`
	prog := mustAsm(t, src)
	p := build(t, All)
	raised := runOn(t, p, prog, 100000, map[int]uint32{
		100: riscv.MIPMTIP, // timer first
		130: riscv.MIPMEIP, // external arrives mid-handler
	})
	checkGolden(t, p, prog, riscv.MIPMTIP|riscv.MIPMEIP, raised)
	if got := p.DMemWord(1); got != 2 {
		t.Fatalf("handled %d interrupts, want 2", got)
	}
	first, second := p.DMemWord(8), p.DMemWord(9)
	if first != uint32(riscv.CauseMachineTimer) {
		t.Errorf("first handled cause %#x, want the earlier-raised timer", first)
	}
	if second != uint32(riscv.CauseMachineExternal) {
		t.Errorf("second handled cause %#x, want external", second)
	}
	if p.DMemWord(0) != 2000 {
		t.Error("main loop corrupted")
	}
}

// Fig. 9 (reentrant): the timer handler re-enables MIE, so the external
// interrupt arriving mid-handler preempts it — the nested handler
// completes (exit-logs) before the preempted outer one. The handler
// dispatches on mcause; the two paths use disjoint registers, and the
// outer path keeps its return pc in a register the nested path never
// touches (the nested trap overwrites the mepc CSR).
func TestReentrantInterruptPreempts(t *testing.T) {
	src := `
        la   t0, handler
        csrw mtvec, t0
        li   t1, 0x880         # MEIE|MTIE
        csrw mie, t1
        csrrsi zero, mstatus, 8
        li   t2, 0
        li   t3, 2000
loop:   addi t2, t2, 1
        bne  t2, t3, loop
        sw   t2, 0(zero)
        ebreak

handler:
        csrr a2, mcause
        andi a3, a2, 15
        li   a4, 11
        beq  a3, a4, exth      # external -> nested path

        # --- timer (outer) path: registers s2..s6 ---
        lw   s3, 4(zero)       # entry count
        slli s4, s3, 2
        addi s4, s4, 32
        sw   a2, 0(s4)         # entry log at bytes 32+
        addi s3, s3, 1
        sw   s3, 4(zero)
        csrr s6, mepc          # keep the return pc in s6: the nested
        csrrsi zero, mstatus, 8   # trap will overwrite the mepc CSR
        li   s5, 60
tdwell: addi s5, s5, -1
        bnez s5, tdwell
        csrrci zero, mstatus, 8   # close the window
        lw   s3, 8(zero)       # exit count
        slli s4, s3, 2
        addi s4, s4, 64
        li   s2, 0x80000007    # my cause (a2 was clobbered by nesting)
        sw   s2, 0(s4)         # exit log at bytes 64+
        addi s3, s3, 1
        sw   s3, 8(zero)
        csrw mepc, s6
        mret

        # --- external (nested) path: registers s8..s9 only ---
exth:   lw   s8, 4(zero)
        slli s9, s8, 2
        addi s9, s9, 32
        sw   a2, 0(s9)         # entry log
        addi s8, s8, 1
        sw   s8, 4(zero)
        lw   s8, 8(zero)
        slli s9, s8, 2
        addi s9, s9, 64
        sw   a2, 0(s9)         # exit log
        addi s8, s8, 1
        sw   s8, 8(zero)
        mret                   # mepc CSR still holds the interrupted pc
`
	prog := mustAsm(t, src)
	p := build(t, All)
	raised := runOn(t, p, prog, 200000, map[int]uint32{
		100: riscv.MIPMTIP, // outer: timer
		170: riscv.MIPMEIP, // nested: external, mid-dwell
	})
	checkGolden(t, p, prog, riscv.MIPMTIP|riscv.MIPMEIP, raised)
	if got := p.DMemWord(1); got != 2 {
		t.Fatalf("entered the handler %d times, want 2", got)
	}
	// Entry order: timer then external. Exit order: external first — the
	// nested handler completed before the preempted outer one.
	if p.DMemWord(8) != uint32(riscv.CauseMachineTimer) ||
		p.DMemWord(9) != uint32(riscv.CauseMachineExternal) {
		t.Errorf("entry log = %#x, %#x", p.DMemWord(8), p.DMemWord(9))
	}
	if p.DMemWord(16) != uint32(riscv.CauseMachineExternal) {
		t.Errorf("exit log starts with %#x; the nested interrupt must finish first", p.DMemWord(16))
	}
	if p.DMemWord(17) != uint32(riscv.CauseMachineTimer) {
		t.Errorf("outer handler exit missing: %#x", p.DMemWord(17))
	}
	if p.DMemWord(0) != 2000 {
		t.Error("main loop corrupted")
	}
}
