package cosim

import (
	"errors"
	"strings"
	"testing"

	"xpdl/internal/asm"
	"xpdl/internal/designs"
	"xpdl/internal/riscv"
	"xpdl/internal/synth"
	"xpdl/internal/workloads"
)

func mustAsm(t *testing.T, src string) *asm.Program {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func run(t *testing.T, opts Options) *Result {
	t.Helper()
	res, err := Run(opts)
	if err != nil {
		t.Fatalf("%s: %v", opts.Variant, err)
	}
	return res
}

// --- programs -------------------------------------------------------------

// progALU exercises every ALU op plus signed division corner cases.
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
        div  s8, a0, a1
        rem  s9, a0, a1
        li   t0, -13
        div  s10, t0, a1
        rem  s11, t0, a1
        ebreak
`

// progMem exercises sub-word loads/stores through the bypass-locked
// data memory (staged-write forwarding in the RTL).
const progMem = `
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

// progLoop runs a dependent-add loop: branches, forwarding, queue churn.
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

// progFatal hits an illegal instruction; the fatal variants must commit
// everything older and nothing younger.
const progFatal = `
        li   t0, 7
        sw   t0, 0(zero)
        .word 0xFFFFFFFF
        li   t1, 9
        sw   t1, 4(zero)
        ebreak
`

// progIllegalTrap traps on an illegal instruction into a handler that
// reads mepc/mcause/mtval and resumes past the faulting word.
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

// progCSR hammers CSR reads/writes, which retire through the except
// chain (kind KCSR) on the CSR-capable variants.
const progCSR = `
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

// progEcall takes a synchronous trap into a software handler and
// returns past it (fully featured variants).
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

// progInterrupt loops while an external interrupt fires mid-flight.
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

// progTrapInterrupt is the no-csrw interrupt kernel for the Trap
// variant: firmware presets mtvec/mie/mstatus from outside.
const progTrapInterrupt = `
        li   t2, 0
        li   t3, 120
loop:   addi t2, t2, 1
        bne  t2, t3, loop
        sw   t2, 0(zero)
        ebreak
        nop
        nop
        # handler (byte 36): counts, no CSR instructions available
        lw   s2, 4(zero)
        addi s2, s2, 1
        sw   s2, 4(zero)
        mret
`

var trapFirmware = map[string]uint32{
	"mtvec":   36,
	"mie":     riscv.MIPMTIP | riscv.MIPMEIP,
	"mstatus": riscv.MStatusMIE,
}

// --- the matrix -----------------------------------------------------------

// TestLockstepAllVariants drives every variant over the plain kernels:
// zero divergence, zero cycle offset.
func TestLockstepAllVariants(t *testing.T) {
	progs := map[string]string{"alu": progALU, "mem": progMem, "loop": progLoop}
	for _, v := range designs.Variants() {
		for name, src := range progs {
			t.Run(v.String()+"/"+name, func(t *testing.T) {
				run(t, Options{Variant: v, Program: mustAsm(t, src)})
			})
		}
	}
}

// TestLockstepExceptions covers the exceptional paths: fatal halts and
// trap-and-resume flows.
func TestLockstepExceptions(t *testing.T) {
	t.Run("fatal/illegal", func(t *testing.T) {
		run(t, Options{Variant: designs.Fatal, Program: mustAsm(t, progFatal)})
	})
	t.Run("all/illegal", func(t *testing.T) {
		run(t, Options{Variant: designs.All, Program: mustAsm(t, progIllegalTrap)})
	})
	for _, v := range []designs.Variant{designs.CSR, designs.All} {
		t.Run(v.String()+"/csr", func(t *testing.T) {
			run(t, Options{Variant: v, Program: mustAsm(t, progCSR)})
		})
	}
	t.Run("all/ecall", func(t *testing.T) {
		run(t, Options{Variant: designs.All, Program: mustAsm(t, progEcall)})
	})
}

// TestGoldenDiffReadsCheckedState: the golden diff reads the
// simulator's register file, data memory and CSRs in place of the
// RTL's. That stands only while the lockstep compares cover all three:
// rf and dmem must be locked memories (finalDiff rechecks every word)
// and every volatile must be probed (compared at every clock edge).
func TestGoldenDiffReadsCheckedState(t *testing.T) {
	for _, v := range designs.Variants() {
		h, err := newHarness(Options{Variant: v, Program: mustAsm(t, progLoop)})
		if err != nil {
			t.Fatal(err)
		}
		mems := map[string]bool{}
		for _, mp := range h.pr.mems {
			mems[mp.mem.Name] = true
		}
		if !mems["rf"] || !mems["dmem"] {
			t.Errorf("%s: locked memories %v lack rf or dmem", v, mems)
		}
		if got, want := len(h.pr.vols), len(h.p.Design.Prog.Vols); got != want {
			t.Errorf("%s: %d of %d volatiles probed", v, got, want)
		}
	}
}

// TestLockstepInterrupts delivers an asynchronous interrupt to both
// machines at the same device-visible cycle.
func TestLockstepInterrupts(t *testing.T) {
	// Interrupt claiming belongs to the trap feature group, so only the
	// trap-capable variants appear here.
	t.Run("all", func(t *testing.T) {
		run(t, Options{
			Variant: designs.All, Program: mustAsm(t, progInterrupt),
			InterruptAt: 60, InterruptBit: riscv.MIPMTIP,
		})
	})
	t.Run("trap/firmware", func(t *testing.T) {
		run(t, Options{
			Variant: designs.Trap, Program: mustAsm(t, progTrapInterrupt),
			Firmware:    trapFirmware,
			InterruptAt: 40, InterruptBit: riscv.MIPMTIP,
		})
	})
}

// TestLockstepInterp repeats a representative slice of the matrix with
// the simulator's AST-interpreter and bytecode-VM executors (the rest of
// the suite runs the default one): the RTL must agree with every
// executor identically. Subtests past the interp pass carry the engine
// as a suffix.
func TestLockstepInterp(t *testing.T) {
	for _, engine := range []string{"interp", "vm"} {
		sfx := ""
		if engine != "interp" {
			sfx = "-" + engine
		}
		for _, v := range designs.Variants() {
			t.Run(v.String()+"/loop"+sfx, func(t *testing.T) {
				run(t, Options{Variant: v, Program: mustAsm(t, progLoop), Engine: engine})
			})
		}
		t.Run("all/ecall"+sfx, func(t *testing.T) {
			run(t, Options{Variant: designs.All, Program: mustAsm(t, progEcall), Engine: engine})
		})
		t.Run("all/interrupt"+sfx, func(t *testing.T) {
			run(t, Options{
				Variant: designs.All, Program: mustAsm(t, progInterrupt), Engine: engine,
				InterruptAt: 60, InterruptBit: riscv.MIPMTIP,
			})
		})
	}
}

// TestLockstepChaos perturbs the simulator's timing with the
// deterministic fault injector (stalls, extern jitter, entry
// backpressure) — the RTL replays the mangled schedule and must still
// match cycle-for-cycle. Interrupt-capable variants additionally take
// seed-driven interrupt storms.
func TestLockstepChaos(t *testing.T) {
	seeds := []uint64{0xC051, 0xC052, 0xC053, 0xC054}
	for _, v := range designs.Variants() {
		for _, seed := range seeds {
			t.Run(v.String(), func(t *testing.T) {
				run(t, Options{
					Variant: v, Program: mustAsm(t, progLoop),
					ChaosSeed: seed,
				})
			})
		}
	}
	// Masked storms: the kernel leaves MIE clear, so pulses accumulate
	// in mip without being claimed — exercising the device-port path at
	// the injector's full 10%/cycle rate.
	for _, seed := range seeds {
		t.Run("all/storm-masked", func(t *testing.T) {
			run(t, Options{
				Variant: designs.All, Program: mustAsm(t, progLoop),
				ChaosSeed: seed, Storm: true,
			})
		})
	}
	// Enabled storms: the handler claims pulses as they land; the rate
	// is lowered so forward progress outruns the interrupt stream.
	for _, seed := range seeds {
		t.Run("all/storm-enabled", func(t *testing.T) {
			run(t, Options{
				Variant: designs.All, Program: mustAsm(t, progInterrupt),
				ChaosSeed: seed, Storm: true, StormPct: 1,
			})
		})
	}
	t.Run("all/storm+interp", func(t *testing.T) {
		run(t, Options{
			Variant: designs.All, Program: mustAsm(t, progInterrupt),
			ChaosSeed: seeds[0], Storm: true, StormPct: 1, Engine: "interp",
		})
	})
}

// TestLockstepWorkloads runs real report kernels through cosimulation
// end to end: fib (short) on every variant, and the heavier aes and
// crc kernels on the extreme variants unless -short.
func TestLockstepWorkloads(t *testing.T) {
	cosimKernel := func(t *testing.T, name string, v designs.Variant, minRetired int) {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := w.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		res := run(t, Options{Variant: v, Program: prog, MaxCycles: 8 * w.MaxSteps})
		t.Logf("%s/%s: %d instructions in %d cycles", v, name, res.Retired, res.Cycles)
		if res.Retired < minRetired {
			t.Errorf("workload retired only %d instructions; not a real run", res.Retired)
		}
	}
	for _, v := range designs.Variants() {
		t.Run(v.String()+"/fib", func(t *testing.T) { cosimKernel(t, "fib", v, 200) })
	}
	if testing.Short() {
		t.Skip("heavy kernels skipped in -short")
	}
	for _, v := range []designs.Variant{designs.Base, designs.All} {
		t.Run(v.String()+"/aes", func(t *testing.T) { cosimKernel(t, "aes", v, 4000) })
	}
	t.Run("all/crc", func(t *testing.T) { cosimKernel(t, "crc", designs.All, 10000) })
}

// TestSeededEmitterBugCaught mutates the emitted Verilog the way a
// classic emitter bug would (dropping the global-exception-flag commit,
// i.e. one broken nonblocking assign) and requires the harness to
// report a divergence rather than pass silently. This is the
// harness-validates-itself check: cosim must have the power to fail.
func TestSeededEmitterBugCaught(t *testing.T) {
	p, err := designs.Build(designs.All)
	if err != nil {
		t.Fatal(err)
	}
	text, _ := synth.VerilogPlans(p.Design.Info, p.Design.Translations)

	mutations := []struct {
		name, from, to string
		want           DivergenceError
	}{
		{"gef-commit-dropped", "gef_q <= gef_cur;", "gef_q <= 1'b0;",
			DivergenceError{Cycle: 6, Signal: "gef_q", Got: 0, Want: 1, Detail: "global exception flag"}},
		{"mepc-commit-dropped", "mepc_q <= mepc_cur;", "mepc_q <= mepc_q;",
			DivergenceError{Cycle: 17, Signal: "mepc_q", Got: 0, Want: 0x10, Detail: "volatile register"}},
	}
	for _, mut := range mutations {
		t.Run(mut.name, func(t *testing.T) {
			if !strings.Contains(text, mut.from) {
				t.Fatalf("emitted verilog lost the %q assign; update the mutation", mut.from)
			}
			bad := strings.Replace(text, mut.from, mut.to, 1)
			_, err := Run(Options{
				Variant: designs.All, Program: mustAsm(t, progEcall),
				Verilog: bad,
			})
			var div *DivergenceError
			if !errors.As(err, &div) {
				t.Fatalf("seeded emitter bug not caught as divergence: %v", err)
			}
			if *div != mut.want {
				t.Fatalf("caught %v, want %v", div, &mut.want)
			}
		})
	}
}

// TestCompareStateAllocFree: once a run is in steady state, a matching
// compare of every stage register, volatile, queue slot and memory word
// allocates nothing — names are built only for a divergence.
func TestCompareStateAllocFree(t *testing.T) {
	w, err := workloads.ByName("fib")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := w.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	h, err := newHarness(Options{Variant: designs.All, Program: prog})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.boot(); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 200; c++ {
		if err := h.cycle(c == 0); err != nil {
			t.Fatal(err)
		}
	}
	if h.p.M.InFlight() == 0 {
		t.Fatal("fib drained within 200 cycles; pick a later compare point")
	}
	// A multiple of DMemEvery, so the data memory is compared too.
	cycle := 4 * h.opts.DMemEvery
	allocs := testing.AllocsPerRun(20, func() {
		if err := h.compareState(cycle); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("compareState allocates %.1f times per call, want 0", allocs)
	}
}
