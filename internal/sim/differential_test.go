// Differential testing of the three stage executors: every run is
// performed once per engine on identical machines — the AST
// interpreter (the executable specification), the compile-once
// closure executor, and the bytecode VM — and the complete observable
// state is compared pairwise against the interpreter: cycle count,
// firing count, the full retirement trace (pipe, iid, arguments,
// exceptional flag, exception arguments, retire cycle), architectural
// registers, data memory, every declared volatile, and the in-flight
// count. Any divergence is an executor bug by construction, since the
// interpreter is the executable specification.
package sim_test

import (
	"errors"
	"testing"

	"xpdl/internal/asm"
	"xpdl/internal/designs"
	"xpdl/internal/riscv"
	"xpdl/internal/sim"
	"xpdl/internal/workloads"
)

// buildEngine constructs a machine for a variant on one executor.
func buildEngine(t *testing.T, v designs.Variant, engine string) *designs.Processor {
	t.Helper()
	p, err := designs.BuildCfg(v, sim.Config{Engine: engine})
	if err != nil {
		t.Fatalf("build %s %s: %v", engine, v, err)
	}
	return p
}

// runOne loads, boots and runs a single processor, returning the cycle
// count. hook (optional) installs per-machine devices before the run.
func runOne(t *testing.T, p *designs.Processor, src string, maxCycles int, hook func(*designs.Processor)) int {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	if err := p.Load(prog); err != nil {
		t.Fatal(err)
	}
	if err := p.Boot(); err != nil {
		t.Fatal(err)
	}
	if hook != nil {
		hook(p)
	}
	n, err := p.Run(maxCycles)
	var cb *sim.CycleBudgetError
	if err != nil && !errors.As(err, &cb) {
		// Budget exhaustion is fine: free-running workloads (e.g. a trap
		// handler that never halts) are compared at the cycle horizon.
		t.Fatalf("run: %v", err)
	}
	return n
}

// compareMachines diffs every observable between two executors; la/lb
// name them in failure messages (lb is the reference).
func compareMachines(t *testing.T, la, lb string, c, i *designs.Processor, cCycles, iCycles int) {
	t.Helper()
	if cCycles != iCycles {
		t.Errorf("cycle count: %s %d, %s %d", la, cCycles, lb, iCycles)
	}
	if cf, fi := c.M.Firings(), i.M.Firings(); cf != fi {
		t.Errorf("firings: %s %d, %s %d", la, cf, lb, fi)
	}
	if cf, fi := c.M.InFlight(), i.M.InFlight(); cf != fi {
		t.Errorf("in-flight: %s %d, %s %d", la, cf, lb, fi)
	}

	crs, irs := c.M.Retired(), i.M.Retired()
	if len(crs) != len(irs) {
		t.Fatalf("retirement trace length: %s %d, %s %d", la, len(crs), lb, len(irs))
	}
	for k := range crs {
		cr, ir := crs[k], irs[k]
		if cr.Pipe != ir.Pipe || cr.IID != ir.IID || cr.Cycle != ir.Cycle || cr.Exceptional != ir.Exceptional {
			t.Fatalf("retirement %d: %s %+v, %s %+v", k, la, cr, lb, ir)
		}
		if len(cr.Args) != len(ir.Args) || len(cr.EArgs) != len(ir.EArgs) {
			t.Fatalf("retirement %d arg shapes differ: %s %+v, %s %+v", k, la, cr, lb, ir)
		}
		for a := range cr.Args {
			if cr.Args[a].Uint() != ir.Args[a].Uint() || cr.Args[a].Width() != ir.Args[a].Width() {
				t.Fatalf("retirement %d arg %d: %s %v, %s %v", k, a, la, cr.Args[a], lb, ir.Args[a])
			}
		}
		for a := range cr.EArgs {
			if cr.EArgs[a].Uint() != ir.EArgs[a].Uint() || cr.EArgs[a].Width() != ir.EArgs[a].Width() {
				t.Fatalf("retirement %d earg %d: %s %v, %s %v", k, a, la, cr.EArgs[a], lb, ir.EArgs[a])
			}
		}
	}

	for r := uint32(1); r < 32; r++ {
		if cv, iv := c.Reg(r), i.Reg(r); cv != iv {
			t.Errorf("x%d: %s %#x, %s %#x", r, la, cv, lb, iv)
		}
	}
	for w := uint32(0); w < designs.DMemWords; w++ {
		if cv, iv := c.DMemWord(w), i.DMemWord(w); cv != iv {
			t.Errorf("dmem[%d]: %s %#x, %s %#x", w, la, cv, lb, iv)
		}
	}
	for _, vd := range c.Design.Prog.Vols {
		cv, iv := c.M.VolPeek(vd.Name), i.M.VolPeek(vd.Name)
		if cv.Uint() != iv.Uint() {
			t.Errorf("volatile %s: %s %#x, %s %#x", vd.Name, la, cv.Uint(), lb, iv.Uint())
		}
	}
}

// differential runs src on all three executors of a variant and
// compares each compiled executor against the interpreter oracle.
func differential(t *testing.T, v designs.Variant, src string, maxCycles int, hook func(*designs.Processor)) {
	t.Helper()
	engines := sim.Engines()
	ps := make(map[string]*designs.Processor, len(engines))
	ns := make(map[string]int, len(engines))
	for _, eng := range engines {
		p := buildEngine(t, v, eng)
		ps[eng] = p
		ns[eng] = runOne(t, p, src, maxCycles, hook)
	}
	for _, eng := range engines[1:] {
		compareMachines(t, eng, "interp", ps[eng], ps["interp"], ns[eng], ns["interp"])
	}
}

// TestDifferentialWorkloads runs every workload kernel on every
// processor variant under all three executors. The kernels are branch-
// and memory-heavy, so they exercise speculative fetch, mispredict
// squash, renaming/bypass/basic lock traffic, and multi-stage
// retirement.
func TestDifferentialWorkloads(t *testing.T) {
	vs := designs.Variants()
	ws := workloads.All()
	if testing.Short() {
		vs = []designs.Variant{designs.Base, designs.All}
		ws = ws[:3]
	}
	for _, v := range vs {
		for _, w := range ws {
			t.Run(v.String()+"/"+w.Name, func(t *testing.T) {
				t.Parallel()
				differential(t, v, w.Source, w.MaxSteps*8, nil)
			})
		}
	}
}

// progTrapEcall exercises the full trap flow: throw mid-pipeline,
// pipeclear, CSR volatile writes in the except block, and the mret
// return path.
const progTrapEcall = `
        li   t0, 48
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

// progTrapIllegal throws from the decode stage with younger in-flight
// instructions behind it (they must be squashed and re-fetched).
const progTrapIllegal = `
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

// progTrapMemFault throws from the memory stage — the deepest throw
// point, after speculation has run ahead the furthest.
const progTrapMemFault = `
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

// progCSROps hammers the CSR volatiles with every read-modify-write
// form (each retires through the exceptional path on the csr variant).
const progCSROps = `
        li    t0, 0x1234
        csrw  mscratch, t0
        csrr  t1, mscratch
        csrrs t2, mscratch, t1
        li    t3, 0xFF
        csrrc t4, mscratch, t3
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

// progFatalIllegal drives the fatal (abort) translation: gef is set,
// locks Abort, and the machine drains without retiring younger work.
const progFatalIllegal = `
        li   t0, 7
        sw   t0, 0(zero)
        .word 0xFFFFFFFF
        li   t1, 9
        sw   t1, 4(zero)
        ebreak
`

// progSpeculation is a tight mispredict loop: every taken backward
// branch squashes the speculated fall-through instructions.
const progSpeculation = `
        li   t0, 0
        li   t1, 25
loop:
        addi t0, t0, 1
        andi t2, t0, 3
        bne  t2, zero, loop
        addi t3, t3, 1
        blt  t0, t1, loop
        sw   t0, 0(zero)
        sw   t3, 4(zero)
        ebreak
`

// TestDifferentialExceptions covers the exception-heavy paths:
// mid-pipeline throws at several depths, volatile (CSR) writes in
// commit and except blocks, speculation squash storms, and the fatal
// abort translation.
func TestDifferentialExceptions(t *testing.T) {
	cases := []struct {
		name string
		v    designs.Variant
		src  string
	}{
		{"ecall-roundtrip", designs.All, progTrapEcall},
		{"illegal-trap", designs.All, progTrapIllegal},
		{"memfault-trap", designs.All, progTrapMemFault},
		{"csr-ops", designs.All, progCSROps},
		{"csr-ops-csrvariant", designs.CSR, progCSROps},
		{"fatal-illegal", designs.Fatal, progFatalIllegal},
		{"fatal-trap-variant", designs.Trap, progTrapIllegal},
		{"squash-storm", designs.All, progSpeculation},
		{"squash-storm-base", designs.Base, progSpeculation},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			differential(t, tc.v, tc.src, 10000, nil)
		})
	}
}

// TestDifferentialInterrupt injects a timer interrupt at the same cycle
// on all machines: the asynchronous-exception path (gef set by the
// interrupt check, not by a throw) must also be executor-independent.
func TestDifferentialInterrupt(t *testing.T) {
	const src = `
        li   t0, 64
        csrw mtvec, t0
        li   t1, 0x80
        csrw mie, t1            # MTIE
        li   t1, 0x8
        csrw mstatus, t1        # MIE
        li   s0, 0
loop:
        addi s0, s0, 1
        li   s1, 400
        blt  s0, s1, loop
        sw   s0, 0(zero)
        ebreak
        nop
        nop
        # handler (byte 64):
        csrr s2, mcause
        li   s3, 0x80
        csrw mip, zero          # ack timer
        csrr s4, mepc
        mret
`
	hook := func(p *designs.Processor) {
		p.M.OnCycle(func(m *sim.Machine) {
			if m.Cycle() == 120 {
				p.RaiseInterrupt(riscv.MIPMTIP)
			}
		})
	}
	differential(t, designs.All, src, 20000, hook)
}
