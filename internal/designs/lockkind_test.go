package designs

import (
	"testing"

	"xpdl/internal/workloads"
)

// The lock kind is a microarchitectural choice: architectural results are
// identical; only timing differs.
func TestBasicRfLockSameResultsSlowerCycles(t *testing.T) {
	w, err := workloads.ByName("fib") // dependent ALU chain: worst case for basic locks
	if err != nil {
		t.Fatal(err)
	}
	prog, _ := w.Assemble()

	renaming := build(t, All)
	runOn(t, renaming, prog, w.MaxSteps*10, nil)
	checkGolden(t, renaming, prog, 0, 0)
	basic := buildAll(t, BasicRfSource())
	runOn(t, basic, prog, w.MaxSteps*10, nil)
	checkGolden(t, basic, prog, 0, 0)

	if basic.M.Cycle() <= renaming.M.Cycle() {
		t.Errorf("basic lock (%d cycles) should be slower than renaming (%d) on dependent code",
			basic.M.Cycle(), renaming.M.Cycle())
	}
	t.Logf("fib: renaming CPI %.3f, basic CPI %.3f", renaming.CPI(), basic.CPI())
}

func TestBasicRfHandlesExceptions(t *testing.T) {
	p := buildAll(t, BasicRfSource())
	prog := mustAsm(t, `
        li   t0, 28
        csrw mtvec, t0
        li   s0, 5
        .word 0xFFFFFFFF
        sw   s0, 0(zero)
        ebreak
        nop
        # handler (byte 28):
        csrr s3, mepc
        addi s3, s3, 4
        csrw mepc, s3
        mret
`)
	runOn(t, p, prog, 10000, nil)
	checkGolden(t, p, prog, 0, 0)
	if p.DMemWord(0) != 5 {
		t.Error("program did not complete after the handled fault")
	}
}
