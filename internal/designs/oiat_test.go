package designs

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xpdl/internal/asm"
	"xpdl/internal/riscv"
)

// genProgram builds a random but always-terminating RV32IM program that
// may fault, trap, and execute CSR instructions. The trap handler advances
// mepc past the offending instruction and returns, so every synchronous
// exception is survivable. Register conventions: x5..x15 are the random
// pool, a6 (x16) holds generated addresses, s11 (x27) is handler scratch.
func genProgram(rng *rand.Rand, withInterrupts bool) string {
	var b strings.Builder
	reg := func() string { return fmt.Sprintf("x%d", 5+rng.Intn(11)) }

	b.WriteString("        li   t4, 0\n") // t4 = x29 reserved zero-ish
	b.WriteString("        la   t4, handler\n")
	b.WriteString("        csrw mtvec, t4\n")
	if withInterrupts {
		b.WriteString("        li   t4, 0x888\n")
		b.WriteString("        csrw mie, t4\n")
		b.WriteString("        csrrsi zero, mstatus, 8\n")
	}
	// Seed the pool with values.
	for i := 5; i <= 15; i++ {
		fmt.Fprintf(&b, "        li   x%d, %d\n", i, rng.Int31n(1<<20)-1<<19)
	}

	aluOps := []string{"add", "sub", "xor", "or", "and", "sll", "srl", "sra",
		"slt", "sltu", "mul", "mulh", "mulhu", "div", "divu", "rem", "remu"}
	immOps := []string{"addi", "xori", "ori", "andi", "slti", "sltiu"}

	segments := 25 + rng.Intn(25)
	for i := 0; i < segments; i++ {
		switch rng.Intn(12) {
		case 0, 1, 2:
			fmt.Fprintf(&b, "        %s %s, %s, %s\n",
				aluOps[rng.Intn(len(aluOps))], reg(), reg(), reg())
		case 3, 4:
			fmt.Fprintf(&b, "        %s %s, %s, %d\n",
				immOps[rng.Intn(len(immOps))], reg(), reg(), rng.Int31n(4096)-2048)
		case 5:
			fmt.Fprintf(&b, "        %si %s, %s, %d\n",
				[]string{"sll", "srl", "sra"}[rng.Intn(3)], reg(), reg(), rng.Intn(32))
		case 6: // aligned word store+load
			addr := 4 * (16 + rng.Intn(1000))
			fmt.Fprintf(&b, "        li   a6, %d\n", addr)
			fmt.Fprintf(&b, "        sw   %s, 0(a6)\n", reg())
			fmt.Fprintf(&b, "        lw   %s, 0(a6)\n", reg())
		case 7: // byte/half traffic
			addr := 64 + rng.Intn(4000)
			op := []string{"sb", "sh"}[rng.Intn(2)]
			if op == "sh" {
				addr &^= 1
			}
			fmt.Fprintf(&b, "        li   a6, %d\n", addr)
			fmt.Fprintf(&b, "        %s   %s, 0(a6)\n", op, reg())
			fmt.Fprintf(&b, "        %s  %s, 0(a6)\n",
				[]string{"lbu", "lb"}[rng.Intn(2)], reg())
		case 8: // forward branch over one segment
			fmt.Fprintf(&b, "        b%s %s, %s, fwd%d\n",
				[]string{"eq", "ne", "lt", "ge", "ltu", "geu"}[rng.Intn(6)],
				reg(), reg(), i)
			fmt.Fprintf(&b, "        addi %s, %s, 1\n", reg(), reg())
			fmt.Fprintf(&b, "fwd%d:  addi %s, %s, 2\n", i, reg(), reg())
		case 9: // bounded backward loop
			n := 2 + rng.Intn(4)
			fmt.Fprintf(&b, "        li   t5, %d\n", n)
			fmt.Fprintf(&b, "lp%d:   add  %s, %s, %s\n", i, reg(), reg(), reg())
			fmt.Fprintf(&b, "        addi t5, t5, -1\n")
			fmt.Fprintf(&b, "        bnez t5, lp%d\n", i)
		case 10: // CSR traffic on mscratch
			switch rng.Intn(3) {
			case 0:
				fmt.Fprintf(&b, "        csrw mscratch, %s\n", reg())
			case 1:
				fmt.Fprintf(&b, "        csrr %s, mscratch\n", reg())
			case 2:
				fmt.Fprintf(&b, "        csrrs %s, mscratch, %s\n", reg(), reg())
			}
		case 11: // a synchronous exception
			switch rng.Intn(3) {
			case 0:
				b.WriteString("        ecall\n")
			case 1:
				b.WriteString("        .word 0xFFFFFFFF\n")
			case 2: // faulting access: far out of range or misaligned
				if rng.Intn(2) == 0 {
					fmt.Fprintf(&b, "        li   a6, %d\n", 0x10000+rng.Intn(1<<12))
				} else {
					fmt.Fprintf(&b, "        li   a6, %d\n", 4*(16+rng.Intn(64))+1+rng.Intn(3))
				}
				fmt.Fprintf(&b, "        %s   %s, 0(a6)\n",
					[]string{"lw", "sw"}[rng.Intn(2)], reg())
			}
		}
	}
	b.WriteString("        ebreak\n")
	b.WriteString("handler:\n")
	b.WriteString("        csrr s11, mepc\n")
	b.WriteString("        addi s11, s11, 4\n")
	b.WriteString("        csrw mepc, s11\n")
	b.WriteString("        mret\n")
	return b.String()
}

// Interrupt handlers must NOT advance mepc; use a separate handler that
// dispatches on mcause bit 31.
func genInterruptibleProgram(rng *rand.Rand) string {
	src := genProgram(rng, true)
	return strings.Replace(src, `handler:
        csrr s11, mepc
        addi s11, s11, 4
        csrw mepc, s11
        mret
`, `handler:
        csrr s11, mcause
        bltz s11, intr      # interrupts have mcause bit 31 set
        csrr s11, mepc
        addi s11, s11, 4
        csrw mepc, s11
        mret
intr:   lw   s11, 12(zero)
        addi s11, s11, 1
        sw   s11, 12(zero)
        mret
`, 1)
}

// fuzzSeed runs one random program on v as a subtest named after its
// seed, with a device raising pulses[c] at cycle c, and requires it to
// pass the OIAT checker; a failure logs the program.
func fuzzSeed(t *testing.T, seed int, v Variant, src string, pulses map[int]uint32, lines uint32) {
	t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
		defer func() {
			if t.Failed() {
				t.Logf("program:\n%s", src)
			}
		}()
		prog := mustAsm(t, src)
		p := build(t, v)
		raised := runOn(t, p, prog, 1200000, pulses)
		checkGolden(t, p, prog, lines, raised)
	})
}

// TestOIATFuzz runs random exception-heavy programs on the full pipeline
// and the golden model, requiring identical architecture and traces —
// the §4.3 OIAT argument, tested empirically.
func TestOIATFuzz(t *testing.T) {
	iters := 60
	if testing.Short() {
		iters = 5
	}
	for i := 0; i < iters; i++ {
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		fuzzSeed(t, 1000+i, All, genProgram(rng, false), nil, 0)
	}
}

// TestOIATFuzzWithInterrupts additionally injects an asynchronous
// interrupt at a random cycle and replays the golden model at the same
// instruction boundary. The program may end before the interrupt is
// enabled or taken; the checker then mirrors the unclaimed pending bit.
func TestOIATFuzzWithInterrupts(t *testing.T) {
	iters := 30
	if testing.Short() {
		iters = 3
	}
	for i := 0; i < iters; i++ {
		rng := rand.New(rand.NewSource(int64(7000 + i)))
		src := genInterruptibleProgram(rng)
		fireAt := 30 + rng.Intn(300)
		bit := []uint32{riscv.MIPMTIP, riscv.MIPMSIP, riscv.MIPMEIP}[rng.Intn(3)]
		fuzzSeed(t, 7000+i, All, src, map[int]uint32{fireAt: bit}, bit)
	}
}

// mustAsm assembles or fails the test.
func mustAsm(t *testing.T, src string) *asm.Program {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestOIATFuzzBaseline runs exception-free random programs on the
// baseline (no final blocks at all): OIAT must hold without the
// exception machinery too.
func TestOIATFuzzBaseline(t *testing.T) {
	iters := 25
	if testing.Short() {
		iters = 3
	}
	for i := 0; i < iters; i++ {
		rng := rand.New(rand.NewSource(int64(3000 + i)))
		fuzzSeed(t, 3000+i, Base, genCleanProgram(rng), nil, 0)
	}
}

// genCleanProgram is genProgram restricted to behaviours the baseline
// supports: no traps, no CSRs, no faulting accesses.
func genCleanProgram(rng *rand.Rand) string {
	var b strings.Builder
	reg := func() string { return fmt.Sprintf("x%d", 5+rng.Intn(11)) }
	for i := 5; i <= 15; i++ {
		fmt.Fprintf(&b, "        li   x%d, %d\n", i, rng.Int31n(1<<20)-1<<19)
	}
	aluOps := []string{"add", "sub", "xor", "or", "and", "sll", "srl", "sra",
		"slt", "sltu", "mul", "mulh", "mulhu", "div", "divu", "rem", "remu"}
	segments := 30 + rng.Intn(30)
	for i := 0; i < segments; i++ {
		switch rng.Intn(5) {
		case 0, 1:
			fmt.Fprintf(&b, "        %s %s, %s, %s\n",
				aluOps[rng.Intn(len(aluOps))], reg(), reg(), reg())
		case 2:
			addr := 4 * (8 + rng.Intn(1000))
			fmt.Fprintf(&b, "        li   a6, %d\n", addr)
			fmt.Fprintf(&b, "        sw   %s, 0(a6)\n", reg())
			fmt.Fprintf(&b, "        lw   %s, 0(a6)\n", reg())
		case 3:
			fmt.Fprintf(&b, "        b%s %s, %s, fwd%d\n",
				[]string{"eq", "ne", "ltu", "geu"}[rng.Intn(4)], reg(), reg(), i)
			fmt.Fprintf(&b, "        addi %s, %s, 1\n", reg(), reg())
			fmt.Fprintf(&b, "fwd%d:  addi %s, %s, 2\n", i, reg(), reg())
		case 4:
			n := 2 + rng.Intn(4)
			fmt.Fprintf(&b, "        li   t5, %d\n", n)
			fmt.Fprintf(&b, "lp%d:   add  %s, %s, %s\n", i, reg(), reg(), reg())
			fmt.Fprintf(&b, "        addi t5, t5, -1\n")
			fmt.Fprintf(&b, "        bnez t5, lp%d\n", i)
		}
	}
	b.WriteString("        ebreak\n")
	return b.String()
}

// TestOIATFuzzCSRVariant drives the CSR-only variant with random
// programs mixing ALU/memory/branch traffic and mscratch CSR operations
// (no traps): CSR instructions retire exceptionally in the pipeline but
// must stay architecturally identical to the sequential model.
func TestOIATFuzzCSRVariant(t *testing.T) {
	iters := 25
	if testing.Short() {
		iters = 3
	}
	for i := 0; i < iters; i++ {
		rng := rand.New(rand.NewSource(int64(5000 + i)))
		fuzzSeed(t, 5000+i, CSR, genCSRProgram(rng), nil, 0)
	}
}

// genCSRProgram mixes clean computation with CSR traffic over the whole
// implemented CSR file (safe on the CSR variant: no trap machinery).
func genCSRProgram(rng *rand.Rand) string {
	base := genCleanProgram(rng)
	// Interleave CSR ops by appending a CSR-heavy epilogue before ebreak.
	csrs := []string{"mscratch", "mtvec", "mepc", "mcause", "mtval"}
	var b strings.Builder
	reg := func() string { return fmt.Sprintf("x%d", 5+rng.Intn(11)) }
	for i := 0; i < 12; i++ {
		c := csrs[rng.Intn(len(csrs))]
		switch rng.Intn(5) {
		case 0:
			fmt.Fprintf(&b, "        csrw %s, %s\n", c, reg())
		case 1:
			fmt.Fprintf(&b, "        csrr %s, %s\n", reg(), c)
		case 2:
			fmt.Fprintf(&b, "        csrrs %s, %s, %s\n", reg(), c, reg())
		case 3:
			fmt.Fprintf(&b, "        csrrc %s, %s, %s\n", reg(), c, reg())
		case 4:
			fmt.Fprintf(&b, "        csrrwi %s, %s, %d\n", reg(), c, rng.Intn(32))
		}
	}
	return strings.Replace(base, "        ebreak\n", b.String()+"        ebreak\n", 1)
}
