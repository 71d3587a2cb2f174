package bveq

import (
	"fmt"
	"sync"

	"xpdl"
	"xpdl/internal/asm"
	"xpdl/internal/core"
	"xpdl/internal/designs"
	"xpdl/internal/riscv"
	"xpdl/internal/sim"
	"xpdl/internal/val"
)

// The RV32 projection of the five hand-written processor variants
// (internal/designs). The safe alphabet is a hazard-dense slice of
// RV32I — dependent ALU traffic, a store/load pair on one address, a
// short forward branch — with `Width` extra immediate variants; the
// exception letters are drawn from what the variant's exception
// machinery can actually raise. Programs are laid out as
//
//	word 0..k-1   the enumerated slots
//	word k        ebreak (the halt convention)
//	...           ebreak padding
//	word 16       trap handler (Trap: halt; All: mcause dispatch)
//
// so a branch letter in the last slot lands on padding and both sides
// halt. The sequential specification is internal/golden, replayed by
// the designs package's OIAT checker: the pipeline chooses the
// interrupt boundary, the golden model takes the interrupt at the same
// retirement index.

// handlerWord is the fixed word index of the trap handler; mtvec points
// here on Trap/All. It bounds K at handlerWord-2 slots.
const handlerWord = 16

// imageWords bounds a point's instruction image, so Check lays it out
// in a fixed array instead of allocating.
const imageWords = 32

// rv32ImmSeries is the immediate domain the Width knob indexes into.
var rv32ImmSeries = []uint32{5, 3, 9, 14, 7, 11, 2, 8}

// VariantTarget adapts one hand-written processor variant to the gate.
type VariantTarget struct {
	v      designs.Variant
	design *xpdl.Design
	ebreak uint32
	nop    uint32

	alphabet []Inst
	excs     []Inst
	handler  []uint32
	// tmpl is the instruction image with every slot ebreak: padding,
	// the handler at handlerWord, trailing padding. A point's image is
	// tmpl with its slots over the front; each side lays it out straight
	// into its own instruction memory.
	tmpl []uint32
	// firmware holds the CSR initializations applied to both sides.
	firmware map[string]uint32

	// vols holds the machine-side volatile indices, resolved by the
	// first Build: they are the same for every machine of the design.
	volOnce sync.Once
	vols    targetVols

	// machines pools the pipeline machines of finished points and oiat
	// the golden models, so a sweep resets them instead of building.
	machines Pool
	oiat     designs.Checker

	// pulses holds the per-arrival-cycle devices that raise MIP.MTIP.
	pulses Pulses
}

// volPreset is one firmware value at its machine volatile index.
type volPreset struct {
	vol int
	v   uint32
}

// targetVols are the volatile registers a point writes.
type targetVols struct {
	presets []volPreset
	mip     int
}

// asmWords assembles a snippet and returns its text words.
func asmWords(src string) ([]uint32, error) {
	p, err := asm.Assemble(src)
	if err != nil {
		return nil, err
	}
	return p.Text, nil
}

// letter assembles a single-instruction snippet into an Inst (the
// snippet may carry trailing padding lines for branch targets; only the
// first word is the letter).
func letter(spelling, src string) (Inst, error) {
	w, err := asmWords(src)
	if err != nil || len(w) == 0 {
		return Inst{}, fmt.Errorf("bveq: assemble letter %q: %v", spelling, err)
	}
	return Inst{Word: w[0], Asm: spelling}, nil
}

// NewVariantTarget compiles the variant once and builds its projection.
// width sizes the immediate domain; corrupt, when non-nil, mutates the
// translation before any machine is built (the seeded-bug hook). The
// design's machine plan is built by the first Build, not here.
func NewVariantTarget(v designs.Variant, width int, corrupt func(map[string]*core.Result)) (*VariantTarget, error) {
	d, err := xpdl.Compile(designs.Source(v))
	if err != nil {
		return nil, fmt.Errorf("bveq: compile %s: %w", v, err)
	}
	if corrupt != nil {
		corrupt(d.Translations)
	}
	t := &VariantTarget{v: v, design: d}
	t.pulses.Raise = t.raiseMTIP

	if width <= 0 {
		width = 2
	}
	if width > len(rv32ImmSeries) {
		width = len(rv32ImmSeries)
	}
	// letters appends one letter per snippet, spelled as written.
	letters := func(dst *[]Inst, srcs ...string) error {
		for _, src := range srcs {
			in, err := letter(src, src)
			if err != nil {
				return err
			}
			*dst = append(*dst, in)
		}
		return nil
	}

	// Safe letters: dependent ALU traffic, one memory cell, a short
	// forward branch.
	if err := letters(&t.alphabet, "add t0, t0, t1", "sub t1, t1, t0", "xor t2, t0, t1",
		"sw t0, 0(zero)", "lw t1, 0(zero)"); err != nil {
		return nil, err
	}
	beq, err := letter("beq t0, t1, +8", "beq t0, t1, fwd\nnop\nfwd: nop")
	if err != nil {
		return nil, err
	}
	t.alphabet = append(t.alphabet, beq)
	for i := 0; i < width; i++ {
		src := fmt.Sprintf("addi %s, t0, %d", []string{"t0", "t1"}[i%2], rv32ImmSeries[i])
		if err := letters(&t.alphabet, src); err != nil {
			return nil, err
		}
	}

	// Exception letters and trap plumbing, per variant. Base has no
	// exception machinery: pure programs only.
	var excs []string
	handler := ""
	switch v {
	case designs.Fatal:
		// Illegal instruction, misaligned load, misaligned store.
		excs = []string{".word 0xFFFFFFFF", "lw t0, 1(zero)", "sw t0, 2(zero)"}
	case designs.Trap:
		excs = []string{"ecall", ".word 0xFFFFFFFF", "lw t0, 1(zero)"}
		// The handler halts: any trap ends the workload precisely.
		handler = "ebreak"
	case designs.CSR:
		excs = []string{"csrrw t0, mscratch, t1", "csrrs t1, mscratch, t0", "csrrc t2, mscratch, t0"}
	case designs.All:
		excs = []string{"ecall", ".word 0xFFFFFFFF", "csrrw t0, mscratch, t1"}
		// mcause dispatch: synchronous traps resume past the trapping
		// instruction, interrupts re-execute the interrupted one.
		handler = `
        csrr t6, mcause
        bltz t6, iret
        csrr t6, mepc
        addi t6, t6, 4
        csrw mepc, t6
iret:   mret
`
	}
	if err := letters(&t.excs, excs...); err != nil {
		return nil, err
	}
	if handler != "" {
		if t.handler, err = asmWords(handler); err != nil {
			return nil, err
		}
		t.firmware = map[string]uint32{
			"mtvec":   handlerWord * 4,
			"mstatus": riscv.MStatusMIE,
			"mie":     riscv.MIPMSIP | riscv.MIPMTIP | riscv.MIPMEIP,
		}
	}

	eb, err := asmWords("ebreak")
	if err != nil {
		return nil, err
	}
	t.ebreak = eb[0]
	np, err := asmWords("nop")
	if err != nil {
		return nil, err
	}
	t.nop = np[0]
	t.tmpl = make([]uint32, handlerWord+len(t.handler)+2)
	for i := range t.tmpl {
		t.tmpl[i] = t.ebreak
	}
	copy(t.tmpl[handlerWord:], t.handler)
	if len(t.tmpl) > imageWords {
		return nil, fmt.Errorf("bveq: %s image of %d words exceeds %d", v, len(t.tmpl), imageWords)
	}
	return t, nil
}

// Name identifies the variant.
func (t *VariantTarget) Name() string { return t.v.String() }

// Alphabet is the safe-letter projection.
func (t *VariantTarget) Alphabet() []Inst { return t.alphabet }

// ExcLetters are the exception-raising letters.
func (t *VariantTarget) ExcLetters() []Inst { return t.excs }

// IntrCapable: only Trap and All take external interrupts (CSR declares
// mip but never consults it).
func (t *VariantTarget) IntrCapable() bool {
	return t.v == designs.Trap || t.v == designs.All
}

// Neutral is nop.
func (t *VariantTarget) Neutral() uint32 { return t.nop }

// resolveVols resolves, once per target, every volatile register a
// point writes to its index on m's plan, which every machine of the
// design shares.
func (t *VariantTarget) resolveVols(m *sim.Machine) {
	for name, v := range t.firmware {
		if i, ok := m.VolIndex(name); ok {
			t.vols.presets = append(t.vols.presets, volPreset{vol: i, v: v})
		}
	}
	t.vols.mip = -1
	if i, ok := m.VolIndex("mip"); ok {
		t.vols.mip = i
	}
}

// raiseMTIP sets MIP.MTIP, as the point's timer device does.
func (t *VariantTarget) raiseMTIP(m *sim.Machine) {
	v := m.VolPeekAt(t.vols.mip).Uint()
	m.VolPokeAt(t.vols.mip, val.New(v|uint64(riscv.MIPMTIP), 32))
}

// Build constructs and boots one enumeration point's machine.
func (t *VariantTarget) Build(prog []uint32, intr int, engine string) (*sim.Machine, error) {
	if len(prog) > handlerWord-2 {
		return nil, fmt.Errorf("bveq: program of %d slots exceeds the fixed layout", len(prog))
	}
	m, err := t.machines.Get(engine, func() (*sim.Machine, error) {
		return t.design.NewMachine(sim.Config{Engine: engine, Externs: designs.Externs()})
	})
	if err != nil {
		return nil, err
	}
	t.volOnce.Do(func() { t.resolveVols(m) })
	imem := m.Mem("imem")
	for i, w := range t.tmpl {
		if i < len(prog) {
			w = prog[i]
		}
		imem.Poke(uint64(i), val.New(uint64(w), 32))
	}
	for _, p := range t.vols.presets {
		m.VolPokeAt(p.vol, val.New(uint64(p.v), 32))
	}
	if intr >= 0 && t.IntrCapable() {
		t.pulses.Attach(m, intr)
	}
	if err := m.Start("cpu", val.New(0, 32)); err != nil {
		return nil, err
	}
	return m, nil
}

// Release files a machine the gate is done with for reuse by a later
// Build (the Releaser extension).
func (t *VariantTarget) Release(m *sim.Machine) { t.machines.Put(m) }

// Check replays the golden sequential model against the machine's run
// through the OIAT checker: the point's timer device can raise only
// MIP.MTIP, and it did whenever the point has an arrival cycle.
func (t *VariantTarget) Check(prog []uint32, intr int, m *sim.Machine, runErr error) *Mismatch {
	if runErr != nil {
		return &Mismatch{Stage: "run", Detail: runErr.Error(), Index: -1, Cycle: -1}
	}
	var img [imageWords]uint32
	text := img[:copy(img[:], t.tmpl)]
	copy(text, prog)
	o := designs.OIAT{Variant: t.v, Text: text, Firmware: t.firmware, Lines: riscv.MIPMTIP}
	if intr >= 0 {
		o.Raised = riscv.MIPMTIP
	}
	mm := t.oiat.Check(m, &o)
	if mm == nil {
		return nil
	}
	return &Mismatch{Stage: mm.Stage, Detail: mm.Detail, Index: mm.Index, Cycle: mm.Cycle}
}
