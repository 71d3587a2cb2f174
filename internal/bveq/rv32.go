package bveq

import (
	"fmt"
	"math"
	"sync"

	"xpdl"
	"xpdl/internal/asm"
	"xpdl/internal/core"
	"xpdl/internal/designs"
	"xpdl/internal/golden"
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
// halt. The sequential specification is internal/golden, replayed with
// the OIAT discipline: the pipeline chooses the interrupt boundary, the
// golden model takes the interrupt at the same retirement index.

// handlerWord is the fixed word index of the trap handler; mtvec points
// here on Trap/All. It bounds K at handlerWord-2 slots.
const handlerWord = 16

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
	// presets are firmware CSR initializations applied to both sides.
	presets []preset

	// vols holds the machine-side volatile indices, resolved by the
	// first Build: they are the same for every machine of the design.
	volOnce sync.Once
	vols    targetVols

	// machines pools the pipeline machines of finished points, checks
	// the golden models and retirement buffers, so a sweep resets them
	// instead of building.
	machines Pool
	checks   sync.Pool

	// intrDevs holds, per interrupt-arrival cycle, the device that
	// pulses MIP.MTIP at that cycle. It is stateless, so every point
	// arriving at the same cycle shares one and attaching it allocates
	// nothing once that cycle has been seen.
	intrMu   sync.Mutex
	intrDevs []intrDevice
}

// intrDevice is a one-pulse interrupt source: fire sets MIP.MTIP at
// the arrival cycle and wake predicts it. Device hooks run once per
// cycle on a forward-only counter, so the pulse is due exactly when the
// cycle equals the arrival cycle — the timing of a one-entry
// fault.Schedule cursor, without its consumed-pulse state.
type intrDevice struct {
	fire func(m *sim.Machine)
	wake func(cycle int) int
}

// intrDevice returns the shared pulse device for an arrival cycle.
func (t *VariantTarget) intrDevice(arrival int) intrDevice {
	t.intrMu.Lock()
	defer t.intrMu.Unlock()
	for len(t.intrDevs) <= arrival {
		pulse, mip := len(t.intrDevs), t.vols.mip
		t.intrDevs = append(t.intrDevs, intrDevice{
			fire: func(m *sim.Machine) {
				if m.Cycle() == pulse {
					v := m.VolPeekAt(mip).Uint()
					m.VolPokeAt(mip, val.New(v|uint64(riscv.MIPMTIP), 32))
				}
			},
			wake: func(cycle int) int {
				if cycle <= pulse {
					return pulse
				}
				return math.MaxInt
			},
		})
	}
	return t.intrDevs[arrival]
}

// preset is one firmware CSR initialization: the CSR's name, its index
// in the golden model's CSR file, and the value.
type preset struct {
	name string
	gidx int
	v    uint32
}

// csrVol pairs a CSR the variant implements as a volatile register
// (the machine's VolIndex) with its golden CSR-file index.
type csrVol struct {
	name string
	vol  int
	gidx int
}

// targetVols are the volatile registers a point writes and compares.
type targetVols struct {
	presets []int    // parallel to VariantTarget.presets; -1 when absent
	csrs    []csrVol // archDiff's CSRs the variant has, in compare order
	mip     int
	// faultcode and faultpc are -1 unless the variant has them (Fatal).
	faultcode, faultpc int
}

// pointCheck is one Check's reusable state: the golden model and the
// projected retirement buffer.
type pointCheck struct {
	g      *golden.Machine
	events []rvEvent
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
	addPreset := func(name string, v uint32) {
		gidx := -1
		if i, ok := riscv.CSRIndex(csrAddr(name)); ok {
			gidx = int(i)
		}
		t.presets = append(t.presets, preset{name: name, gidx: gidx, v: v})
	}

	if width <= 0 {
		width = 2
	}
	if width > len(rv32ImmSeries) {
		width = len(rv32ImmSeries)
	}
	add := func(spelling, src string) error {
		in, err := letter(spelling, src)
		if err != nil {
			return err
		}
		t.alphabet = append(t.alphabet, in)
		return nil
	}
	addExc := func(spelling, src string) error {
		in, err := letter(spelling, src)
		if err != nil {
			return err
		}
		t.excs = append(t.excs, in)
		return nil
	}

	// Safe letters: dependent ALU traffic, one memory cell, a short
	// forward branch.
	base := [][2]string{
		{"add t0, t0, t1", "add t0, t0, t1"},
		{"sub t1, t1, t0", "sub t1, t1, t0"},
		{"xor t2, t0, t1", "xor t2, t0, t1"},
		{"sw t0, 0(zero)", "sw t0, 0(zero)"},
		{"lw t1, 0(zero)", "lw t1, 0(zero)"},
		{"beq t0, t1, +8", "beq t0, t1, fwd\nnop\nfwd: nop"},
	}
	for _, l := range base {
		if err := add(l[0], l[1]); err != nil {
			return nil, err
		}
	}
	for i := 0; i < width; i++ {
		imm := rv32ImmSeries[i]
		rd := []string{"t0", "t1"}[i%2]
		src := fmt.Sprintf("addi %s, t0, %d", rd, imm)
		if err := add(src, src); err != nil {
			return nil, err
		}
	}

	// Exception letters and trap plumbing, per variant.
	switch v {
	case designs.Base:
		// No exception machinery: pure programs only.
	case designs.Fatal:
		for _, l := range [][2]string{
			{".word 0xFFFFFFFF", ".word 0xFFFFFFFF"},
			{"lw t0, 1(zero)", "lw t0, 1(zero)"}, // misaligned load
			{"sw t0, 2(zero)", "sw t0, 2(zero)"}, // misaligned store
		} {
			if err := addExc(l[0], l[1]); err != nil {
				return nil, err
			}
		}
	case designs.Trap:
		for _, l := range [][2]string{
			{"ecall", "ecall"},
			{".word 0xFFFFFFFF", ".word 0xFFFFFFFF"},
			{"lw t0, 1(zero)", "lw t0, 1(zero)"},
		} {
			if err := addExc(l[0], l[1]); err != nil {
				return nil, err
			}
		}
		// The handler halts: any trap ends the workload precisely.
		t.handler, err = asmWords("ebreak")
		if err != nil {
			return nil, err
		}
		addPreset("mtvec", handlerWord*4)
		addPreset("mstatus", riscv.MStatusMIE)
		addPreset("mie", riscv.MIPMSIP|riscv.MIPMTIP|riscv.MIPMEIP)
	case designs.CSR:
		for _, l := range [][2]string{
			{"csrrw t0, mscratch, t1", "csrrw t0, mscratch, t1"},
			{"csrrs t1, mscratch, t0", "csrrs t1, mscratch, t0"},
			{"csrrc t2, mscratch, t0", "csrrc t2, mscratch, t0"},
		} {
			if err := addExc(l[0], l[1]); err != nil {
				return nil, err
			}
		}
	case designs.All:
		for _, l := range [][2]string{
			{"ecall", "ecall"},
			{".word 0xFFFFFFFF", ".word 0xFFFFFFFF"},
			{"csrrw t0, mscratch, t1", "csrrw t0, mscratch, t1"},
		} {
			if err := addExc(l[0], l[1]); err != nil {
				return nil, err
			}
		}
		// mcause dispatch: synchronous traps resume past the trapping
		// instruction, interrupts re-execute the interrupted one.
		t.handler, err = asmWords(`
        csrr t6, mcause
        bltz t6, iret
        csrr t6, mepc
        addi t6, t6, 4
        csrw mepc, t6
iret:   mret
`)
		if err != nil {
			return nil, err
		}
		addPreset("mtvec", handlerWord*4)
		addPreset("mstatus", riscv.MStatusMIE)
		addPreset("mie", riscv.MIPMSIP|riscv.MIPMTIP|riscv.MIPMEIP)
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

// archCSRs are the CSRs archDiff compares, in compare order.
var archCSRs = []string{"mstatus", "mie", "mtvec", "mscratch", "mepc", "mcause", "mtval", "mip"}

// resolveVols resolves, once per target, every volatile register a
// point writes or compares to its index on m's plan, which every
// machine of the design shares.
func (t *VariantTarget) resolveVols(m *sim.Machine) {
	idx := func(name string) int {
		i, ok := m.VolIndex(name)
		if !ok {
			return -1
		}
		return i
	}
	tv := &t.vols
	for _, p := range t.presets {
		tv.presets = append(tv.presets, idx(p.name))
	}
	for _, name := range archCSRs {
		if i := idx(name); i >= 0 {
			gidx, _ := riscv.CSRIndex(csrAddr(name))
			tv.csrs = append(tv.csrs, csrVol{name: name, vol: i, gidx: int(gidx)})
		}
	}
	tv.mip, tv.faultcode, tv.faultpc = idx("mip"), idx("faultcode"), idx("faultpc")
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
	for i, p := range t.presets {
		if vi := t.vols.presets[i]; vi >= 0 {
			m.VolPokeAt(vi, val.New(uint64(p.v), 32))
		}
	}
	if intr >= 0 && t.IntrCapable() {
		d := t.intrDevice(intr)
		m.OnCycleWake(d.fire, d.wake)
	}
	if err := m.Start("cpu", val.New(0, 32)); err != nil {
		return nil, err
	}
	return m, nil
}

// Release files a machine the gate is done with for reuse by a later
// Build (the Releaser extension).
func (t *VariantTarget) Release(m *sim.Machine) { t.machines.Put(m) }

// rvEvent is one projected retirement.
type rvEvent struct {
	PC    uint32
	Kind  int // -1 normal, else the K* exception kind
	Cause uint32
	Cycle int
}

// rvEvents appends the machine's projected cpu retirements to out.
func rvEvents(out []rvEvent, m *sim.Machine) []rvEvent {
	for _, r := range m.Retired() {
		if r.Pipe != "cpu" {
			continue
		}
		ev := rvEvent{PC: uint32(r.Args[0].Uint()), Kind: -1, Cycle: r.Cycle}
		if r.Exceptional {
			ev.Kind = int(r.EArgs[0].Uint())
			ev.Cause = uint32(r.EArgs[2].Uint())
		}
		out = append(out, ev)
	}
	return out
}

func isTrapKind(kind int) bool {
	return kind == designs.KTrap || kind == designs.KInt || kind == designs.KFatal
}

// Check replays the golden sequential model against the machine's run.
func (t *VariantTarget) Check(prog []uint32, intr int, m *sim.Machine, runErr error) *Mismatch {
	if runErr != nil {
		return &Mismatch{Stage: "run", Detail: runErr.Error(), Index: -1, Cycle: -1}
	}
	drained := m.InFlight() == 0
	pc, _ := t.checks.Get().(*pointCheck)
	if pc == nil {
		pc = &pointCheck{g: golden.New(t.tmpl, nil, designs.DMemWords)}
	} else {
		pc.g.Reset(t.tmpl, nil)
	}
	defer t.checks.Put(pc)
	pc.events = rvEvents(pc.events[:0], m)
	events, g := pc.events, pc.g
	copy(g.IMem, prog)
	for _, p := range t.presets {
		if p.gidx >= 0 {
			g.CSR[p.gidx] = p.v
		}
	}

	interrupted := false
	for i, ev := range events {
		if g.Halted {
			return &Mismatch{Stage: "trace", Index: i, Cycle: ev.Cycle,
				Detail: fmt.Sprintf("retirement %d at pc=%#x after the golden model halted", i, ev.PC)}
		}
		if ev.Kind == designs.KInt {
			// OIAT: the pipeline chose this boundary; the golden model
			// takes the same interrupt immediately before this step.
			g.RaiseInterrupt(riscv.MIPMTIP)
			interrupted = true
		}
		if err := g.Step(); err != nil {
			return &Mismatch{Stage: "trace", Index: i, Cycle: ev.Cycle,
				Detail: "golden model: " + err.Error()}
		}
		gev := g.Trace[i]
		if ev.PC != gev.PC {
			return &Mismatch{Stage: "trace", Index: i, Cycle: ev.Cycle,
				Detail: fmt.Sprintf("retirement %d: pipeline pc %#x, golden pc %#x", i, ev.PC, gev.PC)}
		}
		if gev.Trap != isTrapKind(ev.Kind) {
			return &Mismatch{Stage: "trace", Index: i, Cycle: ev.Cycle,
				Detail: fmt.Sprintf("retirement %d (pc %#x): pipeline kind %d, golden trap=%v (cause %d)",
					i, ev.PC, ev.Kind, gev.Trap, gev.Cause)}
		}
		if gev.Trap && ev.Cause != gev.Cause {
			return &Mismatch{Stage: "trace", Index: i, Cycle: ev.Cycle,
				Detail: fmt.Sprintf("retirement %d: pipeline cause %#x, golden %#x", i, ev.Cause, gev.Cause)}
		}
		if t.v == designs.Fatal && ev.Kind == designs.KFatal {
			// Fatal halts the core; the golden model has trapped toward
			// mtvec. Stop the replay here: the fault record and the
			// untouched architectural state are what must agree.
			if i != len(events)-1 {
				return &Mismatch{Stage: "trace", Index: i, Cycle: ev.Cycle,
					Detail: fmt.Sprintf("retirement after a fatal exception (%d of %d)", i, len(events)-1)}
			}
			if !drained {
				return &Mismatch{Stage: "drain", Index: i, Cycle: ev.Cycle,
					Detail: "pipeline still in flight after a fatal exception"}
			}
			if fc := uint32(m.VolPeekAt(t.vols.faultcode).Uint()); fc != gev.Cause {
				return &Mismatch{Stage: "state", Index: -1, Cycle: -1,
					Detail: fmt.Sprintf("faultcode = %d, golden cause %d", fc, gev.Cause)}
			}
			if fp := uint32(m.VolPeekAt(t.vols.faultpc).Uint()); fp != gev.PC {
				return &Mismatch{Stage: "state", Index: -1, Cycle: -1,
					Detail: fmt.Sprintf("faultpc = %#x, golden %#x", fp, gev.PC)}
			}
			return t.archDiff(m, g, intr, interrupted, true)
		}
	}

	if !drained {
		// Budget elapsed with work in flight: the prefix agreed, which
		// is all a bounded run can claim. (A stuck machine is a "run"
		// mismatch via the watchdog, not this path.)
		return nil
	}
	if !g.Halted {
		return &Mismatch{Stage: "drain", Index: len(events), Cycle: -1,
			Detail: fmt.Sprintf("pipeline drained after %d retirements but the golden model has not halted (pc=%#x)", len(events), g.PC)}
	}
	return t.archDiff(m, g, intr, interrupted, false)
}

// archDiff compares final architectural state: registers, data memory,
// and the variant's CSRs. An interrupt pulse the pipeline never claimed
// leaves mip pending on both sides (the device fired either way).
func (t *VariantTarget) archDiff(m *sim.Machine, g *golden.Machine, intr int, interrupted, fatal bool) *Mismatch {
	state := func(detail string) *Mismatch {
		return &Mismatch{Stage: "state", Detail: detail, Index: -1, Cycle: -1}
	}
	rf, dmem := m.Mem("rf"), m.Mem("dmem")
	if i := rf.FirstDiff(1, g.Regs[1:]); i >= 0 {
		return state(fmt.Sprintf("x%d = %#x, golden %#x", i, uint32(rf.Peek(uint64(i)).Uint()), g.Regs[i]))
	}
	if i := dmem.FirstDiff(0, g.DMem[:designs.DMemWords]); i >= 0 {
		return state(fmt.Sprintf("dmem[%d] = %#x, golden %#x", i, uint32(dmem.Peek(uint64(i)).Uint()), g.DMem[i]))
	}
	if fatal {
		// The golden trap wrote CSRs the Fatal design does not have;
		// regs and dmem (compared above) are the precision claim.
		return nil
	}
	if intr >= 0 && !interrupted {
		// The pulse fired but the pipeline never claimed it (e.g. it
		// arrived after the last instruction passed the interrupt
		// check). Mirror the pending bit into the golden model.
		g.RaiseInterrupt(riscv.MIPMTIP)
	}
	for _, c := range t.vols.csrs {
		if got, want := uint32(m.VolPeekAt(c.vol).Uint()), g.CSR[c.gidx]; got != want {
			return state(fmt.Sprintf("%s = %#x, golden %#x", c.name, got, want))
		}
	}
	return nil
}

func csrAddr(name string) uint32 {
	switch name {
	case "mstatus":
		return riscv.CSRMStatus
	case "mie":
		return riscv.CSRMIE
	case "mtvec":
		return riscv.CSRMTVec
	case "mscratch":
		return riscv.CSRMScratch
	case "mepc":
		return riscv.CSRMEPC
	case "mcause":
		return riscv.CSRMCause
	case "mtval":
		return riscv.CSRMTVal
	case "mip":
		return riscv.CSRMIP
	}
	return 0
}
