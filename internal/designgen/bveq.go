package designgen

import (
	"fmt"

	"xpdl/internal/bveq"
	"xpdl/internal/check"
	"xpdl/internal/core"
	"xpdl/internal/diag"
	"xpdl/internal/pdl/parser"
	"xpdl/internal/sim"
	"xpdl/internal/val"
)

// The bounded-exhaustive gate over generated designs: BveqTarget
// projects a DesignSpec onto internal/bveq's Target interface so a
// design that survives the randomized gauntlet can additionally be
// *proved* precise on every micro-ISA program up to the bound. The
// projection gates letters on the spec's capabilities exactly as the
// oracle does, so alphabet size (and hence point count) varies per
// design — the report records both.

// bveqImmSeries is the immediate domain the Width knob indexes into.
var bveqImmSeries = []uint32{5, 3, 9, 14, 7, 11, 2, 8}

type bveqTarget struct {
	d    *DesignSpec
	plan *sim.Plan

	alphabet []bveq.Inst
	excs     []bveq.Inst
	neutral  uint32

	// machines holds released machines, reset per point by Build.
	machines bveq.Pool
	// pulses holds the per-arrival-cycle devices that set ipend.
	pulses bveq.Pulses
}

// BveqTarget compiles one generated design (once — machines for every
// enumeration point share the target's machine plan and its vm
// Program) and builds its micro-ISA projection. corrupt, when non-nil,
// mutates the translation before the plan is built: the seeded-bug
// hook the regression fixtures use.
func BveqTarget(d *DesignSpec, width int, corrupt func(map[string]*core.Result)) (bveq.Target, error) {
	src := d.Source()
	p, err := parser.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("designgen: bveq target parse: %w", err)
	}
	info, diags := check.Analyze(p, check.Options{})
	for _, dg := range diags {
		if dg.Severity == diag.Error {
			return nil, fmt.Errorf("designgen: bveq target rejected: %s: %s", dg.Code, dg.Message)
		}
	}
	trs := core.TranslateProgram(info)
	if corrupt != nil {
		corrupt(trs)
	}
	plan, err := sim.NewPlan(info, trs)
	if err != nil {
		return nil, fmt.Errorf("designgen: bveq target plan: %w", err)
	}

	// The neutral word is reserved op 14 — a true no-op on every
	// generated design and in the oracle, so the shrinker can blank
	// slots without introducing new effects.
	t := &bveqTarget{d: d, plan: plan,
		neutral: encode(14, 0, 0, 0, 0)}
	t.pulses.Raise = raiseIpend
	if width <= 0 {
		width = 2
	}
	if width > len(bveqImmSeries) {
		width = len(bveqImmSeries)
	}
	add := func(w uint32, asm string) {
		t.alphabet = append(t.alphabet, bveq.Inst{Word: w, Asm: asm})
	}
	// Hazard-dense core: seeded values, dependent ALU traffic, a short
	// forward branch (absolute target 2 — past the end of short
	// programs, into the zero tail, i.e. halt).
	add(encode(opSeti, 1, 0, 0, 5), "seti r1, 5")
	add(encode(opAdd, 3, 1, 2, 0), "add r3, r1, r2")
	add(encode(opSub, 2, 2, 1, 0), "sub r2, r2, r1")
	add(encode(opXor, 1, 1, 2, 0), "xor r1, r1, r2")
	add(encode(opBnz, 0, 1, 0, 2), "bnz r1, 2")
	for i := 0; i < width; i++ {
		rd := 1 + i%3
		add(encode(opAddi, rd, rd, 0, bveqImmSeries[i]),
			fmt.Sprintf("addi r%d, r%d, %d", rd, rd, bveqImmSeries[i]))
	}
	if d.HasDmem {
		add(encode(opSt, 0, 1, 2, 1), "st [r1+1], r2")
		add(encode(opLd, 4, 1, 0, 1), "ld r4, [r1+1]")
	}
	if d.Vols {
		add(encode(opCsrc, 5, 0, 0, 0), "csrc r5")
	}
	if d.HasExcept() {
		t.excs = append(t.excs,
			bveq.Inst{Word: encode(opIll, 0, 0, 0, 0), Asm: "ill"},
			bveq.Inst{Word: encode(opThn, 0, 1, 0, 3), Asm: "thn r1, 3"})
	}
	return t, nil
}

func (t *bveqTarget) Name() string          { return t.d.Name() }
func (t *bveqTarget) Alphabet() []bveq.Inst { return t.alphabet }
func (t *bveqTarget) ExcLetters() []bveq.Inst {
	return t.excs
}
func (t *bveqTarget) IntrCapable() bool { return t.d.Interrupts }
func (t *bveqTarget) Neutral() uint32   { return t.neutral }

// image lays out the instruction memory for a slot program: the slots
// themselves (the untouched zero tail reads as halt) plus, on handler
// designs, the standard resume handler at HBase.
func (t *bveqTarget) image(prog []uint32) []uint32 {
	if t.d.Except != ExcHandler {
		return prog
	}
	img := make([]uint32, HBase, HBase+3)
	copy(img, prog)
	return append(img,
		encode(opCsre, 6, 0, 0, 0),
		encode(opAddi, 6, 6, 0, 1),
		encode(opJr, 0, 6, 0, 0))
}

// raiseIpend is the generated designs' interrupt line: ipend = 1.
func raiseIpend(m *sim.Machine) { m.VolPoke("ipend", val.New(1, 32)) }

// Build constructs and boots one enumeration point's machine. The
// interrupt pulse (when intr >= 0) is the target's shared device for
// that arrival cycle, so its timing is pure data.
func (t *bveqTarget) Build(prog []uint32, intr int, engine string) (*sim.Machine, error) {
	m, err := t.machines.Get(engine, func() (*sim.Machine, error) {
		return t.plan.New(sim.Config{Engine: engine, Externs: externs(t.d)})
	})
	if err != nil {
		return nil, err
	}
	imem := m.Mem("imem")
	for i, w := range t.image(prog) {
		imem.Poke(uint64(i), val.New(uint64(w), 32))
	}
	if intr >= 0 && t.d.Interrupts {
		t.pulses.Attach(m, intr)
	}
	if err := m.Start("cpu", val.New(0, 32)); err != nil {
		return nil, err
	}
	return m, nil
}

// Release files a machine the gate is done with for reuse by a later
// Build (the bveq.Releaser extension).
func (t *bveqTarget) Release(m *sim.Machine) { t.machines.Put(m) }

// Check replays the sequential oracle against the machine's retirement
// trace — the same discipline as the gauntlet: the pipeline chooses the
// interrupt boundary, the oracle takes the interrupt at the same index.
func (t *bveqTarget) Check(prog []uint32, intr int, m *sim.Machine, runErr error) *bveq.Mismatch {
	if runErr != nil {
		return &bveq.Mismatch{Stage: "run", Detail: runErr.Error(), Index: -1, Cycle: -1}
	}
	drained := m.InFlight() == 0
	o := NewOracle(t.d, t.image(prog))
	for i, r := range m.Retired() {
		ev := Event{PC: uint32(r.Args[0].Uint()), Exc: r.Exceptional}
		if r.Exceptional && len(r.EArgs) > 0 {
			ev.Cause = uint32(r.EArgs[0].Uint())
		}
		if o.Halted {
			return &bveq.Mismatch{Stage: "trace", Index: i, Cycle: r.Cycle,
				Detail: fmt.Sprintf("retirement %d at pc=%d after the oracle halted", i, ev.PC)}
		}
		var want Event
		if ev.Exc && ev.Cause == causeInt {
			want = o.Interrupt()
		} else {
			want = o.Step()
		}
		if want != ev {
			return &bveq.Mismatch{Stage: "trace", Index: i, Cycle: r.Cycle,
				Detail: fmt.Sprintf("retirement %d: pipeline %+v, oracle %+v", i, ev, want)}
		}
	}
	if !drained {
		// Budget elapsed with work still in flight: the prefix agreed,
		// which is all a bounded run can claim (a stuck machine is a
		// "run" mismatch via the watchdog instead).
		return nil
	}
	if !o.Halted {
		return &bveq.Mismatch{Stage: "drain", Index: len(m.Retired()), Cycle: -1,
			Detail: fmt.Sprintf("pipeline drained after %d retirements but the oracle has not halted (pc=%d)", len(m.Retired()), o.PC)}
	}
	if msg := stateDiff(t.d, o, m, intr >= 0); msg != "" {
		return &bveq.Mismatch{Stage: "state", Detail: msg, Index: -1, Cycle: -1}
	}
	return nil
}

// BoundedVerify sweeps one generated design through the gate.
func BoundedVerify(d *DesignSpec, bounds bveq.Bounds, corrupt func(map[string]*core.Result)) (*bveq.Report, error) {
	t, err := BveqTarget(d, bounds.Width, corrupt)
	if err != nil {
		return nil, err
	}
	return bveq.Verify(t, bounds)
}
