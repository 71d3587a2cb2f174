package designgen

import (
	"bytes"
	"fmt"

	"xpdl/internal/check"
	"xpdl/internal/core"
	"xpdl/internal/diag"
	"xpdl/internal/fault"
	"xpdl/internal/pdl/parser"
	"xpdl/internal/sim"
	"xpdl/internal/val"
)

// Storm pacing for interrupt-capable designs: at most stormBudget
// pulses, at least stormSpacing cycles apart, on cycles the chaos
// injector picks. The schedule is a pure function of the seed, so all
// engines (and a restored machine) see identical pulses.
const (
	stormBudget  = 6
	stormSpacing = 40
)

// RunOpts configures one gauntlet pass over a (design, program) pair.
type RunOpts struct {
	// Engines to run differentially; defaults to sim.Engines(), all
	// three executors, which must agree event-for-event and
	// cycle-for-cycle.
	Engines []string
	// ChaosSeed drives the timing-fault injector; 0 runs unperturbed.
	ChaosSeed uint64
	// MaxCycles bounds each run; 0 uses a default derived budget.
	MaxCycles int
	// SaveRestore snapshots the first engine's run at its midpoint,
	// restores into a fresh machine and requires cycle-exact resume.
	SaveRestore bool
	// Cosim additionally executes the emitted Verilog in RTL lockstep
	// on the first engine's run.
	Cosim bool
	// Corrupt, when set, mutates the translation results before the
	// machines are built — the hook the seeded-translation-bug tests
	// use to prove the gauntlet catches rule violations.
	Corrupt func(map[string]*core.Result)
}

// Divergence is a counterexample: a generated claimed-legal design on
// which some stage of the gauntlet disagreed with the sequential
// specification (or with another engine, or crashed).
type Divergence struct {
	Stage  string // check | translate | build | run | trace | state | resume | cosim | panic
	Engine string
	Detail string
}

func (d *Divergence) Error() string {
	if d.Engine != "" {
		return fmt.Sprintf("%s[%s]: %s", d.Stage, d.Engine, d.Detail)
	}
	return d.Stage + ": " + d.Detail
}

// engineRun is one engine's observable behaviour.
type engineRun struct {
	trace   []Event
	cycles  int
	drained bool
	m       *sim.Machine
}

// Gauntlet pushes one design+program through the full attack surface:
// parse → check (must accept) → translate → differential execution of
// the configured engines against the sequential oracle, with chaos,
// save/restore and cosim as configured. It returns nil when everything
// agrees and a *Divergence otherwise. Any panic escaping the toolchain
// is recovered into a divergence — crashes on generator-produced input
// are findings, not test infrastructure failures.
func Gauntlet(d *DesignSpec, prog []uint32, opts RunOpts) (div *Divergence) {
	defer func() {
		if r := recover(); r != nil {
			div = &Divergence{Stage: "panic", Detail: fmt.Sprint(r)}
		}
	}()

	src := d.Source()
	p, err := parser.Parse(src)
	if err != nil {
		return &Divergence{Stage: "check", Detail: "claimed-legal design failed to parse: " + err.Error()}
	}
	info, diags := check.Analyze(p, check.Options{})
	for _, dg := range diags {
		if dg.Severity == diag.Error {
			return &Divergence{Stage: "check", Detail: fmt.Sprintf("claimed-legal design rejected: %s: %s", dg.Code, dg.Message)}
		}
	}
	trs := core.TranslateProgram(info)
	if opts.Corrupt != nil {
		opts.Corrupt(trs)
	}

	engines := opts.Engines
	if len(engines) == 0 {
		engines = sim.Engines()
	}
	maxCycles := opts.MaxCycles
	if maxCycles == 0 {
		maxCycles = 200_000
	}
	var schedule []int
	if d.Interrupts && opts.ChaosSeed != 0 {
		schedule = stormSchedule(opts.ChaosSeed, maxCycles)
	}

	// One plan serves every machine of the pass: each engine's run and
	// the resume pair.
	plan, err := sim.NewPlan(info, trs)
	if err != nil {
		return &Divergence{Stage: "build", Engine: engines[0], Detail: err.Error()}
	}
	runs := make([]*engineRun, len(engines))
	for i, eng := range engines {
		r, dv := runEngine(d, plan, prog, eng, opts.ChaosSeed, maxCycles, schedule)
		if dv != nil {
			return dv
		}
		runs[i] = r
	}

	// Engines must agree exactly: same retirement events, same cycle
	// count, same drain status.
	ref := runs[0]
	for i := 1; i < len(runs); i++ {
		r := runs[i]
		if msg := diffTraces(ref.trace, r.trace); msg != "" {
			return &Divergence{Stage: "trace", Engine: engines[0] + " vs " + engines[i], Detail: msg}
		}
		if r.cycles != ref.cycles || r.drained != ref.drained {
			return &Divergence{Stage: "trace", Engine: engines[0] + " vs " + engines[i],
				Detail: fmt.Sprintf("cycles %d/drained %v vs cycles %d/drained %v",
					ref.cycles, ref.drained, r.cycles, r.drained)}
		}
	}

	// The sequential specification replay.
	o := NewOracle(d, prog)
	if i, msg := replayOracle(o, len(ref.trace), func(i int) Event { return ref.trace[i] }); i >= 0 {
		return &Divergence{Stage: "trace", Engine: engines[0], Detail: msg}
	}
	if ref.drained {
		if !o.Halted {
			return &Divergence{Stage: "state", Engine: engines[0],
				Detail: fmt.Sprintf("pipeline drained after %d retirements but the oracle has not halted (pc=%d)", len(ref.trace), o.PC)}
		}
		for i, r := range runs {
			if msg := stateDiff(d, o, r.m, len(schedule) > 0); msg != "" {
				return &Divergence{Stage: "state", Engine: engines[i], Detail: msg}
			}
		}
	}

	if opts.SaveRestore {
		if dv := checkResume(d, plan, prog, engines[0], opts.ChaosSeed, maxCycles, schedule, ref); dv != nil {
			return dv
		}
	}
	if opts.Cosim {
		if dv := checkCosim(d, src, prog, opts.ChaosSeed, maxCycles); dv != nil {
			return dv
		}
	}
	return nil
}

// buildMachine constructs, loads and boots one engine's machine.
func buildMachine(d *DesignSpec, plan *sim.Plan, prog []uint32, engine string, chaosSeed uint64, schedule []int) (*sim.Machine, error) {
	cfg := sim.Config{Engine: engine, Externs: externs(d)}
	if chaosSeed != 0 {
		cfg.Faults = fault.New(fault.Default(chaosSeed))
	}
	m, err := plan.New(cfg)
	if err != nil {
		return nil, err
	}
	imem := m.Mem("imem")
	for i, w := range prog {
		imem.Poke(uint64(i), val.New(uint64(w), 32))
	}
	if len(schedule) > 0 {
		attachStorm(m, schedule)
	}
	if err := m.Start("cpu", val.New(0, 32)); err != nil {
		return nil, err
	}
	return m, nil
}

func runEngine(d *DesignSpec, plan *sim.Plan, prog []uint32, engine string, chaosSeed uint64, maxCycles int, schedule []int) (*engineRun, *Divergence) {
	m, err := buildMachine(d, plan, prog, engine, chaosSeed, schedule)
	if err != nil {
		return nil, &Divergence{Stage: "build", Engine: engine, Detail: err.Error()}
	}
	cycles, err := m.Run(maxCycles)
	r := &engineRun{cycles: cycles, m: m}
	switch err.(type) {
	case nil:
		r.drained = true
	case *sim.CycleBudgetError:
		// Livelocked by interrupt perturbation (e.g. a skipped loop
		// reseed): architectural prefix comparison still applies.
	default:
		return nil, &Divergence{Stage: "run", Engine: engine, Detail: err.Error()}
	}
	r.trace = toEvents(m.Retired())
	return r, nil
}

// externs binds the design's extern functions (just xalu) to the same
// Go ALU the oracle uses.
func externs(d *DesignSpec) map[string]sim.ExternFunc {
	if !d.Extern {
		return map[string]sim.ExternFunc{}
	}
	return map[string]sim.ExternFunc{
		"xalu": func(args []val.Value) sim.V {
			r := alu(int(args[0].Uint()), uint32(args[1].Uint()), uint32(args[2].Uint()), uint32(args[3].Uint()))
			return sim.Scalar(val.New(uint64(r), 32))
		},
	}
}

// stormSchedule derives the pulse cycles for a chaos seed: cycles the
// injector's storm stream picks, spaced and budgeted. Pure in the seed.
func stormSchedule(seed uint64, maxCycles int) fault.Schedule {
	return fault.New(fault.Default(seed)).Pulses(maxCycles, stormBudget, stormSpacing)
}

// attachStorm pulses the ipend line on the scheduled cycles. The cursor
// doubles as the wake predictor, so an otherwise-quiet machine can
// fast-forward between pulses.
func attachStorm(m *sim.Machine, schedule fault.Schedule) {
	cur := schedule.Cursor()
	m.OnCycleWake(func(m *sim.Machine) {
		if cur.Fire(m.Cycle()) {
			m.VolPoke("ipend", val.New(1, 32))
		}
	}, cur.Next)
}

// toEvent projects one retirement to its architectural event.
func toEvent(r sim.Retirement) Event {
	ev := Event{PC: uint32(r.Args[0].Uint()), Exc: r.Exceptional}
	if r.Exceptional && len(r.EArgs) > 0 {
		ev.Cause = uint32(r.EArgs[0].Uint())
	}
	return ev
}

// toEvents projects a retirement trace to architectural events.
func toEvents(rets []sim.Retirement) []Event {
	out := make([]Event, 0, len(rets))
	for _, r := range rets {
		out = append(out, toEvent(r))
	}
	return out
}

// replayOracle replays a pipeline's first n retirement events, event(i)
// each, on the sequential oracle: the pipeline chooses the interrupt
// boundary, and the oracle takes the interrupt at the same index. It
// returns the index of the first retirement the oracle disagrees with,
// and why, or -1 when all n agree. The gauntlet and the bveq target
// both check through it.
func replayOracle(o *Oracle, n int, event func(i int) Event) (int, string) {
	for i := range n {
		ev := event(i)
		if o.Halted {
			return i, fmt.Sprintf("retirement %d at pc=%d after the oracle halted", i, ev.PC)
		}
		var want Event
		if ev.Exc && ev.Cause == causeInt {
			want = o.Interrupt()
		} else {
			want = o.Step()
		}
		if want != ev {
			return i, fmt.Sprintf("retirement %d: pipeline %+v, oracle %+v", i, ev, want)
		}
	}
	return -1, ""
}

func diffTraces(a, b []Event) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("retirement %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	if len(a) != len(b) {
		return fmt.Sprintf("trace lengths %d vs %d", len(a), len(b))
	}
	return ""
}

// stateDiff compares the drained machine's architectural state against
// the halted oracle. ipend is skipped on stormed runs (the device owns
// it) and ecause/eepc only exist on CSR designs.
func stateDiff(d *DesignSpec, o *Oracle, m *sim.Machine, stormed bool) string {
	rf := m.Mem("rf")
	for i := 0; i < RFRegs; i++ {
		if got := uint32(rf.Peek(uint64(i)).Uint()); got != o.RF[i] {
			return fmt.Sprintf("rf[%d] = %d, oracle %d", i, got, o.RF[i])
		}
	}
	if d.HasDmem {
		dmem := m.Mem("dmem")
		for i := 0; i < DMemWords; i++ {
			if got := uint32(dmem.Peek(uint64(i)).Uint()); got != o.DMem[i] {
				return fmt.Sprintf("dmem[%d] = %d, oracle %d", i, got, o.DMem[i])
			}
		}
	}
	if d.Vols {
		if got := uint32(m.VolPeek("ecause").Uint()); got != o.ECause {
			return fmt.Sprintf("ecause = %d, oracle %d", got, o.ECause)
		}
		if got := uint32(m.VolPeek("eepc").Uint()); got != o.EEPC {
			return fmt.Sprintf("eepc = %d, oracle %d", got, o.EEPC)
		}
	}
	if d.Interrupts && !stormed {
		if got := uint32(m.VolPeek("ipend").Uint()); got != 0 {
			return fmt.Sprintf("ipend = %d, want 0", got)
		}
	}
	return ""
}

// checkResume snapshots the first engine's run at its midpoint and
// requires the restored machine to finish cycle-exactly like the
// reference (the snapshot must also round-trip to identical bytes).
func checkResume(d *DesignSpec, plan *sim.Plan, prog []uint32, engine string, chaosSeed uint64, maxCycles int, schedule []int, ref *engineRun) *Divergence {
	if ref.cycles < 2 {
		return nil
	}
	k := ref.cycles / 2
	mid, err := buildMachine(d, plan, prog, engine, chaosSeed, schedule)
	if err != nil {
		return &Divergence{Stage: "resume", Engine: engine, Detail: "rebuild: " + err.Error()}
	}
	if _, err := mid.Run(k); err != nil {
		if _, ok := err.(*sim.CycleBudgetError); !ok {
			return &Divergence{Stage: "resume", Engine: engine, Detail: fmt.Sprintf("run to cycle %d: %v", k, err)}
		}
	}
	snap1, err := mid.SaveBytes()
	if err != nil {
		return &Divergence{Stage: "resume", Engine: engine, Detail: "save: " + err.Error()}
	}
	res, err := buildMachine(d, plan, prog, engine, chaosSeed, schedule)
	if err != nil {
		return &Divergence{Stage: "resume", Engine: engine, Detail: "rebuild: " + err.Error()}
	}
	if err := res.Restore(bytes.NewReader(snap1)); err != nil {
		return &Divergence{Stage: "resume", Engine: engine, Detail: "restore: " + err.Error()}
	}
	snap2, err := res.SaveBytes()
	if err != nil {
		return &Divergence{Stage: "resume", Engine: engine, Detail: "re-save: " + err.Error()}
	}
	if !bytes.Equal(snap1, snap2) {
		return &Divergence{Stage: "resume", Engine: engine, Detail: "save/restore/save not byte-identical"}
	}
	rem, err := res.Run(maxCycles - k)
	if err != nil {
		if _, ok := err.(*sim.CycleBudgetError); !ok {
			return &Divergence{Stage: "resume", Engine: engine, Detail: "resumed run: " + err.Error()}
		}
	}
	if k+rem != ref.cycles {
		return &Divergence{Stage: "resume", Engine: engine,
			Detail: fmt.Sprintf("resumed run took %d cycles, reference %d", k+rem, ref.cycles)}
	}
	if msg := diffTraces(ref.trace, toEvents(res.Retired())); msg != "" {
		return &Divergence{Stage: "resume", Engine: engine, Detail: msg}
	}
	return nil
}
