// Package cosim executes the emitted Verilog of a processor variant in
// lockstep with the pipeline simulator and diffs architectural state
// every cycle. It is the closing link in the verification chain: the
// checker proves the design obeys the sequential specification, the
// simulator demonstrates it cycle-by-cycle, the golden model pins the
// one-instruction-at-a-time (OIAT) meaning, and cosimulation proves the
// *emitted hardware* is the same machine — with zero cycle offset.
//
// The harness replays the simulator's schedule into the RTL: a
// sim.Observer records which stage nodes fired, which instructions were
// squashed and when the entry queue was popped; those events become the
// module's fire/kill/q_kill/entry_pop strobes. The RTL is therefore not
// free-running — scheduling (stalls, arbitration, fault injection) is
// the simulator's job — but every datapath computation, forwarding
// decision, exception fork, staged-write commit and CSR update is
// recomputed by the Verilog semantics and compared against the
// simulator's result at every clock edge.
package cosim

import (
	"context"
	"fmt"

	"xpdl"
	"xpdl/internal/asm"
	"xpdl/internal/designs"
	"xpdl/internal/fault"
	"xpdl/internal/pdl/ast"
	"xpdl/internal/riscv"
	"xpdl/internal/rtl"
	"xpdl/internal/sim"
	"xpdl/internal/synth"
	"xpdl/internal/val"
)

// Options configures one cosimulation run.
type Options struct {
	Variant designs.Variant
	Program *asm.Program
	// Design, when non-nil, cosimulates an arbitrary compiled design
	// instead of a named processor variant (the design-space fuzzer's
	// path). Externs supplies its extern implementations and IMem its
	// raw instruction image; Variant/Program/Firmware are ignored and
	// the golden OIAT diff (RV32-specific) is skipped.
	Design  *xpdl.Design
	Externs map[string]sim.ExternFunc
	IMem    []uint32
	// StormSchedule pulses value 1 into the StormVol volatile at the
	// listed cycles — the generic-design interrupt source (requires
	// Design). StormVol defaults to "mip" for variant runs.
	StormSchedule []int
	StormVol      string
	// MaxCycles bounds the run (default 200000).
	MaxCycles int
	// Engine selects the simulator's executor (sim.Config.Engine; empty
	// is the default).
	Engine string
	// ChaosSeed, when nonzero, plugs the deterministic fault injector
	// into the simulator (timing faults only — the RTL replays the
	// perturbed schedule through its strobe inputs).
	ChaosSeed uint64
	// Storm lets the chaos injector pulse interrupt lines (requires an
	// interrupt-capable variant); implies SkipGolden.
	Storm bool
	// StormPct overrides the injector's per-cycle storm probability
	// (percent). A program that leaves interrupts enabled livelocks
	// under the default 10%/cycle rate — the handler never outruns the
	// next pulse — so interrupt-enabled storm runs want 1-2%.
	StormPct int
	// InterruptAt, when positive, pulses InterruptBit once at that cycle.
	InterruptAt  int
	InterruptBit uint32
	// DMemEvery throttles the full data-memory diff to every N cycles
	// (default 64); the final-state diff always covers all of it.
	DMemEvery int
	// Firmware presets CSR volatiles before boot (the Trap variant has
	// no csrw instruction; devices initialize it from outside). Applied
	// to the simulator, the RTL and the golden reference alike.
	Firmware map[string]uint32
	// Verilog overrides the emitted module text (used by the
	// bug-seeding tests to prove the harness catches emitter defects).
	Verilog string
	// SkipGolden suppresses the final OIAT diff (set automatically for
	// storm runs, whose interrupt timing the golden model cannot replay).
	SkipGolden bool
	// Ctx, when non-nil, cancels the run at the next cycle boundary; Run
	// then returns a *CanceledError carrying a resumable checkpoint.
	Ctx context.Context
	// CheckpointEvery, when positive, calls Checkpoint with a combined
	// checkpoint every N cycles. cycle is the checkpoint's absolute
	// cycle, counted from reset across resumes.
	CheckpointEvery int
	Checkpoint      func(cycle int, b []byte) error
	// Resume, when non-nil, restores a combined checkpoint taken under
	// identical Options instead of booting from reset.
	Resume []byte
}

// Result summarises a successful run.
type Result struct {
	Cycles  int
	Retired int
}

// DivergenceError reports the first cycle at which the RTL and the
// simulator disagreed about architectural state.
type DivergenceError struct {
	Cycle  int
	Signal string
	Got    uint64 // RTL value
	Want   uint64 // simulator value
	Detail string
}

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("cosim: cycle %d: %s: rtl %#x, sim %#x (%s)",
		e.Cycle, e.Signal, e.Got, e.Want, e.Detail)
}

// recorder captures the simulator's schedule events for one cycle.
type recorder struct {
	fire, kill, qkill uint64
	pop               bool
	qmirror           []int
	err               error
}

var _ sim.Observer = (*recorder)(nil)

func (r *recorder) reset(mirror []int) {
	r.fire, r.kill, r.qkill = 0, 0, 0
	r.pop = false
	r.qmirror = append(r.qmirror[:0], mirror...)
}

func (r *recorder) StageFired(pipe string, pos int) { r.fire |= 1 << uint(pos) }

func (r *recorder) EntryPulled(pipe string) {
	r.pop = true
	if len(r.qmirror) > 0 {
		r.qmirror = r.qmirror[1:]
	}
}

func (r *recorder) InstKilled(pipe string, pos, queuePos int) {
	if pos >= 0 {
		r.kill |= 1 << uint(pos)
		return
	}
	if queuePos < 0 || queuePos >= len(r.qmirror) {
		r.err = fmt.Errorf("cosim: queue kill at position %d outside the cycle-start queue (len %d)",
			queuePos, len(r.qmirror))
		return
	}
	if orig := r.qmirror[queuePos]; orig >= 0 {
		r.qkill |= 1 << uint(orig)
	} else {
		r.err = fmt.Errorf("cosim: same-cycle push+kill of a queue entry is outside the modeled subset")
	}
	r.qmirror = append(r.qmirror[:queuePos], r.qmirror[queuePos+1:]...)
}

// RTLFuncs adapts the simulator's extern implementations to the rtl
// evaluator's calling convention. Record results come back from the
// simulator name-sorted; the Verilog concat-lvalue binds them in field
// declaration order, so the adapter reorders via the extern signature.
func RTLFuncs(externs []*ast.ExternDecl, impls map[string]sim.ExternFunc) (map[string]*rtl.Func, error) {
	funcs := make(map[string]*rtl.Func, len(externs))
	for _, e := range externs {
		impl, ok := impls[e.Name]
		if !ok {
			return nil, fmt.Errorf("cosim: extern %s has no implementation", e.Name)
		}
		params := make([]int, len(e.Params))
		for i, prm := range e.Params {
			params[i] = prm.Type.BitWidth()
		}
		var results []int
		var fields []string
		if e.Result.Kind == ast.TRecord {
			for _, f := range e.Result.Fields {
				results = append(results, f.Type.BitWidth())
				fields = append(fields, f.Name)
			}
		} else if w := e.Result.BitWidth(); w > 0 {
			results = append(results, w)
		}
		name, impl2, fields2, results2 := e.Name, impl, fields, results
		funcs[e.Name] = &rtl.Func{
			Params:  params,
			Results: results,
			Fn: func(args []val.Value) []val.Value {
				v := impl2(args)
				if len(fields2) > 0 {
					out := make([]val.Value, len(fields2))
					for i, f := range fields2 {
						fv, ok := v.Field(f)
						if !ok {
							panic(fmt.Sprintf("cosim: extern %s: missing record field %s", name, f))
						}
						out[i] = fv
					}
					return out
				}
				if len(results2) == 0 {
					return nil
				}
				return []val.Value{v.Val}
			},
		}
	}
	return funcs, nil
}

// harness holds both machines and the plan tying their coordinates.
type harness struct {
	opts   Options
	p      *designs.Processor
	model  *rtl.Model
	plan   *synth.RTLPlan
	pr     probes
	rec    recorder
	mirror []int

	// device write captured by the OnCycle hook, replayed onto the
	// RTL's <devVol>_dev_* ports the same cycle.
	devVol string
	devWE  bool
	devDin uint64

	prevRetired int
}

// probes are the RTL signals and memories the harness drives and
// compares every cycle, resolved to handles once per run. Names are
// rebuilt only to report a divergence.
type probes struct {
	rst, fire, kill, qKill, entryPop, startValid rtl.Signal
	start                                        []rtl.Signal // start_<param>
	vols                                         []volProbe
	retireV, retireExc                           rtl.Signal
	retire                                       []rtl.Signal // retire_<param>
	retireEArg                                   []rtl.Signal // retire_earg<i>
	nodes                                        []nodeProbe
	gef, qLen                                    rtl.Signal
	qv                                           []rtl.Array // qv_<param>
	mems                                         []memProbe  // plan.Mems
	plainMems                                    []memProbe  // plan.PlainMems
	cpu                                          sim.Pipe    // the simulator's cpu pipeline
}

// volProbe is one volatile register: its device write port and its
// committed value.
type volProbe struct {
	name       string
	width      int
	idx        int // the simulator's VolIndex
	we, din, q rtl.Signal
}

// nodeProbe is one stage node's registers.
type nodeProbe struct {
	pos        int
	prefix     string
	valid, lef rtl.Signal
	slots      []slotProbe
	eargs      []rtl.Signal // <prefix>_r_earg<i>
}

// slotProbe pairs one compared architectural slot register with its
// simulator slot; a record field's position in the simulator's sorted
// record is remembered after the first lookup.
type slotProbe struct {
	name  string // plan slot name, the register's suffix
	slot  int    // simulator slot index
	field string // record field, "" for scalars
	at    int    // last position of field in the record
	sig   rtl.Signal
}

// memProbe pairs a memory's RTL array with the simulator's.
type memProbe struct {
	mem synth.PlanMem
	rtl rtl.Array
	sim sim.Mem
}

// Run cosimulates one program on one variant and reports the first
// divergence as a *DivergenceError.
func Run(opts Options) (*Result, error) {
	h, err := newHarness(opts)
	if err != nil {
		return nil, err
	}
	opts, p := h.opts, h.p
	cycles := 0
	if opts.Resume != nil {
		if cycles, err = h.restoreCheckpoint(opts.Resume); err != nil {
			return nil, err
		}
	} else if err := h.boot(); err != nil {
		return nil, err
	}

	var done <-chan struct{}
	if opts.Ctx != nil {
		done = opts.Ctx.Done()
	}
	for p.M.InFlight() > 0 {
		if cycles >= opts.MaxCycles {
			return nil, fmt.Errorf("cosim: cycle budget %d exhausted with %d in flight",
				opts.MaxCycles, p.M.InFlight())
		}
		select {
		case <-done:
			ce := &CanceledError{Cycle: cycles, Cause: opts.Ctx.Err()}
			ce.Snapshot, _ = h.checkpoint(cycles)
			return nil, ce
		default:
		}
		if err := h.cycleContained(cycles == 0, cycles); err != nil {
			return nil, err
		}
		cycles++
		if opts.CheckpointEvery > 0 && opts.Checkpoint != nil && cycles%opts.CheckpointEvery == 0 {
			b, err := h.checkpoint(cycles)
			if err != nil {
				return nil, fmt.Errorf("cosim: checkpoint at cycle %d: %w", cycles, err)
			}
			if err := opts.Checkpoint(cycles, b); err != nil {
				return nil, fmt.Errorf("cosim: checkpoint at cycle %d: %w", cycles, err)
			}
		}
	}

	if err := h.finalDiff(); err != nil {
		return nil, err
	}
	if !opts.SkipGolden {
		if err := h.goldenDiff(); err != nil {
			return nil, err
		}
	}
	return &Result{Cycles: cycles, Retired: p.RetiredCount()}, nil
}

// newHarness builds both machines for opts, with defaults applied, and
// resolves the probes; neither machine has been booted yet.
func newHarness(opts Options) (*harness, error) {
	if opts.MaxCycles == 0 {
		opts.MaxCycles = 200000
	}
	if opts.DMemEvery == 0 {
		opts.DMemEvery = 64
	}
	if opts.Storm || opts.Design != nil {
		opts.SkipGolden = true
	}

	h := &harness{opts: opts}
	h.devVol = opts.StormVol
	if h.devVol == "" {
		h.devVol = "mip"
	}

	// --- simulator side -------------------------------------------------
	cfg := sim.Config{Engine: opts.Engine, Observer: &h.rec}
	var inj *fault.Injector
	if opts.ChaosSeed != 0 {
		fc := fault.Default(opts.ChaosSeed)
		if !opts.Storm {
			fc.StormPct = 0
		} else if opts.StormPct != 0 {
			fc.StormPct = opts.StormPct
		}
		inj = fault.New(fc)
		cfg.Faults = inj
	}
	var p *designs.Processor
	var err error
	if opts.Design != nil {
		cfg.Externs = opts.Externs
		if cfg.Externs == nil {
			cfg.Externs = map[string]sim.ExternFunc{}
		}
		m, merr := opts.Design.NewMachine(cfg)
		if merr != nil {
			return nil, merr
		}
		p = &designs.Processor{Design: opts.Design, M: m}
		for i, w := range opts.IMem {
			m.MemPoke("imem", uint64(i), val.New(uint64(w), 32))
		}
	} else {
		p, err = designs.BuildCfg(opts.Variant, cfg)
		if err != nil {
			return nil, err
		}
		if (opts.Storm || opts.InterruptAt > 0) && !p.InterruptCapable() {
			return nil, fmt.Errorf("cosim: variant %s cannot take interrupts", opts.Variant)
		}
		if err := p.Load(opts.Program); err != nil {
			return nil, err
		}
		for name, v := range opts.Firmware {
			p.SetCSR(name, v)
		}
	}
	h.p = p

	// --- RTL side -------------------------------------------------------
	text, plans := synth.VerilogPlans(p.Design.Info, p.Design.Translations)
	plan, ok := plans["cpu"]
	if !ok {
		return nil, fmt.Errorf("cosim: cpu pipe of %s fell out of the synthesizable subset", opts.Variant)
	}
	h.plan = plan
	if opts.Verilog != "" {
		text = opts.Verilog
	}
	f, err := rtl.Parse(text)
	if err != nil {
		return nil, fmt.Errorf("cosim: parse emitted verilog: %w", err)
	}
	mod := f.Module(plan.Module)
	if mod == nil {
		return nil, fmt.Errorf("cosim: module %s not emitted", plan.Module)
	}
	impls := designs.Externs()
	if opts.Design != nil {
		impls = opts.Externs
	}
	funcs, err := RTLFuncs(p.Design.Info.Prog.Externs, impls)
	if err != nil {
		return nil, err
	}
	model, err := rtl.Elaborate(mod, funcs)
	if err != nil {
		return nil, fmt.Errorf("cosim: elaborate: %w", err)
	}
	h.model = model
	if err := h.resolve(); err != nil {
		return nil, err
	}

	// Interrupt sources run as a simulator device at cycle start; the
	// hook also captures the merged mip value for the RTL's device port.
	if len(opts.StormSchedule) > 0 {
		sched := opts.StormSchedule
		next := 0
		p.M.OnCycle(func(m *sim.Machine) {
			c := m.Cycle()
			for next < len(sched) && sched[next] < c {
				next++
			}
			if next < len(sched) && sched[next] == c {
				next++
				m.VolPoke(h.devVol, val.New(1, m.VolPeek(h.devVol).Width()))
				h.devWE = true
				h.devDin = m.VolPeek(h.devVol).Uint()
			}
		})
	}
	if opts.Storm || opts.InterruptAt > 0 {
		p.M.OnCycle(func(m *sim.Machine) {
			raised := false
			if opts.Storm && inj != nil {
				if line, ok := inj.Storm(m.Cycle(), len(stormBits)); ok {
					p.RaiseInterrupt(stormBits[line])
					raised = true
				}
			}
			if opts.InterruptAt > 0 && m.Cycle() == opts.InterruptAt {
				p.RaiseInterrupt(opts.InterruptBit)
				raised = true
			}
			if raised {
				h.devWE = true
				h.devDin = uint64(p.CSR("mip"))
			}
		})
	}
	return h, nil
}

// resolve looks up every RTL signal and memory the harness touches per
// cycle, and the simulator slot and memory each one is compared with.
func (h *harness) resolve() error {
	m, plan, pr := h.model, h.plan, &h.pr
	var err error
	sig := func(name string) rtl.Signal {
		s, e := m.Signal(name)
		if e != nil && err == nil {
			err = fmt.Errorf("cosim: %w", e)
		}
		return s
	}
	arr := func(name string, depth int) rtl.Array {
		a, e := m.Array(name)
		if e == nil && a.Depth() < depth {
			e = fmt.Errorf("rtl memory %s has %d words, want %d", name, a.Depth(), depth)
		}
		if e != nil && err == nil {
			err = fmt.Errorf("cosim: %w", e)
		}
		return a
	}
	memProbes := func(mems []synth.PlanMem) []memProbe {
		out := make([]memProbe, len(mems))
		for i, mem := range mems {
			out[i] = memProbe{mem: mem, rtl: arr(mem.Name+"_arr", mem.Depth), sim: h.p.M.Mem(mem.Name)}
		}
		return out
	}

	cpu, ok := h.p.M.Pipe("cpu")
	if !ok {
		return fmt.Errorf("cosim: the simulator has no cpu pipeline")
	}
	pr.cpu = cpu
	pr.rst, pr.fire, pr.kill, pr.qKill = sig("rst"), sig("fire"), sig("kill"), sig("q_kill")
	pr.entryPop, pr.startValid = sig("entry_pop"), sig("start_valid")
	pr.retireV, pr.retireExc = sig("retire_v"), sig("retire_exc")
	for _, prm := range plan.Params {
		pr.start = append(pr.start, sig("start_"+prm.Name))
		pr.retire = append(pr.retire, sig("retire_"+prm.Name))
		pr.qv = append(pr.qv, arr("qv_"+prm.Name, plan.EntryCap))
	}
	for i := 0; i < plan.NumEArgs; i++ {
		pr.retireEArg = append(pr.retireEArg, sig(fmt.Sprintf("retire_earg%d", i)))
	}
	for _, v := range plan.Vols {
		idx, ok := h.p.M.VolIndex(v.Name)
		if !ok {
			return fmt.Errorf("cosim: plan volatile %s has no simulator register", v.Name)
		}
		pr.vols = append(pr.vols, volProbe{name: v.Name, width: v.Width, idx: idx,
			we: sig(v.Name + "_dev_we"), din: sig(v.Name + "_dev_din"), q: sig(v.Name + "_q")})
	}
	for _, nd := range plan.Nodes {
		np := nodeProbe{pos: nd.Pos, prefix: nd.Prefix, valid: sig(nd.Prefix + "_valid")}
		if plan.Translated {
			np.lef = sig(nd.Prefix + "_lef")
		}
		for _, s := range plan.Slots {
			if s.Var == "" {
				continue
			}
			idx, ok := h.p.M.SlotIndex("cpu", s.Var)
			if !ok {
				return fmt.Errorf("cosim: plan slot %s has no simulator slot", s.Var)
			}
			if s.IsHandle || s.IsEArg {
				continue
			}
			np.slots = append(np.slots, slotProbe{name: s.Name, slot: idx, field: s.Field, sig: sig(nd.Prefix + "_r_" + s.Name)})
		}
		for i := 0; i < plan.NumEArgs; i++ {
			np.eargs = append(np.eargs, sig(fmt.Sprintf("%s_r_earg%d", nd.Prefix, i)))
		}
		pr.nodes = append(pr.nodes, np)
	}
	if plan.Translated {
		pr.gef = sig("gef_q")
	}
	pr.qLen = sig("q_len")
	pr.mems = memProbes(plan.Mems)
	pr.plainMems = memProbes(plan.PlainMems)
	return err
}

// stormBits mirrors designs.AttachStorm's line order, so a chaos seed
// perturbs the cosimulated machine exactly as it does the chaos suite.
var stormBits = [...]uint32{riscv.MIPMSIP, riscv.MIPMTIP, riscv.MIPMEIP}

// boot resets the RTL, loads it from the simulator and boots the
// simulator.
func (h *harness) boot() error {
	if err := h.resetAndLoad(); err != nil {
		return err
	}
	if err := h.p.Boot(); err != nil {
		return err
	}
	// The boot instruction is already in the simulator's entry queue;
	// on the RTL it arrives through the start_valid strobe during the
	// first cycle, so it has no cycle-start queue index yet.
	h.mirror = []int{-1}
	return nil
}

// resetAndLoad pulses reset and initialises the RTL memories to match
// the loaded simulator.
func (h *harness) resetAndLoad() error {
	m, pr := h.model, &h.pr
	pr.rst.Poke(val.New(1, 1))
	if err := m.Settle(); err != nil {
		return fmt.Errorf("cosim: settle under reset: %w", err)
	}
	if err := m.Clock(); err != nil {
		return fmt.Errorf("cosim: reset clock: %w", err)
	}
	pr.rst.Poke(val.New(0, 1))
	for _, mems := range [][]memProbe{pr.mems, pr.plainMems} {
		for _, mp := range mems {
			for i := 0; i < mp.mem.Depth; i++ {
				mp.rtl.Poke(i, val.New(mp.sim.Peek(uint64(i)).Uint(), mp.mem.Width))
			}
		}
	}
	// Volatiles boot to their simulator values (normally zero).
	for _, v := range pr.vols {
		v.we.Poke(val.New(1, 1))
		v.din.Poke(val.New(h.p.M.VolPeek(v.name).Uint(), v.width))
	}
	if len(pr.vols) > 0 {
		if err := m.Settle(); err != nil {
			return err
		}
		if err := m.Clock(); err != nil {
			return err
		}
		for _, v := range pr.vols {
			v.we.Poke(val.New(0, 1))
		}
	}
	return nil
}

// cycle advances both machines one clock and compares them.
func (h *harness) cycle(boot bool) error {
	p, m, pr := h.p, h.model, &h.pr
	simCycle := p.M.Cycle()

	h.rec.reset(h.mirror)
	h.devWE = false
	if err := p.M.Step(); err != nil {
		return fmt.Errorf("cosim: simulator: %w", err)
	}
	if h.rec.err != nil {
		return h.rec.err
	}

	// Replay the observed schedule into the module inputs.
	pr.fire.Poke(val.New(h.rec.fire, len(h.plan.Nodes)))
	pr.kill.Poke(val.New(h.rec.kill, len(h.plan.Nodes)))
	pr.qKill.Poke(val.New(h.rec.qkill, h.plan.EntryCap))
	pr.entryPop.Poke(val.New(b2u(h.rec.pop), 1))
	pr.startValid.Poke(val.New(b2u(boot), 1))
	if boot {
		for i, prm := range h.plan.Params {
			pr.start[i].Poke(val.New(0, prm.Width))
		}
	}
	for _, v := range pr.vols {
		we, din := uint64(0), uint64(0)
		if v.name == h.devVol && h.devWE {
			we, din = 1, h.devDin
		}
		v.we.Poke(val.New(we, 1))
		v.din.Poke(val.New(din, v.width))
	}

	if err := m.Settle(); err != nil {
		return fmt.Errorf("cosim: cycle %d: settle: %w", simCycle, err)
	}
	if err := h.compareRetire(simCycle); err != nil {
		return err
	}
	if err := m.Clock(); err != nil {
		return fmt.Errorf("cosim: cycle %d: clock: %w", simCycle, err)
	}
	if err := h.compareState(simCycle); err != nil {
		return err
	}

	// Post-edge, the RTL queue was verified identical to the simulator's,
	// so next cycle's kill mask indexes it directly.
	h.mirror = h.mirror[:0]
	for i := 0; i < h.pr.cpu.QueueLen(); i++ {
		h.mirror = append(h.mirror, i)
	}
	return nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func diverge(cycle int, signal string, got, want uint64, detail string) error {
	return &DivergenceError{Cycle: cycle, Signal: signal, Got: got, Want: want, Detail: detail}
}

// compareRetire checks the retirement observation ports against the
// simulator's retirement trace delta for this cycle. Two instructions
// can retire in the same cycle (one on the commit tail, one on the
// except tail); the ports then expose the mux-priority one, so the
// harness matches on the exceptional flag.
func (h *harness) compareRetire(cycle int) error {
	pr := &h.pr
	all := h.p.M.Retired()
	delta := all[h.prevRetired:]
	h.prevRetired = len(all)

	rv := pr.retireV.Peek().Uint()
	if len(delta) == 0 {
		if rv != 0 {
			return diverge(cycle, "retire_v", rv, 0, "no simulator retirement this cycle")
		}
		return nil
	}
	if rv != 1 {
		return diverge(cycle, "retire_v", rv, 1, "simulator retired this cycle")
	}
	rexc := pr.retireExc.Peek().Uint()
	var match *sim.Retirement
	for i := range delta {
		if b2u(delta[i].Exceptional) == rexc {
			match = &delta[i]
			break
		}
	}
	if match == nil {
		return diverge(cycle, "retire_exc", rexc, b2u(delta[0].Exceptional), "exceptional flag")
	}
	for i, s := range pr.retire {
		if i >= len(match.Args) {
			continue
		}
		if got, want := s.Peek().Uint(), match.Args[i].Uint(); got != want {
			return diverge(cycle, "retire_"+h.plan.Params[i].Name, got, want, "retired argument")
		}
	}
	if match.Exceptional {
		for i := 0; i < len(pr.retireEArg) && i < len(match.EArgs); i++ {
			if match.EArgs[i].Width() == 0 {
				continue
			}
			if got, want := pr.retireEArg[i].Peek().Uint(), match.EArgs[i].Uint(); got != want {
				return diverge(cycle, fmt.Sprintf("retire_earg%d", i), got, want, "except argument")
			}
		}
	}
	return nil
}

// fieldOf reads the probed record field of a slot value, trying the
// position it was found at last time before searching: every value of
// a slot shares one sorted record layout.
func (s *slotProbe) fieldOf(v sim.V) (val.Value, bool) {
	r := v.Rec
	if r == nil {
		return val.Value{}, false
	}
	if s.at < len(r.Names) && r.Names[s.at] == s.field {
		return r.Vals[s.at], true
	}
	for i, n := range r.Names {
		if n == s.field {
			s.at = i
			return r.Vals[i], true
		}
	}
	return val.Value{}, false
}

// compareState diffs committed architectural state after the clock edge.
func (h *harness) compareState(cycle int) error {
	plan, pr := h.plan, &h.pr
	msim, cpu := h.p.M, pr.cpu

	for i := range pr.nodes {
		nd := &pr.nodes[i]
		occ := cpu.StageOccupied(nd.pos)
		if got := nd.valid.Peek().Uint(); got != b2u(occ) {
			return diverge(cycle, nd.prefix+"_valid", got, b2u(occ), msim.NodeLabel("cpu", nd.pos))
		}
		if !occ {
			continue
		}
		if plan.Translated {
			if got, want := nd.lef.Peek().Uint(), b2u(cpu.StageLEF(nd.pos)); got != want {
				return diverge(cycle, nd.prefix+"_lef", got, want, "local exception flag")
			}
		}
		for j := range nd.slots {
			s := &nd.slots[j]
			sv, ok := cpu.StageSlot(nd.pos, s.slot)
			if !ok {
				continue // undriven: architecturally unobservable
			}
			want := sv.Val
			if s.field != "" {
				if want, ok = s.fieldOf(sv); !ok {
					continue
				}
			} else if sv.IsRecord() {
				continue
			}
			if got := s.sig.Peek().Uint(); got != want.Uint() {
				return diverge(cycle, nd.prefix+"_r_"+s.name, got, want.Uint(), "stage slot")
			}
		}
		eargs := cpu.StageEArgs(nd.pos)
		for i := 0; i < len(nd.eargs) && i < len(eargs); i++ {
			if eargs[i].Width() == 0 {
				continue
			}
			if got, want := nd.eargs[i].Peek().Uint(), eargs[i].Uint(); got != want {
				return diverge(cycle, fmt.Sprintf("%s_r_earg%d", nd.prefix, i), got, want, "except argument slot")
			}
		}
	}

	if plan.Translated {
		if got, want := pr.gef.Peek().Uint(), b2u(cpu.Gef()); got != want {
			return diverge(cycle, "gef_q", got, want, "global exception flag")
		}
	}
	for _, v := range pr.vols {
		if got, want := v.q.Peek().Uint(), msim.VolPeekAt(v.idx).Uint(); got != want {
			return diverge(cycle, v.name+"_q", got, want, "volatile register")
		}
	}

	qlen := cpu.QueueLen()
	if got := pr.qLen.Peek().Uint(); got != uint64(qlen) {
		return diverge(cycle, "q_len", got, uint64(qlen), "entry queue depth")
	}
	for i := 0; i < qlen; i++ {
		for j, qv := range pr.qv {
			if i >= qv.Depth() {
				return fmt.Errorf("cosim: entry queue depth %d beyond qv_%s (%d words)", qlen, plan.Params[j].Name, qv.Depth())
			}
			if got, want := qv.Peek(i).Uint(), cpu.QueueArg(i, j).Uint(); got != want {
				return diverge(cycle, fmt.Sprintf("qv_%s[%d]", plan.Params[j].Name, i), got, want, "queued argument")
			}
		}
	}

	for i := range pr.mems {
		if pr.mems[i].mem.Depth > 64 && cycle%h.opts.DMemEvery != 0 {
			continue
		}
		if err := compareMem(cycle, &pr.mems[i]); err != nil {
			return err
		}
	}
	return nil
}

func compareMem(cycle int, mp *memProbe) error {
	for i := 0; i < mp.mem.Depth; i++ {
		if got, want := mp.rtl.Peek(i).Uint(), mp.sim.Peek(uint64(i)).Uint(); got != want {
			return diverge(cycle, fmt.Sprintf("%s_arr[%d]", mp.mem.Name, i), got, want, "memory word")
		}
	}
	return nil
}

// finalDiff re-checks every locked memory word once the pipeline has
// drained (the per-cycle loop throttles large memories).
func (h *harness) finalDiff() error {
	cycle := h.p.M.Cycle()
	for i := range h.pr.mems {
		if err := compareMem(cycle, &h.pr.mems[i]); err != nil {
			return err
		}
	}
	return nil
}

// goldenDiff checks the run against the golden model through the OIAT
// checker. The checker reads the simulator's state, which is the RTL's:
// compareState matched every volatile at every clock edge, the last one
// included, and finalDiff every word of the locked memories (the
// register file and data memory) after drain.
func (h *harness) goldenDiff() error {
	o := designs.OIAT{Variant: h.opts.Variant, Text: h.opts.Program.Text, Data: h.opts.Program.Data,
		Firmware: h.opts.Firmware}
	if h.opts.InterruptAt > 0 {
		o.Lines = h.opts.InterruptBit
		if h.opts.InterruptAt < h.p.M.Cycle() {
			o.Raised = o.Lines
		}
	}
	if mm := new(designs.Checker).Check(h.p.M, &o); mm != nil {
		return fmt.Errorf("cosim: golden model: %w", mm)
	}
	return nil
}
