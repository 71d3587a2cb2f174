package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"xpdl"
	"xpdl/internal/asm"
	"xpdl/internal/check"
	"xpdl/internal/core"
	"xpdl/internal/designs"
	"xpdl/internal/golden"
	"xpdl/internal/pdl/parser"
	"xpdl/internal/sim"
	"xpdl/internal/workloads"
)

// kernelCycles records each kernel's exact cycle and retirement counts.
// They are the same on every variant — the paper's claim that precise
// exceptions cost no CPI — and fib's 289/206 is the CPI 1.403 of the
// paper's table. A run that disagrees is a failed check.
var kernelCycles = map[string]struct{ cycles, retired int }{
	"aes":       {7567, 4245},
	"gemm":      {7512, 4187},
	"sort":      {5848, 3706},
	"crc":       {14606, 10465},
	"fib":       {289, 206},
	"memcpy":    {6632, 3728},
	"spmv":      {1653, 993},
	"stencil":   {12803, 7530},
	"histogram": {10674, 5887},
}

// kernelBudget is xpdlsim's default cycle budget.
const kernelBudget = 1_000_000

type kernelCase struct {
	variant designs.Variant
	src     string // the variant's XPDL source
	name    string
	prog    *asm.Program
	steps   int // golden step bound
}

type kernelsBench struct {
	rng   *rand.Rand
	cases []kernelCase
	next  int64 // operation id
}

// setupKernels assembles every kernel and warms the five variant
// designs (one compile and machine build each).
func setupKernels(seed uint64, _ time.Duration, _ *tracer) (bench, error) {
	b := &kernelsBench{rng: rand.New(rand.NewPCG(seed, 0x6b65726e656c73))}
	for _, v := range designs.Variants() {
		src := designs.Source(v)
		d, err := xpdl.Compile(src)
		if err != nil {
			return nil, err
		}
		if _, err := d.NewMachine(sim.Config{Externs: designs.Externs()}); err != nil {
			return nil, err
		}
		for _, w := range workloads.All() {
			prog, err := w.Assemble()
			if err != nil {
				return nil, fmt.Errorf("assemble %s: %w", w.Name, err)
			}
			if _, ok := kernelCycles[w.Name]; !ok {
				return nil, fmt.Errorf("no recorded cycle count for kernel %s", w.Name)
			}
			b.cases = append(b.cases, kernelCase{v, src, w.Name, prog, w.MaxSteps})
		}
	}
	return b, nil
}

func (b *kernelsBench) close() {}

// measure runs whole sweeps — every variant × kernel once, in an order
// the seed shuffles — so the per-sweep counts are exact.
func (b *kernelsBench) measure(p *pass, tr *tracer, d time.Duration, floor int) {
	var sweeps int
	var retired, firings int64
	var runTimes []time.Duration // per sweep, the time in Machine.Run
	times := loopUnits(p, d, floor, 1, func() {
		order := b.rng.Perm(len(b.cases))
		var runTime time.Duration
		for _, i := range order {
			r, err := b.run(p, tr, b.cases[i])
			p.check(err)
			retired += int64(r.retired)
			firings += int64(r.firings)
			runTime += r.runTime
		}
		runTimes = append(runTimes, runTime)
		sweeps++
	})
	// ops_per_s counts whole kernel runs; sim_cycles_per_s is the cycle
	// loop's own rate, cycles over the time in Machine.Run alone.
	p.opTime = medianTime(times)
	p.cycleTime = medianTime(runTimes)
	n := float64(sweeps)
	p.values["sim.cycles"] = float64(p.cycles) / n
	p.values["sim.retired"] = float64(retired) / n
	p.values["sim.cpi"] = float64(p.cycles) / float64(retired)
	p.values["sim.firings_per_cycle"] = float64(firings) / float64(p.cycles)
}

type kernelRun struct {
	retired, firings int
	runTime          time.Duration // host time in Machine.Run
}

// run is one xpdlsim invocation: compile, build on the default engine,
// load and boot, run to halt, golden cross-check.
func (b *kernelsBench) run(p *pass, tr *tracer, c kernelCase) (kernelRun, error) {
	b.next++
	id := b.next
	t0 := time.Now()
	root := tr.begin("op.kernel."+c.variant.String()+"."+c.name, id, -1)
	defer func() {
		tr.end(root)
		p.ops++
		p.latencies = append(p.latencies, time.Since(t0))
	}()

	h := tr.begin("parser.Parse", id, root)
	ast, err := parser.Parse(c.src)
	tr.end(h)
	if err != nil {
		return kernelRun{}, err
	}
	h = tr.begin("check.Check", id, root)
	info, err := check.Check(ast)
	tr.end(h)
	if err != nil {
		return kernelRun{}, err
	}
	h = tr.begin("core.TranslateProgram", id, root)
	trs := core.TranslateProgram(info)
	tr.end(h)
	d := &xpdl.Design{Source: c.src, Prog: ast, Info: info, Translations: trs}

	h = tr.begin("Design.NewMachine", id, root)
	m, err := d.NewMachine(sim.Config{Externs: designs.Externs()})
	tr.end(h)
	if err != nil {
		return kernelRun{}, err
	}
	proc := &designs.Processor{Variant: c.variant, Design: d, M: m}
	if err := proc.Load(c.prog); err != nil {
		return kernelRun{}, err
	}
	if err := proc.Boot(); err != nil {
		return kernelRun{}, err
	}
	h = tr.begin("Machine.Run", id, root)
	rs := time.Now()
	cycles, err := proc.Run(kernelBudget)
	el := time.Since(rs)
	tr.end(h)
	p.cycles += int64(cycles)
	if err != nil {
		return kernelRun{runTime: el}, fmt.Errorf("%s/%s: %w", c.variant, c.name, err)
	}
	if tr != nil && cycles > 0 {
		p.samples["sim.run_ns_per_cycle"] = append(p.samples["sim.run_ns_per_cycle"], float64(el)/float64(cycles))
	}
	r := kernelRun{retired: len(proc.Retired()), firings: int(m.Firings()), runTime: el}

	h = tr.begin("golden.Run", id, root)
	g := golden.New(c.prog.Text, c.prog.Data, designs.DMemWords)
	err = g.Run(c.steps)
	tr.end(h)
	if err != nil {
		return r, fmt.Errorf("%s/%s: golden: %w", c.variant, c.name, err)
	}
	for i := uint32(1); i < 32; i++ {
		if proc.Reg(i) != g.Regs[i] {
			return r, fmt.Errorf("%s/%s: x%d pipeline %#x, golden %#x", c.variant, c.name, i, proc.Reg(i), g.Regs[i])
		}
	}
	for i := uint32(0); i < designs.DMemWords; i++ {
		if proc.DMemWord(i) != g.DMem[i] {
			return r, fmt.Errorf("%s/%s: dmem[%d] pipeline %#x, golden %#x", c.variant, c.name, i, proc.DMemWord(i), g.DMem[i])
		}
	}
	want := kernelCycles[c.name]
	if cycles != want.cycles || r.retired != want.retired {
		return r, fmt.Errorf("%s/%s: %d cycles, %d retired; recorded %d cycles, %d retired",
			c.variant, c.name, cycles, r.retired, want.cycles, want.retired)
	}
	return r, nil
}
