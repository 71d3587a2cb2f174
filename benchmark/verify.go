package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"xpdl"
	"xpdl/internal/asm"
	"xpdl/internal/bveq"
	"xpdl/internal/cosim"
	"xpdl/internal/designs"
	"xpdl/internal/rtl"
	"xpdl/internal/sim"
	"xpdl/internal/synth"
	"xpdl/internal/workloads"
)

// verifyBounds is the K=3 sweep with every other bound at bveq's
// default, spelled out because CheckPoint takes the budget explicitly
// and the chunk timing needs the batch width.
var verifyBounds = bveq.Bounds{K: 3, Width: 2, Window: 12, Budget: 384, Engine: "vm", Lanes: 64}

// minRounds is the fewest rounds an end-to-end pass measures, so every
// piece of a round has at least three times to take the median of.
const minRounds = 3

// pointSample is how many enumeration points per variant and round are
// also built and checked solo, for the per-point layer timings.
const pointSample = 8

// cosimKernels are the short kernels cosimulated on every variant.
var cosimKernels = []string{"fib", "spmv"}

type verifyVariant struct {
	v      designs.Variant
	target *bveq.VariantTarget
	design *xpdl.Design
	points []bveq.PointDesc
	// programs and points are bveq.Cardinality's closed form.
	programs, npoints int
	chaos             []uint64 // cosim chaos seed per cosimKernels entry
}

type verifyBench struct {
	rng      *rand.Rand
	variants []*verifyVariant
	progs    []*asm.Program // per cosimKernels entry
	next     int64
}

// setupVerify builds the five bveq targets, enumerates their points,
// assembles the cosim kernels and draws the cosim chaos seeds.
func setupVerify(seed uint64, _ time.Duration, tr *tracer) (bench, error) {
	b := &verifyBench{rng: rand.New(rand.NewPCG(seed, 0x766572696679))}
	seeds := rand.New(rand.NewPCG(seed, 0x6368616f73))
	for _, name := range cosimKernels {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		prog, err := w.Assemble()
		if err != nil {
			return nil, err
		}
		b.progs = append(b.progs, prog)
	}
	for _, v := range designs.Variants() {
		h := tr.begin("bveq.NewVariantTarget."+v.String(), 0, -1)
		t, err := bveq.NewVariantTarget(v, verifyBounds.Width, nil)
		tr.end(h)
		if err != nil {
			return nil, err
		}
		d, err := xpdl.Compile(designs.Source(v))
		if err != nil {
			return nil, err
		}
		vv := &verifyVariant{v: v, target: t, design: d}
		vv.programs, vv.npoints = bveq.Cardinality(verifyBounds, len(t.Alphabet()), len(t.ExcLetters()), t.IntrCapable())
		bveq.Enumerate(t, verifyBounds, func(pd bveq.PointDesc) bool {
			pd.Prog = append([]uint32(nil), pd.Prog...)
			vv.points = append(vv.points, pd)
			return true
		})
		for range cosimKernels {
			vv.chaos = append(vv.chaos, seeds.Uint64()|1)
		}
		b.variants = append(b.variants, vv)
	}
	return b, nil
}

func (b *verifyBench) close() {}

// measure runs whole rounds. A round is, in an order the seed shuffles:
// a bveq sweep of each variant, a cosim run of each kernel on each
// variant, the synth → rtl build of each variant, and a seeded sample
// of points built and checked solo.
//
// A round takes about ten seconds, so a run holds only a few. The
// rates and latencies are therefore taken piece by piece: every bveq
// batch chunk, every cosim run and every point is the same work in
// every round, and each is counted at the median of its rounds' times.
// A slow spell of the host then has to hit the same piece in most
// rounds to move a figure.
func (b *verifyBench) measure(p *pass, tr *tracer, d time.Duration, floor int) {
	type item func()
	var rounds int
	var programs, spots int
	var points int
	type piece struct{ variant, index int }
	chunks := map[piece][]time.Duration{}
	pointLat := map[piece][]time.Duration{}
	cosims := map[piece][]time.Duration{}
	minUnits := 1
	if floor > 0 {
		minUnits = minRounds
	}
	loopUnits(p, d, floor, minUnits, func() {
		var items []item
		for vi, vv := range b.variants {
			vi, vv := vi, vv
			items = append(items,
				func() {
					rep, tt, err := b.sweep(p, tr, vv)
					if rep != nil {
						programs += rep.Programs
						points += rep.Points
						spots += rep.SpotChecks
					}
					for k, c := range tt.chunks {
						chunks[piece{vi, k}] = append(chunks[piece{vi, k}], c)
					}
					for k, l := range tt.lat {
						pointLat[piece{vi, k}] = append(pointLat[piece{vi, k}], l)
					}
					p.check(err)
				},
				func() { p.check(b.rtlBuild(tr, vv)) },
				func() { b.samplePoints(p, tr, vv) })
			for k := range cosimKernels {
				k := k
				items = append(items, func() {
					el, err := b.cosim(p, tr, vv, k)
					cosims[piece{vi, k}] = append(cosims[piece{vi, k}], el)
					p.check(err)
				})
			}
		}
		for _, i := range b.rng.Perm(len(items)) {
			items[i]()
		}
		rounds++
	})
	p.opTime = time.Duration(rounds) * medianSum(chunks)
	p.cycleTime = time.Duration(rounds) * medianSum(cosims)
	for _, ls := range pointLat {
		p.latencies = append(p.latencies, medianDuration(ls))
	}
	n := float64(rounds)
	p.values["bveq.points"] = float64(points) / n
	p.values["bveq.programs"] = float64(programs) / n
	p.values["bveq.spot_checks"] = float64(spots) / n
	p.values["cosim.cycles"] = float64(p.cycles) / n
}

// sweep runs bveq.Verify on one variant through a target wrapper that
// times every batch chunk and every point from its machine build to its
// verdict.
func (b *verifyBench) sweep(p *pass, tr *tracer, vv *verifyVariant) (*bveq.Report, *timedTarget, error) {
	b.next++
	root := tr.begin("op.bveq."+vv.v.String(), b.next, -1)
	h := tr.begin("bveq.Verify."+vv.v.String(), b.next, root)
	tt := &timedTarget{VariantTarget: vv.target, p: p, tr: tr, id: b.next, open: map[*sim.Machine]openPoint{}}
	tt.starts = []time.Time{time.Now()}
	rep, err := bveq.Verify(tt, verifyBounds)
	tt.close(time.Now())
	tr.end(h)
	tr.end(root)
	switch {
	case err != nil:
		return nil, tt, fmt.Errorf("bveq %s: %w", vv.v, err)
	case !rep.Verified:
		return rep, tt, fmt.Errorf("bveq %s: not verified: %d counterexamples", vv.v, len(rep.Counterexamples))
	case rep.Points != vv.npoints || rep.Programs != vv.programs:
		return rep, tt, fmt.Errorf("bveq %s: %d points, %d programs; cardinality %d, %d",
			vv.v, rep.Points, rep.Programs, vv.npoints, vv.programs)
	}
	return rep, tt, nil
}

// timedTarget wraps a variant target for one bveq.Verify call. Verify
// builds each chunk of verifyBounds.Lanes points on its primary engine,
// runs them as one batch and checks them in point order, so the n-th
// primary build is the n-th point of the enumeration. The wrapper
// records when each chunk's first build starts, and for every point the
// time from its build to its verdict. Spot-check machines (built on the
// oracle engine) are not points.
type timedTarget struct {
	*bveq.VariantTarget
	p  *pass
	tr *tracer
	id int64

	mu     sync.Mutex
	builds int
	open   map[*sim.Machine]openPoint
	starts []time.Time     // chunk k starts at starts[k]; chunk 0 at the call
	chunks []time.Duration // set by close
	lat    []time.Duration // per point, in enumeration order
}

type openPoint struct {
	t0    time.Time
	index int
}

func (t *timedTarget) Build(prog []uint32, intr int, engine string) (*sim.Machine, error) {
	t0 := time.Now()
	m, err := t.VariantTarget.Build(prog, intr, engine)
	if err == nil && engine == verifyBounds.Engine {
		t.mu.Lock()
		if t.builds > 0 && t.builds%verifyBounds.Lanes == 0 {
			t.starts = append(t.starts, t0)
		}
		t.open[m] = openPoint{t0, t.builds}
		t.builds++
		t.mu.Unlock()
	}
	return m, err
}

func (t *timedTarget) Check(prog []uint32, intr int, m *sim.Machine, runErr error) *bveq.Mismatch {
	mm := t.VariantTarget.Check(prog, intr, m, runErr)
	t.mu.Lock()
	defer t.mu.Unlock()
	if op, ok := t.open[m]; ok {
		now := time.Now()
		delete(t.open, m)
		for len(t.lat) <= op.index {
			t.lat = append(t.lat, 0)
		}
		t.lat[op.index] = now.Sub(op.t0)
		t.p.ops++
		// A point's span is a latency record, not a layer call: lanes run
		// in lockstep, so points overlap each other and are no part of
		// the self-time accounting.
		t.tr.add("point.verdict", t.id, -1, op.t0, now)
	}
	return mm
}

// close ends the last chunk at end, so the chunks split the call's
// whole time.
func (t *timedTarget) close(end time.Time) {
	for k, s := range t.starts {
		e := end
		if k+1 < len(t.starts) {
			e = t.starts[k+1]
		}
		t.chunks = append(t.chunks, e.Sub(s))
	}
}

// samplePoints checks a seeded sample of points solo. CheckPoint builds
// each point once, through a wrapper that files the build under the
// CheckPoint span.
func (b *verifyBench) samplePoints(p *pass, tr *tracer, vv *verifyVariant) {
	for i := 0; i < pointSample; i++ {
		pd := vv.points[b.rng.IntN(len(vv.points))]
		b.next++
		root := tr.begin("op.point."+vv.v.String(), b.next, -1)
		h := tr.begin("bveq.CheckPoint", b.next, root)
		st := spanTarget{VariantTarget: vv.target, tr: tr, id: b.next, parent: h}
		mm := bveq.CheckPoint(st, pd.Prog, pd.Intr, verifyBounds.Engine, verifyBounds.Budget)
		tr.end(h)
		tr.end(root)
		if mm != nil {
			p.check(fmt.Errorf("bveq %s point %d: %s", vv.v, pd.Index, mm))
		} else {
			p.check(nil)
		}
	}
}

// spanTarget records each Build as a VariantTarget.Build span under
// parent.
type spanTarget struct {
	*bveq.VariantTarget
	tr     *tracer
	id     int64
	parent int
}

func (t spanTarget) Build(prog []uint32, intr int, engine string) (*sim.Machine, error) {
	h := t.tr.begin("VariantTarget.Build", t.id, t.parent)
	defer t.tr.end(h)
	return t.VariantTarget.Build(prog, intr, engine)
}

// rtlBuild emits the variant's Verilog, parses it back and elaborates
// the cpu module — the RTL side every cosim run sets up.
func (b *verifyBench) rtlBuild(tr *tracer, vv *verifyVariant) error {
	b.next++
	root := tr.begin("op.rtl."+vv.v.String(), b.next, -1)
	defer tr.end(root)
	h := tr.begin("synth.Verilog", b.next, root)
	text, plans := synth.VerilogPlans(vv.design.Info, vv.design.Translations)
	tr.end(h)
	plan, ok := plans["cpu"]
	if !ok {
		return fmt.Errorf("rtl %s: no plan for the cpu pipe", vv.v)
	}
	h = tr.begin("rtl.Parse", b.next, root)
	f, err := rtl.Parse(text)
	tr.end(h)
	if err != nil {
		return fmt.Errorf("rtl %s: %w", vv.v, err)
	}
	mod := f.Module(plan.Module)
	if mod == nil {
		return fmt.Errorf("rtl %s: module %s missing", vv.v, plan.Module)
	}
	funcs, err := cosim.RTLFuncs(vv.design.Info.Prog.Externs, designs.Externs())
	if err != nil {
		return err
	}
	h = tr.begin("rtl.Elaborate", b.next, root)
	model, err := rtl.Elaborate(mod, funcs)
	tr.end(h)
	if err == nil && model == nil {
		err = errors.New("nil model")
	}
	if err != nil {
		return fmt.Errorf("rtl %s: elaborate: %w", vv.v, err)
	}
	return nil
}

// cosim runs one kernel on one variant in lockstep with its RTL, under
// the variant's seeded chaos, and returns the host time it took; any
// divergence is an error.
func (b *verifyBench) cosim(p *pass, tr *tracer, vv *verifyVariant, k int) (time.Duration, error) {
	b.next++
	root := tr.begin("op.cosim."+vv.v.String()+"."+cosimKernels[k], b.next, -1)
	h := tr.begin("cosim.Run", b.next, root)
	t0 := time.Now()
	res, err := cosim.Run(cosim.Options{Variant: vv.v, Program: b.progs[k], ChaosSeed: vv.chaos[k]})
	el := time.Since(t0)
	tr.end(h)
	tr.end(root)
	if err != nil {
		return el, fmt.Errorf("cosim %s/%s seed %#x: %w", vv.v, cosimKernels[k], vv.chaos[k], err)
	}
	p.cycles += int64(res.Cycles)
	if tr != nil && res.Cycles > 0 {
		p.samples["cosim.ns_per_cycle"] = append(p.samples["cosim.ns_per_cycle"], float64(el)/float64(res.Cycles))
	}
	return el, nil
}
