package sim_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"xpdl"
	"xpdl/internal/designs"
	"xpdl/internal/fault"
	"xpdl/internal/sim"
	"xpdl/internal/workloads"
)

// planRun is everything one machine's run leaves behind that a shared
// plan could corrupt: the full snapshot and the retirement trace.
type planRun struct {
	snap    []byte
	retired []sim.Retirement
	err     error
}

// planCycles bounds each run: enough for every kernel to retire
// hundreds of instructions, short enough for the race detector.
const planCycles = 3000

// runOnPlan builds a machine from plan, loads one kernel, runs it for
// planCycles and captures its outcome. Lane i picks the kernel, the
// engine and (on odd lanes) a chaos seed, so concurrent lanes differ in
// program, executor and timing.
func runOnPlan(d *xpdl.Design, plan *sim.Plan, lane int) planRun {
	ws := workloads.All()
	w := ws[lane%len(ws)]
	cfg := sim.Config{
		Engine:  sim.Engines()[lane%len(sim.Engines())],
		Externs: designs.Externs(),
	}
	if lane%2 == 1 {
		cfg.Faults = fault.New(fault.Default(uint64(lane) * 7919))
	}
	m, err := plan.New(cfg)
	if err != nil {
		return planRun{err: err}
	}
	prog, err := w.Assemble()
	if err != nil {
		return planRun{err: err}
	}
	p := &designs.Processor{Variant: designs.All, Design: d, M: m}
	if err := p.Load(prog); err != nil {
		return planRun{err: err}
	}
	if err := p.Boot(); err != nil {
		return planRun{err: err}
	}
	var budget *sim.CycleBudgetError
	if _, err := m.Run(planCycles); err != nil && !errors.As(err, &budget) {
		return planRun{err: fmt.Errorf("%s: %w", w.Name, err)}
	}
	snap, err := m.SaveBytes()
	return planRun{snap: snap, retired: m.Retired(), err: err}
}

// TestPlanSharedAcrossGoroutines: one plan, many machines running at
// once (run it under -race). Every machine must end byte-identical to a
// machine of the same lane built from a fresh plan of its own, so no
// machine can reach another's state through the plan, and the lazily
// compiled vm Program is built once however many vm machines race for
// it.
func TestPlanSharedAcrossGoroutines(t *testing.T) {
	d, err := xpdl.Compile(designs.Source(designs.All))
	if err != nil {
		t.Fatal(err)
	}
	shared, err := d.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := d.Plan(); again != shared {
		t.Fatal("Design.Plan built a second plan")
	}
	const lanes = 12
	got := make([]planRun, lanes)
	var wg sync.WaitGroup
	for i := 0; i < lanes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = runOnPlan(d, shared, i)
		}(i)
	}
	wg.Wait()
	for i := 0; i < lanes; i++ {
		fresh, err := sim.NewPlan(d.Info, d.Translations)
		if err != nil {
			t.Fatal(err)
		}
		want := runOnPlan(d, fresh, i)
		if got[i].err != nil || want.err != nil {
			t.Fatalf("lane %d: shared plan: %v; fresh plan: %v", i, got[i].err, want.err)
		}
		if !bytes.Equal(got[i].snap, want.snap) {
			t.Errorf("lane %d: snapshot differs from a fresh-plan machine", i)
		}
		if !reflect.DeepEqual(got[i].retired, want.retired) {
			t.Errorf("lane %d: retirement trace differs from a fresh-plan machine", i)
		}
	}
}
