package sim_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"xpdl"
	"xpdl/internal/asm"
	"xpdl/internal/designs"
	"xpdl/internal/fault"
	"xpdl/internal/sim"
	"xpdl/internal/workloads"
)

// resetCycles bounds each run: every kernel retires hundreds of
// instructions, chaos included, and the interpreter stays quick.
const resetCycles = 4000

// resetRun is what a run leaves behind: the snapshot after boot and at
// the end, the retirement trace and the run's outcome.
type resetRun struct {
	boot, end []byte
	retired   []sim.Retirement
	cycles    int
	err       string
}

// runLoaded loads prog into a machine, boots it, attaches the storm
// when chaos is on, and runs it.
func runLoaded(t *testing.T, p *designs.Processor, prog *asm.Program, inj *fault.Injector) resetRun {
	t.Helper()
	if err := p.Load(prog); err != nil {
		t.Fatal(err)
	}
	if err := p.Boot(); err != nil {
		t.Fatal(err)
	}
	if inj != nil {
		p.AttachStorm(inj)
	}
	var r resetRun
	var err error
	if r.boot, err = p.M.SaveBytes(); err != nil {
		t.Fatal(err)
	}
	var budget *sim.CycleBudgetError
	r.cycles, err = p.M.Run(resetCycles)
	if err != nil && !errors.As(err, &budget) {
		r.err = err.Error()
	}
	if r.end, err = p.M.SaveBytes(); err != nil {
		t.Fatal(err)
	}
	r.retired = p.M.Retired()
	return r
}

// diffResetRuns names the first difference between two runs, "" if none.
func diffResetRuns(a, b resetRun) string {
	switch {
	case !bytes.Equal(a.boot, b.boot):
		return "snapshot after boot"
	case !bytes.Equal(a.end, b.end):
		return "snapshot at the end"
	case a.cycles != b.cycles || a.err != b.err:
		return fmt.Sprintf("run: %d cycles %q vs %d cycles %q", a.cycles, a.err, b.cycles, b.err)
	case len(a.retired) != len(b.retired):
		return fmt.Sprintf("retired %d vs %d", len(a.retired), len(b.retired))
	}
	for i := range a.retired {
		if !reflect.DeepEqual(a.retired[i], b.retired[i]) {
			return fmt.Sprintf("retirement %d: %+v vs %+v", i, a.retired[i], b.retired[i])
		}
	}
	return ""
}

// TestResetEqualsFresh: on every engine, variant and kernel, with and
// without chaos, a machine that ran another kernel and was Reset runs
// the kernel exactly as a freshly built machine does — snapshot bytes
// after boot and at the end, cycle count, outcome and retirement trace.
// Each reset starts from another program cut off mid-flight: a kernel
// at a different cycle each time, or an exception at its first gef.
func TestResetEqualsFresh(t *testing.T) {
	ws := workloads.All()
	progs := make([]*asm.Program, len(ws))
	for i, w := range ws {
		p, err := w.Assemble()
		if err != nil {
			t.Fatalf("assemble %s: %v", w.Name, err)
		}
		progs[i] = p
	}
	// An illegal instruction: the exception variants set gef on it.
	excProg, err := asm.Assemble("addi t0, t0, 1\n.word 0xFFFFFFFF\naddi t1, t1, 1\nebreak\n")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range designs.Variants() {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			t.Parallel()
			d, err := xpdl.Compile(designs.Source(v))
			if err != nil {
				t.Fatal(err)
			}
			for _, engine := range sim.Engines() {
				for _, seed := range []uint64{0, 5} {
					var inj *fault.Injector
					cfg := sim.Config{Engine: engine, Externs: designs.Externs()}
					if seed != 0 {
						inj = fault.New(fault.Default(seed))
						cfg.Faults = inj
					}
					build := func() *designs.Processor {
						fresh := cfg
						fresh.Externs = designs.Externs()
						m, err := d.NewMachine(fresh)
						if err != nil {
							t.Fatal(err)
						}
						return &designs.Processor{Variant: v, Design: d, M: m}
					}
					reused := build()
					for i, w := range ws {
						want := runLoaded(t, build(), progs[i], inj)
						// Leave the machine mid-flight in another program:
						// instructions in stages and queues, locks held,
						// and on every other kernel an exception rolling
						// back under a set gef.
						reused.M.Reset()
						dirty := progs[(i+1)%len(progs)]
						if i%2 == 1 {
							dirty = excProg
						}
						if err := reused.Load(dirty); err != nil {
							t.Fatal(err)
						}
						if err := reused.Boot(); err != nil {
							t.Fatal(err)
						}
						if inj != nil {
							reused.AttachStorm(inj)
						}
						for c := 0; c < 97+13*i && reused.M.InFlight() > 0 && !reused.M.GefSet("cpu"); c++ {
							if reused.M.Step() != nil {
								break
							}
						}
						reused.M.Reset()
						got := runLoaded(t, reused, progs[i], inj)
						if msg := diffResetRuns(want, got); msg != "" {
							t.Errorf("%s/%s seed %d: reset machine differs from a fresh one: %s", engine, w.Name, seed, msg)
						}
					}
				}
			}
		})
	}
}
