// Crash containment: a panic escaping a stage execution — seeded here
// through a booby-trapped extern — must surface as a typed
// *InternalError carrying a repro snapshot, poison the machine, and
// never unwind out of Step. The repro snapshot must restore into a
// healthy machine that completes the workload.
package sim_test

import (
	"bytes"
	"errors"
	"testing"

	"xpdl/internal/designs"
	"xpdl/internal/sim"
	"xpdl/internal/val"
	"xpdl/internal/workloads"
)

func TestSeededPanicContained(t *testing.T) {
	for _, engine := range sim.Engines() {
		t.Run(engine, func(t *testing.T) {
			w, err := workloads.ByName("fib")
			if err != nil {
				t.Fatal(err)
			}
			prog, err := w.Assemble()
			if err != nil {
				t.Fatal(err)
			}

			// Booby-trap the ALU: panic on its 40th invocation, deep
			// enough that real state is in flight.
			ex := designs.Externs()
			orig := ex["alu"]
			calls := 0
			ex["alu"] = func(args []val.Value) sim.V {
				calls++
				if calls == 40 {
					panic("seeded extern fault")
				}
				return orig(args)
			}
			p, err := designs.BuildCfg(designs.All, sim.Config{Engine: engine, Externs: ex})
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Load(prog); err != nil {
				t.Fatal(err)
			}
			if err := p.Boot(); err != nil {
				t.Fatal(err)
			}

			_, err = p.Run(w.MaxSteps * 32)
			var ie *sim.InternalError
			if !errors.As(err, &ie) {
				t.Fatalf("panicking extern: got %v, want *sim.InternalError", err)
			}
			if ie.Snapshot == nil {
				t.Fatal("InternalError carries no repro snapshot")
			}
			if len(ie.Stack) == 0 {
				t.Fatal("InternalError carries no stack")
			}

			// The machine is poisoned: every later Step returns the same
			// error instead of computing on corrupt state.
			if err := p.M.Step(); err != error(ie) {
				t.Fatalf("poisoned machine stepped: %v", err)
			}

			// The repro snapshot restores into a clean machine (sane
			// externs, same design) and completes the workload.
			res := resumeBuild(t, designs.All, w, 0, engine)
			if err := res.M.Restore(bytes.NewReader(ie.Snapshot)); err != nil {
				t.Fatalf("restore repro snapshot: %v", err)
			}
			if _, err := res.M.Run(w.MaxSteps * 32); err != nil {
				t.Fatalf("run restored repro snapshot: %v", err)
			}
		})
	}
}
