package golden

import (
	"reflect"
	"testing"

	"xpdl/internal/workloads"
)

// TestResetEqualsNew: a machine that ran one kernel, then Reset to the
// next kernel's image and Run, ends exactly as a machine New builds for
// that kernel and Runs — registers, CSRs, memories, trace and counters.
func TestResetEqualsNew(t *testing.T) {
	const dmemWords, steps = 1024, 200000
	ws := workloads.All()
	progs := make([][2][]uint32, len(ws))
	for i, w := range ws {
		p, err := w.Assemble()
		if err != nil {
			t.Fatalf("assemble %s: %v", w.Name, err)
		}
		progs[i] = [2][]uint32{p.Text, p.Data}
	}
	reused := New(progs[len(ws)-1][0], progs[len(ws)-1][1], dmemWords)
	reused.RaiseInterrupt(1 << 7) // dirty state New never leaves behind
	_ = reused.Run(steps)
	for i, w := range ws {
		fresh := New(progs[i][0], progs[i][1], dmemWords)
		freshErr := fresh.Run(steps)
		reused.Reset(progs[i][0], progs[i][1])
		reusedErr := reused.Run(steps)
		if (freshErr == nil) != (reusedErr == nil) {
			t.Fatalf("%s: run errors differ: New %v, Reset %v", w.Name, freshErr, reusedErr)
		}
		if !fresh.Halted {
			t.Fatalf("%s: did not halt in %d steps", w.Name, steps)
		}
		if !reflect.DeepEqual(fresh, reused) {
			t.Errorf("%s: Reset+Run differs from New+Run (pc %#x vs %#x, retired %d vs %d)",
				w.Name, fresh.PC, reused.PC, fresh.Retired, reused.Retired)
		}
	}
}
