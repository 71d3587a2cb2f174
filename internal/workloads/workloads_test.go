package workloads

import (
	"testing"

	"xpdl/internal/designs"
	"xpdl/internal/golden"
)

// runGolden executes a kernel on the sequential reference model.
func runGolden(t *testing.T, w Workload) *golden.Machine {
	t.Helper()
	prog, err := w.Assemble()
	if err != nil {
		t.Fatalf("%s: assemble: %v", w.Name, err)
	}
	g := golden.New(prog.Text, prog.Data, designs.DMemWords)
	if err := g.Run(w.MaxSteps); err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	if !g.Halted {
		t.Fatalf("%s did not halt within %d steps (pc=%#x)", w.Name, w.MaxSteps, g.PC)
	}
	return g
}

func TestKernelsAssembleAndHalt(t *testing.T) {
	for _, w := range All() {
		g := runGolden(t, w)
		if g.DMem[0] == 0 {
			t.Errorf("%s checksum is zero; kernel probably broken", w.Name)
		}
		t.Logf("%s: %d instructions, checksum %#x", w.Name, g.Retired, g.DMem[0])
	}
}

func TestKernelsDeterministic(t *testing.T) {
	for _, w := range All() {
		a := runGolden(t, w).DMem[0]
		b := runGolden(t, w).DMem[0]
		if a != b {
			t.Errorf("%s nondeterministic: %#x vs %#x", w.Name, a, b)
		}
	}
}

func TestSortActuallySorts(t *testing.T) {
	w, err := ByName("sort")
	if err != nil {
		t.Fatal(err)
	}
	g := runGolden(t, w)
	base := uint32(256 / 4)
	for i := uint32(1); i < 32; i++ {
		if g.DMem[base+i-1] > g.DMem[base+i] {
			t.Fatalf("array not sorted at %d: %d > %d", i, g.DMem[base+i-1], g.DMem[base+i])
		}
	}
}

func TestMemcpyCopies(t *testing.T) {
	w, _ := ByName("memcpy")
	g := runGolden(t, w)
	src, dst := uint32(256/4), uint32(1024/4)
	for i := uint32(0); i < 160; i++ {
		if g.DMem[src+i] != g.DMem[dst+i] {
			t.Fatalf("word %d differs: %#x vs %#x", i, g.DMem[src+i], g.DMem[dst+i])
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Error("expected error")
	}
}

// The headline integration: every kernel retires the same sequence and
// reaches the same architectural state on the XPDL pipeline as on the
// sequential model, on both the baseline and the full-exception
// processor.
func TestKernelsOnPipelinesMatchGolden(t *testing.T) {
	var c designs.Checker
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			prog, err := w.Assemble()
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range []designs.Variant{designs.Base, designs.All} {
				p, err := designs.Build(v)
				if err != nil {
					t.Fatal(err)
				}
				if err := p.Load(prog); err != nil {
					t.Fatal(err)
				}
				p.Boot()
				if _, err := p.Run(w.MaxSteps * 6); err != nil {
					t.Fatalf("%s on %s: %v", w.Name, v, err)
				}
				if p.M.InFlight() != 0 {
					t.Fatalf("%s on %s did not drain", w.Name, v)
				}
				o := designs.OIAT{Variant: v, Text: prog.Text, Data: prog.Data}
				if mm := c.Check(p.M, &o); mm != nil {
					t.Errorf("%s on %s: %v", w.Name, v, mm)
				}
			}
		})
	}
}
