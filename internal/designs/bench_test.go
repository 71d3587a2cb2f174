package designs

import (
	"testing"

	"xpdl/internal/sim"
	"xpdl/internal/workloads"
)

// BenchmarkKernelRun is one kernel run end to end, as the kernels
// benchmark and a daemon simulate job make it: compile the all variant,
// build its machine, load and boot crc, run it to drain, read the
// retirement trace and check the run against the golden model. The
// Checker is shared across iterations, as a long-lived caller keeps
// one. B/op is dominated by the machine build and the retirement trace.
// One sub-benchmark per production engine (closure, the default, and
// vm) makes the engines' A/B one command:
//
//	go test -run '^$' -bench KernelRun -benchmem ./internal/designs
func BenchmarkKernelRun(b *testing.B) {
	for _, engine := range []string{"closure", "vm"} {
		b.Run(engine, func(b *testing.B) { runKernel(b, engine) })
	}
}

func runKernel(b *testing.B, engine string) {
	w, err := workloads.ByName("crc")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := w.Assemble()
	if err != nil {
		b.Fatal(err)
	}
	o := OIAT{Variant: All, Text: prog.Text, Data: prog.Data}
	var c Checker
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := BuildCfg(All, sim.Config{Engine: engine})
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Load(prog); err != nil {
			b.Fatal(err)
		}
		if err := p.Boot(); err != nil {
			b.Fatal(err)
		}
		if _, err := p.Run(10 * w.MaxSteps); err != nil {
			b.Fatal(err)
		}
		if len(p.Retired()) == 0 {
			b.Fatal("crc retired nothing")
		}
		if mm := c.Check(p.M, &o); mm != nil {
			b.Fatal(mm)
		}
	}
}
