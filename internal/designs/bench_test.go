package designs

import (
	"testing"

	"xpdl/internal/workloads"
)

// BenchmarkKernelRun is one kernel run end to end, as the kernels
// benchmark and a daemon simulate job make it: compile the all variant,
// build its machine, load and boot crc, run it to drain, read the
// retirement trace and check the run against the golden model. The
// Checker is shared across iterations, as a long-lived caller keeps
// one. B/op is dominated by the machine build and the retirement trace.
func BenchmarkKernelRun(b *testing.B) {
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
		p, err := Build(All)
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
