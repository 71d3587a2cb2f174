// Package synth is the synthesis substitute: where the paper pushes its
// generated Verilog through Synopsys Design Compiler and Cadence Innovus
// on a 45 nm kit, this package estimates area and maximum frequency from
// the structural IR with a calibrated gate-level cost model, and emits
// the Verilog itself (verilog.go) for inspection.
//
// The paper's claims are relative — CSR storage dominates the area deltas
// between variants, exception support costs a few percent of fmax — and a
// structural model reproduces exactly those relations. Absolute numbers
// are in 45 nm-class micrometers-squared and nanoseconds but are models,
// not silicon; see EXPERIMENTS.md.
package synth

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"xpdl/internal/check"
	"xpdl/internal/ir"
	"xpdl/internal/pdl/ast"
)

// Tech carries the technology constants of the cost model.
type Tech struct {
	Name string

	// Area, in µm².
	RegBitArea    float64                  // one flip-flop bit
	AreaPerBit    map[check.CostOp]float64 // combinational classes, per operand bit
	ExternArea    map[string]float64       // fixed blocks
	LockEntryBits int                      // bookkeeping bits per in-flight lock reservation
	LockEntries   int                      // modeled reservation-queue depth
	SpecEntryBits int                      // bits per speculation-table entry
	SpecEntries   int

	// Timing, in ns.
	ClockOverhead float64                  // clk->q + setup + margin
	DelayPerClass map[check.CostOp]float64 // chain contribution when the class is present
	ExternDelay   map[string]float64
	ThrowMuxDelay float64 // per level of the throw priority chain
	GefGuardDelay float64 // the Fig. 7 control-path mux
	ForkDelay     float64 // final-block branch
}

// ASIC45 returns constants calibrated to a 45 nm-class standard-cell flow
// (FreePDK45 ballpark), tuned so the baseline processor lands near the
// paper's 169.49 MHz and the full-exception variant within ~3.3% of it.
func ASIC45() Tech {
	return Tech{
		Name:       "asic45",
		RegBitArea: 6.3,
		AreaPerBit: map[check.CostOp]float64{
			check.CostAdd: 2.6, check.CostMul: 34.0, check.CostDiv: 52.0, check.CostCmp: 1.3,
			check.CostLogic: 0.9, check.CostShift: 3.4, check.CostMux: 1.7,
			check.CostMemRd: 2.1, check.CostMemWr: 2.1, check.CostLock: 4.0, check.CostSpec: 5.0,
			check.CostCtl: 2.2,
		},
		ExternArea: map[string]float64{
			"decode": 2350, "alu": 14400, "nextpc": 2050,
			"loadval": 640, "storeval": 610, "memfault": 330, "intcause": 240,
		},
		LockEntryBits: 48, LockEntries: 4,
		SpecEntryBits: 12, SpecEntries: 8,

		ClockOverhead: 0.55,
		DelayPerClass: map[check.CostOp]float64{
			check.CostAdd: 0.36, check.CostMul: 2.6, check.CostDiv: 3.4, check.CostCmp: 0.42,
			check.CostLogic: 0.14, check.CostShift: 0.5, check.CostMux: 0.16,
			check.CostMemRd: 1.15, check.CostMemWr: 0.3, check.CostLock: 0.38, check.CostSpec: 0.2,
			check.CostCtl: 0.1,
		},
		ExternDelay: map[string]float64{
			"decode": 1.8, "alu": 3.55, "nextpc": 1.9,
			"loadval": 0.8, "storeval": 0.75, "memfault": 0.95, "intcause": 0.6,
		},
		ThrowMuxDelay: 0.022,
		GefGuardDelay: 0.038,
		ForkDelay:     0.05,
	}
}

// FPGA returns the same structure scaled to a mid-range FPGA fabric (the
// paper's quick Xilinx check near 65 MHz).
func FPGA() Tech {
	t := ASIC45()
	t.Name = "fpga"
	scale := 169.49 / 65.6 // ASIC-to-FPGA delay ratio at the baseline
	t.ClockOverhead *= scale
	for k := range t.DelayPerClass {
		t.DelayPerClass[k] *= scale
	}
	for k := range t.ExternDelay {
		t.ExternDelay[k] *= scale
	}
	t.ThrowMuxDelay *= scale
	t.GefGuardDelay *= scale
	t.ForkDelay *= scale
	return t
}

// Area is the Figure 12 breakdown.
type Area struct {
	// RegFileCSR covers architectural storage: register file (including
	// renaming structures), CSR registers, lock bookkeeping and the
	// speculation table.
	RegFileCSR float64
	// StageRegs covers pipeline (stage) registers.
	StageRegs float64
	// Comb covers combinational logic, extern blocks included.
	Comb float64
}

// Total sums the three sections.
func (a Area) Total() float64 { return a.RegFileCSR + a.StageRegs + a.Comb }

// Add accumulates.
func (a *Area) Add(o Area) {
	a.RegFileCSR += o.RegFileCSR
	a.StageRegs += o.StageRegs
	a.Comb += o.Comb
}

// String formats the breakdown.
func (a Area) String() string {
	return fmt.Sprintf("rf+csr %.0f µm² | stage regs %.0f µm² | comb %.0f µm² | total %.0f µm²",
		a.RegFileCSR, a.StageRegs, a.Comb, a.Total())
}

// AreaOf estimates the design's area under the technology model.
func AreaOf(d *ir.Design, t Tech) Area {
	var a Area

	// Architectural storage: locked memories that are register files
	// (renaming) count their full storage; large RAM-backed memories
	// (basic/bypass data memories) count only lock bookkeeping — the
	// arrays themselves are external macros, as in PDL's connected
	// modules. Volatile registers are the CSRs.
	for _, m := range d.Info.Prog.Mems {
		switch m.Lock {
		case ast.LockRenaming:
			phys := m.Depth + 16
			mapBits := 2 * m.Depth * bitsFor(phys)
			a.RegFileCSR += float64(phys*m.Elem.BitWidth()+mapBits) * t.RegBitArea
			a.RegFileCSR += float64(t.LockEntries*t.LockEntryBits) * t.RegBitArea
		case ast.LockBasic, ast.LockBypass:
			a.RegFileCSR += float64(t.LockEntries*(t.LockEntryBits+m.Elem.BitWidth())) * t.RegBitArea
		}
	}
	for _, v := range d.Info.Prog.Vols {
		// A CSR register plus its write-port decode.
		a.RegFileCSR += float64(v.Elem.BitWidth()) * (t.RegBitArea + 1.1)
	}

	for _, p := range d.Pipelines {
		pa := pipelineArea(p, t)
		a.Add(pa)
	}
	return a
}

func pipelineArea(p *ir.Pipeline, t Tech) Area {
	var a Area
	specUsed := false
	for _, s := range p.Stages() {
		a.StageRegs += float64(s.InRegBits) * t.RegBitArea
		for class, oc := range s.Ops {
			a.Comb += float64(oc.Bits) * t.AreaPerBit[class]
			if class == check.CostSpec && oc.Count > 0 {
				specUsed = true
			}
		}
		for name, n := range s.Externs {
			// Identical extern instances in one design share logic
			// beyond the first (resource sharing), at a mux cost.
			a.Comb += t.ExternArea[name] * (1 + 0.08*float64(n-1))
		}
		if s.GefGuarded {
			// The Fig. 7 control path: a gate per stage-register bit.
			a.Comb += float64(s.InRegBits) * 0.35
		}
		if s.HasFork {
			a.Comb += 220 // lef branch + gef set logic
		}
	}
	if specUsed {
		a.RegFileCSR += float64(t.SpecEntries*t.SpecEntryBits) * t.RegBitArea
	}
	return a
}

func bitsFor(n int) int {
	b := 1
	for (1 << uint(b)) < n {
		b++
	}
	return b
}

// StageTiming is the modeled critical path of one stage.
type StageTiming struct {
	Stage   string
	DelayNS float64
}

// Timing is the design's timing report.
type Timing struct {
	Stages []StageTiming
	// CriticalNS is the slowest stage delay.
	CriticalNS float64
	// Critical is that stage's label.
	Critical string
}

// FMaxMHz converts the critical path to a maximum frequency.
func (tr Timing) FMaxMHz() float64 { return 1000 / tr.CriticalNS }

// TimingOf estimates per-stage critical paths. The chain model is
// presence-based: each operation class present contributes once (a
// typical dependent chain has at most one of each), extern blocks
// contribute their fixed delay in parallel (max), and exception support
// adds its control delays — the throw priority chain, the gef guard and
// the final-block fork.
func TimingOf(d *ir.Design, t Tech) Timing {
	var out Timing
	for _, p := range d.Pipelines {
		for _, s := range p.Stages() {
			delay := t.ClockOverhead
			var externMax float64
			for name := range s.Externs {
				if dl := t.ExternDelay[name]; dl > externMax {
					externMax = dl
				}
			}
			delay += externMax
			classes := make([]check.CostOp, 0, len(s.Ops))
			for c := range s.Ops {
				classes = append(classes, c)
			}
			sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
			for _, c := range classes {
				if s.Ops[c].Count > 0 {
					delay += t.DelayPerClass[c]
				}
			}
			delay += float64(s.Throws) * t.ThrowMuxDelay
			if s.GefGuarded {
				delay += t.GefGuardDelay
			}
			if s.HasFork {
				delay += t.ForkDelay
			}
			label := fmt.Sprintf("%s.%s%d", p.Name, s.Kind, s.Index)
			out.Stages = append(out.Stages, StageTiming{Stage: label, DelayNS: delay})
			if delay > out.CriticalNS {
				out.CriticalNS = delay
				out.Critical = label
			}
		}
	}
	out.CriticalNS = round3(out.CriticalNS)
	return out
}

func round3(x float64) float64 { return math.Round(x*1000) / 1000 }

// Report renders an area+timing summary.
func Report(d *ir.Design, t Tech) string {
	var b strings.Builder
	a := AreaOf(d, t)
	tm := TimingOf(d, t)
	fmt.Fprintf(&b, "technology: %s\n", t.Name)
	fmt.Fprintf(&b, "area: %s\n", a)
	fmt.Fprintf(&b, "critical path: %s at %.3f ns (fmax %.2f MHz)\n", tm.Critical, tm.CriticalNS, tm.FMaxMHz())
	return b.String()
}
