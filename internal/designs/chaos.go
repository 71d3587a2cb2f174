package designs

import (
	"xpdl/internal/riscv"
	"xpdl/internal/sim"
)

// StormSource decides, per cycle, whether to pulse a pending-interrupt
// line — the interrupt-storm half of the chaos suite's fault injector
// (internal/fault.Injector implements it). Decisions must be pure
// functions of (cycle, lines) so compiled and interpreted runs of the
// same seed see identical storms.
type StormSource interface {
	Storm(cycle, lines int) (line int, ok bool)
}

// StormBits are the interrupt lines a storm can pulse, in Storm's line
// order: software, timer, external. Cosimulation pulses the same lines,
// so a chaos seed perturbs a cosimulated machine as it does the chaos
// suite.
var StormBits = [...]uint32{riscv.MIPMSIP, riscv.MIPMTIP, riscv.MIPMEIP}

// InterruptCapable reports whether the variant declares the mip CSR —
// the precondition for attaching an interrupt storm.
func (p *Processor) InterruptCapable() bool { return p.HasCSR("mip") }

// AttachStorm registers a per-cycle device that sets seed-determined
// pending bits in mip, as a pathological external interrupt controller
// would. On variants without mip it is a no-op. A storm only perturbs
// timing/architectural interrupt delivery through the design's own
// intcause/mie masking; with mie clear it is architecturally inert
// except for the mip register itself.
func (p *Processor) AttachStorm(src StormSource) {
	if !p.InterruptCapable() {
		return
	}
	p.M.OnCycle(func(m *sim.Machine) {
		if line, ok := src.Storm(m.Cycle(), len(StormBits)); ok {
			p.RaiseInterrupt(StormBits[line])
		}
	})
}
