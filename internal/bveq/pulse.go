package bveq

import (
	"math"
	"sync"

	"xpdl/internal/sim"
)

// Pulses is a target's cache of one-pulse interrupt devices, one per
// interrupt-arrival cycle. A device calls Raise at its arrival cycle
// and its wake predictor names that cycle. Device hooks run once per
// cycle on a forward-only counter, so the pulse is due exactly when the
// cycle equals the arrival cycle: the timing of a one-entry
// fault.Schedule cursor, without its consumed-pulse state. Devices are
// therefore stateless, every point arriving at the same cycle shares
// one, and attaching it allocates nothing once that cycle has been
// seen. The zero Pulses with Raise set is ready; it is safe for
// concurrent use.
type Pulses struct {
	// Raise sets the interrupt line on m.
	Raise func(m *sim.Machine)

	mu   sync.Mutex
	devs []pulse
}

type pulse struct {
	fire func(m *sim.Machine)
	wake func(cycle int) int
}

// Attach registers on m the device that pulses at cycle arrival.
func (p *Pulses) Attach(m *sim.Machine, arrival int) {
	p.mu.Lock()
	for len(p.devs) <= arrival {
		at := len(p.devs)
		p.devs = append(p.devs, pulse{
			fire: func(m *sim.Machine) {
				if m.Cycle() == at {
					p.Raise(m)
				}
			},
			wake: func(cycle int) int {
				if cycle <= at {
					return at
				}
				return math.MaxInt
			},
		})
	}
	d := p.devs[arrival]
	p.mu.Unlock()
	m.OnCycleWake(d.fire, d.wake)
}
