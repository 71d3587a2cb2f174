package bveq

import (
	"sync"

	"xpdl/internal/sim"
)

// Pool is a target's free list of released machines, kept per engine.
// A target owns one, takes machines from it in Build and returns them
// in Release (the Releaser extension), so a sweep builds only as many
// machines as it runs at once and resets them for every later point.
// The zero Pool is empty and ready; it is safe for concurrent use.
type Pool struct {
	mu   sync.Mutex
	free map[string][]*sim.Machine
}

// Get returns a released machine of the engine, reset to the state
// Plan.New left it in, or calls build when none is free.
func (p *Pool) Get(engine string, build func() (*sim.Machine, error)) (*sim.Machine, error) {
	name, err := sim.ParseEngine(engine)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	ms := p.free[name]
	if n := len(ms); n > 0 {
		m := ms[n-1]
		ms[n-1] = nil
		p.free[name] = ms[:n-1]
		p.mu.Unlock()
		m.Reset()
		return m, nil
	}
	p.mu.Unlock()
	return build()
}

// Put files a machine the gate is done with for reuse. It must come
// from the same target's Build.
func (p *Pool) Put(m *sim.Machine) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.free == nil {
		p.free = map[string][]*sim.Machine{}
	}
	p.free[m.Engine()] = append(p.free[m.Engine()], m)
}
