package sim

// Reset returns the machine to exactly the state Plan.New(cfg) produced,
// in place, for any engine: a caller that runs many short programs on
// one design (a bveq sweep) keeps a pool of machines and resets one per
// program instead of building it.
//
// Reset keeps cfg — extern bindings included, so warm pure-extern
// caches carry over — and the storage of every memory, arena and pool.
// In-flight instructions return to the instruction pool; stage
// occupancy, entry queues, speculation tables, gefs and counters are
// cleared; every lock and plain memory is zeroed; volatiles go back to
// their typed zeroes; device hooks and the trace writer are removed;
// the retirement trace is truncated. Slices returned by Retired before
// the Reset must not be used after it.
//
// Reset never goes through Save/Restore, which would encode and decode
// the whole instruction memory: it costs a few clears.
func (m *Machine) Reset() {
	for _, in := range m.alive {
		m.poolPut(in)
	}
	clear(m.alive)
	for _, ps := range m.pipeList {
		for _, n := range ps.nodes {
			n.cur = nil
		}
		clear(ps.entryQ)
		ps.entryQ = ps.entryQ[:0]
		ps.specTab.clear()
		ps.specTab.nextHandle = 0
	}
	for _, l := range m.memList {
		l.Reset()
	}
	for _, p := range m.plainList {
		p.Reset()
	}
	copy(m.volVals, m.plan.volZero)
	clear(m.gefs)

	clear(m.devices)
	m.devices = m.devices[:0]
	clear(m.deviceWakes)
	m.deviceWakes = m.deviceWakes[:0]
	m.traceW = nil

	clear(m.retired)
	m.retired = m.retired[:0]
	m.retArgs = m.retArgs[:0]

	m.cycle = 0
	m.nextIID = 1
	m.firings = 0
	m.idleFor = 0
	m.pulledAny = false
	m.failed = nil

	// Firing scratch is empty at every cycle boundary, and each firing
	// resets what it uses. The slot stamps restart with the epoch, so a
	// pooled machine's epoch counts only its current run, as a fresh
	// machine's does.
	e := &m.env
	clear(e.LocEp)
	clear(e.PendEp)
	e.Epoch = 0
}
