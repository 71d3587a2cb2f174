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
// the retirement trace and its per-pipe counts are emptied, keeping
// their storage. Slices returned by Retired before the Reset must not be
// used after it.
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

	m.clearTrace()

	m.cycle = 0
	m.nextIID = 1
	m.firings = 0
	m.idleFor = 0
	m.pulledAny = false
	m.failed = nil

	// The firing record needs no reset: its slot journal and pending
	// writes are empty at every cycle boundary (a firing empties them
	// whether it commits or stalls, and the repro snapshot of a panicked
	// one undoes them), and each firing resets the arenas it uses.
}
