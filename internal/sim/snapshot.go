// Machine snapshot/restore: the full dynamic state of a machine —
// cycle and issue counters, every in-flight instruction with its
// slot-indexed variables and placement (stage register or entry
// queue), per-pipe gef and speculation tables, lock reservation state,
// memories, volatiles, the retirement trace, and the fault-injector
// identity — serialized through the internal/snap container.
//
// The encoding is byte-for-byte deterministic: every collection is
// walked in a declaration- or iid-sorted order, never map order, so
// Save'ing the same state twice yields identical bytes (the golden
// snapshot fixtures pin this). Restore is strict: it validates a
// structural fingerprint of the design (pipes, stage counts, slot
// counts, memory shapes) before touching machine state, so a snapshot
// can only be restored into a machine built from the same program with
// the same configuration.
//
// Transient execution scratch — instruction/reservation free pools,
// the effect buffer, spawn arenas, the slot-write journal and pending
// writes, open lock transactions — is empty at every cycle boundary by
// construction and is reset, not serialized. Save must therefore be
// called between Steps (the CLI, RunCtx and the checkpoint tests all
// do).
package sim

import (
	"bytes"
	"fmt"
	"io"

	"xpdl/internal/snap"
	"xpdl/internal/val"
)

// seeder is the optional fault-injector identity hook: an injector
// that reports its seed (fault.Injector does) gets the seed recorded
// in snapshots and verified on restore, so a resumed run provably
// replays the same fault decisions.
type seeder interface{ Seed() uint64 }

// Save serializes the machine's full dynamic state to w. It must be
// called at a cycle boundary (between Steps); lock state mid-firing is
// transactional and unsaveable.
func (m *Machine) Save(wr io.Writer) error {
	w := snap.NewWriter(wr)
	m.saveFingerprint(w)

	w.Int(m.cycle)
	w.U64(m.nextIID)
	w.U64(m.firings)
	w.Int(m.idleFor)

	// Fault-injector identity: presence and (when reported) seed.
	w.Bool(m.faults != nil)
	if m.faults != nil {
		s, ok := m.faults.(seeder)
		w.Bool(ok)
		if ok {
			w.U64(s.Seed())
		}
	}

	// Per-pipe control state: gef and the speculation table, entries
	// sorted by handle.
	for _, ps := range m.pipeList {
		w.Bool(m.gefs[ps.idx])
		w.U64(ps.specTab.nextHandle)
		handles := ps.specTab.handles()
		w.Int(len(handles))
		for _, h := range handles {
			w.U64(h)
			w.Int(int(ps.specTab.status(h)))
		}
	}

	// In-flight instructions, sorted by iid.
	live := m.snapshotAlive()
	w.Int(len(live))
	for _, in := range live {
		w.U64(in.iid)
		w.Int(in.pipe.idx)
		w.U64(in.parent)
		w.Int(len(in.args))
		for _, a := range in.args {
			w.Val(a)
		}
		w.Int(len(in.vars))
		for _, sv := range in.vars {
			w.Bool(sv.ok)
			writeV(w, sv.v)
		}
		w.Bool(in.lef)
		w.Bool(in.eargs != nil)
		if in.eargs != nil {
			w.Int(len(in.eargs))
			for _, e := range in.eargs {
				w.Val(e)
			}
		}
		w.U64(in.specHandle)
		w.Bool(in.spec)
		w.Bool(in.waiting != nil)
		if in.waiting != nil {
			w.String(in.waiting.resultVar)
			w.String(in.waiting.subPipe)
		}
		w.U64(in.callerIID)
		w.String(in.resultVar)
	}

	// Placement: per-pipe entry queues (front first) and stage
	// registers in processing-node order; 0 marks an empty register
	// (iids start at 1).
	for _, ps := range m.pipeList {
		w.Int(len(ps.entryQ))
		for _, in := range ps.entryQ {
			w.U64(in.iid)
		}
		for _, n := range ps.nodes {
			if n.cur != nil {
				w.U64(n.cur.iid)
			} else {
				w.U64(0)
			}
		}
	}

	// Retirement trace.
	w.Int(len(m.retired))
	for i := range m.retired {
		rt := &m.retired[i]
		w.String(rt.Pipe)
		w.U64(rt.IID)
		w.Int(len(rt.Args))
		for _, a := range rt.Args {
			w.Val(a)
		}
		w.Bool(rt.Exceptional)
		w.Bool(rt.EArgs != nil)
		if rt.EArgs != nil {
			w.Int(len(rt.EArgs))
			for _, e := range rt.EArgs {
				w.Val(e)
			}
		}
		w.Int(rt.Cycle)
	}

	// Memories and volatiles, in declaration order.
	for _, b := range m.plan.mems {
		if b.plain >= 0 {
			m.plainList[b.plain].SaveState(w)
		} else {
			m.memList[b.lock].SaveState(w)
		}
	}
	for _, v := range m.volVals {
		w.Val(v)
	}

	return w.Close()
}

// SaveBytes is Save into a fresh in-memory buffer.
func (m *Machine) SaveBytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Restore replaces the machine's dynamic state with a snapshot written
// by Save. The machine must have been built from the same program with
// the same configuration (executor choice does not matter — both
// produce and accept identical snapshots); a structural mismatch, a
// format-version mismatch (*snap.VersionError) or any corruption
// (*snap.CorruptError) leaves an error and, for stream-level failures,
// possibly partially-restored state — callers should discard the
// machine on error.
func (m *Machine) Restore(rd io.Reader) error {
	r, err := snap.Open(rd)
	if err != nil {
		return err
	}
	if err := m.checkFingerprint(r); err != nil {
		return err
	}

	cycle := r.Int()
	nextIID := r.U64()
	firings := r.U64()
	idleFor := r.Int()

	hadFaults := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	if hadFaults != (m.faults != nil) {
		return fmt.Errorf("sim: snapshot fault injection %v, this machine %v", hadFaults, m.faults != nil)
	}
	if hadFaults {
		hadSeed := r.Bool()
		var seed uint64
		if hadSeed {
			seed = r.U64()
		}
		if err := r.Err(); err != nil {
			return err
		}
		if s, ok := m.faults.(seeder); ok && hadSeed && s.Seed() != seed {
			return fmt.Errorf("sim: snapshot fault seed %d, this machine %d", seed, s.Seed())
		}
	}

	// Drop the current dynamic state: stages, queues, live instructions.
	for _, ps := range m.pipeList {
		for _, n := range ps.nodes {
			n.cur = nil
		}
		ps.entryQ = ps.entryQ[:0]
	}
	for _, in := range m.alive {
		m.poolPut(in)
	}
	m.alive = make(map[uint64]*inst)
	m.failed = nil

	m.cycle = cycle
	m.nextIID = nextIID
	m.firings = firings
	m.idleFor = idleFor

	for _, ps := range m.pipeList {
		m.gefs[ps.idx] = r.Bool()
		ps.specTab.nextHandle = r.U64()
		n := r.Int()
		if err := r.Err(); err != nil {
			return err
		}
		ps.specTab.clear()
		for i := 0; i < n; i++ {
			h := r.U64()
			st := r.Int()
			if st > int(specInvalid) {
				return fmt.Errorf("sim: snapshot speculation status %d out of range", st)
			}
			ps.specTab.set(h, specStatus(st))
		}
	}

	nlive := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	for i := 0; i < nlive; i++ {
		in := m.poolGet()
		in.iid = r.U64()
		pidx := r.Int()
		if err := r.Err(); err != nil {
			return err
		}
		if pidx < 0 || pidx >= len(m.pipeList) {
			return fmt.Errorf("sim: snapshot instruction pipe index %d out of range", pidx)
		}
		ps := m.pipeList[pidx]
		in.pipe = ps
		in.parent = r.U64()
		nargs := r.Int()
		if err := r.Err(); err != nil {
			return err
		}
		if nargs != len(ps.decl.Params) {
			return fmt.Errorf("sim: snapshot instruction has %d args, pipe %s takes %d", nargs, ps.name, len(ps.decl.Params))
		}
		in.args = in.args[:0]
		for j := 0; j < nargs; j++ {
			in.args = append(in.args, r.Val())
		}
		nvars := r.Int()
		if err := r.Err(); err != nil {
			return err
		}
		if nvars != len(ps.zeroes) {
			return fmt.Errorf("sim: snapshot instruction has %d var slots, pipe %s has %d", nvars, ps.name, len(ps.zeroes))
		}
		if cap(in.vars) >= nvars {
			in.vars = in.vars[:nvars]
		} else {
			in.vars = make([]slotVal, nvars)
		}
		for j := 0; j < nvars; j++ {
			ok := r.Bool()
			v, err := readV(r)
			if err != nil {
				return err
			}
			in.vars[j] = slotVal{v: v, ok: ok}
		}
		in.lef = r.Bool()
		in.eargs = nil
		if r.Bool() {
			ne := r.Int()
			if err := r.Err(); err != nil {
				return err
			}
			if ne > len(ps.res.EArgs) {
				return fmt.Errorf("sim: snapshot instruction has %d throw arguments, pipe %s declares %d", ne, ps.name, len(ps.res.EArgs))
			}
			in.eargs = make([]val.Value, ne)
			for j := range in.eargs {
				in.eargs[j] = r.Val()
			}
		}
		in.specHandle = r.U64()
		in.spec = r.Bool()
		in.waiting = nil
		if r.Bool() {
			in.waiting = &pendingCall{resultVar: r.String(), subPipe: r.String()}
		}
		in.callerIID = r.U64()
		in.resultVar = r.String()
		if err := r.Err(); err != nil {
			return err
		}
		if in.iid == 0 || m.alive[in.iid] != nil {
			return fmt.Errorf("sim: snapshot instruction iid %d duplicated or zero", in.iid)
		}
		m.alive[in.iid] = in
	}

	// Placement. Every live instruction must land in exactly one spot.
	placed := 0
	lookup := func(iid uint64) (*inst, error) {
		in := m.alive[iid]
		if in == nil {
			return nil, fmt.Errorf("sim: snapshot places unknown iid %d", iid)
		}
		placed++
		return in, nil
	}
	for _, ps := range m.pipeList {
		nq := r.Int()
		if err := r.Err(); err != nil {
			return err
		}
		for i := 0; i < nq; i++ {
			in, err := lookup(r.U64())
			if err != nil {
				return err
			}
			ps.entryQ = append(ps.entryQ, in)
		}
		for _, n := range ps.nodes {
			iid := r.U64()
			if iid == 0 {
				continue
			}
			in, err := lookup(iid)
			if err != nil {
				return err
			}
			n.cur = in
		}
	}
	if err := r.Err(); err != nil {
		return err
	}
	if placed != nlive {
		return fmt.Errorf("sim: snapshot places %d of %d live instructions", placed, nlive)
	}

	nret := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if limit := maxTraceDefault(m.cfg.MaxTrace); nret > limit {
		return fmt.Errorf("sim: snapshot trace holds %d retirements, this machine stores at most %d", nret, limit)
	}
	m.clearTrace()
	if cap(m.retired) < nret {
		m.sizeTrace(nret)
	}
	for i := 0; i < nret; i++ {
		var rt Retirement
		name := r.String()
		rt.IID = r.U64()
		na := r.Int()
		if err := r.Err(); err != nil {
			return err
		}
		ps := m.pipe(name)
		if ps == nil {
			return fmt.Errorf("sim: snapshot retirement names unknown pipe %q", name)
		}
		if na != len(ps.decl.Params) {
			return fmt.Errorf("sim: snapshot retirement has %d args, pipe %s takes %d", na, ps.name, len(ps.decl.Params))
		}
		rt.Pipe = ps.name
		rt.Args = m.retArgs.carve(na)
		for j := range rt.Args {
			rt.Args[j] = r.Val()
		}
		rt.Exceptional = r.Bool()
		if r.Bool() {
			ne := r.Int()
			if err := r.Err(); err != nil {
				return err
			}
			if ne > len(ps.res.EArgs) {
				return fmt.Errorf("sim: snapshot retirement has %d throw arguments, pipe %s declares %d", ne, ps.name, len(ps.res.EArgs))
			}
			rt.EArgs = make([]val.Value, ne)
			for j := range rt.EArgs {
				rt.EArgs[j] = r.Val()
			}
		}
		rt.Cycle = r.Int()
		m.retired = append(m.retired, rt)
		m.retiredBy[ps.idx]++
	}

	for _, b := range m.plan.mems {
		var err error
		if b.plain >= 0 {
			err = m.plainList[b.plain].RestoreState(r)
		} else {
			err = m.memList[b.lock].RestoreState(r)
		}
		if err != nil {
			return fmt.Errorf("sim: memory %s: %w", b.decl.Name, err)
		}
	}
	for i := range m.volVals {
		m.volVals[i] = r.Val()
	}

	return r.Finish()
}

// saveFingerprint writes the structural identity Restore validates: a
// snapshot is only meaningful for a machine with the same pipelines
// (same stage graphs and variable layouts) and memory shapes.
func (m *Machine) saveFingerprint(w *snap.Writer) {
	w.Int(len(m.pipeList))
	for _, ps := range m.pipeList {
		w.String(ps.name)
		w.Int(len(ps.nodes))
		w.Int(len(ps.zeroes))
		w.Int(len(ps.decl.Params))
	}
	prog := m.plan.info.Prog
	w.Int(len(prog.Mems))
	for _, md := range prog.Mems {
		w.String(md.Name)
		w.Int(int(md.Lock))
		w.Int(md.Depth)
		w.Int(md.Elem.Width)
	}
	w.Int(len(prog.Vols))
	for _, vd := range prog.Vols {
		w.String(vd.Name)
		w.Int(vd.Elem.Width)
	}
}

func (m *Machine) checkFingerprint(r *snap.Reader) error {
	mismatch := func(what string, got, want any) error {
		return fmt.Errorf("sim: snapshot design mismatch: %s is %v, this machine has %v", what, got, want)
	}
	if n := r.Int(); r.Err() == nil && n != len(m.pipeList) {
		return mismatch("pipeline count", n, len(m.pipeList))
	}
	for _, ps := range m.pipeList {
		name := ps.name
		if got := r.String(); r.Err() == nil && got != name {
			return mismatch("pipeline", got, name)
		}
		if got := r.Int(); r.Err() == nil && got != len(ps.nodes) {
			return mismatch(name+" stage count", got, len(ps.nodes))
		}
		if got := r.Int(); r.Err() == nil && got != len(ps.zeroes) {
			return mismatch(name+" slot count", got, len(ps.zeroes))
		}
		if got := r.Int(); r.Err() == nil && got != len(ps.decl.Params) {
			return mismatch(name+" param count", got, len(ps.decl.Params))
		}
	}
	prog := m.plan.info.Prog
	if n := r.Int(); r.Err() == nil && n != len(prog.Mems) {
		return mismatch("memory count", n, len(prog.Mems))
	}
	for _, md := range prog.Mems {
		if got := r.String(); r.Err() == nil && got != md.Name {
			return mismatch("memory", got, md.Name)
		}
		if got := r.Int(); r.Err() == nil && got != int(md.Lock) {
			return mismatch(md.Name+" lock kind", got, int(md.Lock))
		}
		if got := r.Int(); r.Err() == nil && got != md.Depth {
			return mismatch(md.Name+" depth", got, md.Depth)
		}
		if got := r.Int(); r.Err() == nil && got != md.Elem.Width {
			return mismatch(md.Name+" width", got, md.Elem.Width)
		}
	}
	if n := r.Int(); r.Err() == nil && n != len(prog.Vols) {
		return mismatch("volatile count", n, len(prog.Vols))
	}
	for _, vd := range prog.Vols {
		if got := r.String(); r.Err() == nil && got != vd.Name {
			return mismatch("volatile", got, vd.Name)
		}
		if got := r.Int(); r.Err() == nil && got != vd.Elem.Width {
			return mismatch(vd.Name+" width", got, vd.Elem.Width)
		}
	}
	return r.Err()
}

// maxRecordFields bounds a snapshot record's field count, so a corrupted
// count is refused before readV allocates for it (as snap bounds byte
// strings). Records come from extern results, whose shape the plan does
// not fix, so the bound is a cap far above any real record.
const maxRecordFields = 1 << 12

// writeV / readV encode a runtime value: tag 0 for a scalar, 1 for a
// record (field names and values in the record's sorted order).
func writeV(w *snap.Writer, v V) {
	if v.Rec == nil {
		w.U64(0)
		w.Val(v.Val)
		return
	}
	w.U64(1)
	w.Int(len(v.Rec.Names))
	for i, n := range v.Rec.Names {
		w.String(n)
		w.Val(v.Rec.Vals[i])
	}
}

func readV(r *snap.Reader) (V, error) {
	switch tag := r.U64(); tag {
	case 0:
		return V{Val: r.Val()}, r.Err()
	case 1:
		n := r.Int()
		if err := r.Err(); err != nil {
			return V{}, err
		}
		if n > maxRecordFields {
			return V{}, fmt.Errorf("sim: snapshot record has %d fields, limit %d", n, maxRecordFields)
		}
		rec := &Rec{Names: make([]string, n), Vals: make([]val.Value, n)}
		for i := 0; i < n; i++ {
			rec.Names[i] = r.String()
			rec.Vals[i] = r.Val()
		}
		for i := 1; i < n; i++ {
			if rec.Names[i-1] >= rec.Names[i] {
				return V{}, fmt.Errorf("sim: snapshot record fields out of order")
			}
		}
		return V{Rec: rec}, r.Err()
	default:
		if err := r.Err(); err != nil {
			return V{}, err
		}
		return V{}, fmt.Errorf("sim: snapshot value tag %d out of range", tag)
	}
}

// reproSnapshot captures a best-effort diagnostic snapshot after a
// recovered panic: the interrupted firing's slot writes are undone and
// open lock transactions are rolled back (both idempotent when no
// firing was open) to regain a consistent cycle-boundary view, and any
// secondary panic is swallowed — a repro snapshot is an aid, never a
// second crash.
func (m *Machine) reproSnapshot() (b []byte) {
	defer func() { _ = recover() }()
	m.fr.undoWrites()
	for _, l := range m.memList {
		l.Rollback()
	}
	b, _ = m.SaveBytes()
	return b
}
