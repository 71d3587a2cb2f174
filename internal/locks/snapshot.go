// Lock-state serialization for machine snapshots (see internal/snap
// and sim.Machine.Save). A lock's durable state is its committed words
// plus the live reservation queue with staged writes — exactly what a
// resumed run needs to reproduce every ownership, forwarding and
// commit decision. Transaction journals, the deadTxn parking lot and
// the reservation free pools are transient by construction (empty
// between stage firings) and are reset, not serialized.
package locks

import (
	"fmt"

	"xpdl/internal/snap"
	"xpdl/internal/val"
)

// SaveState serializes the memory's committed words.
func (p *Plain) SaveState(w *snap.Writer) {
	w.Int(len(p.data))
	w.Int(p.width)
	for _, v := range p.data {
		w.Val(val.New(v, p.width))
	}
}

// RestoreState replaces the memory's words with a saved image. The
// snapshot must describe a memory of identical shape.
func (p *Plain) RestoreState(r *snap.Reader) error {
	if err := checkShape(r, "plain", len(p.data), p.width); err != nil {
		return err
	}
	for i := range p.data {
		p.data[i] = val.New(r.Val().Uint(), p.width).Uint()
	}
	return r.Err()
}

// checkShape reads and validates a (depth, width) prefix.
func checkShape(r *snap.Reader, kind string, depth, width int) error {
	gd, gw := r.Int(), r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if gd != depth || gw != width {
		return fmt.Errorf("locks: snapshot %s memory is %d x %d bits, this machine has %d x %d",
			kind, gd, gw, depth, width)
	}
	return nil
}

// SaveState serializes the queue lock: committed words, then the live
// reservation queue in age order with each reservation's staged writes
// in issue order.
func (q *Queue) SaveState(w *snap.Writer) {
	if q.inTxn {
		panic("locks: SaveState inside a transaction")
	}
	w.Int(len(q.data))
	w.Int(q.width)
	w.Bool(q.forward)
	for _, v := range q.data {
		w.Val(val.New(v, q.width))
	}
	w.Int(len(q.resvs))
	for _, r := range q.resvs {
		w.U64(r.id)
		w.U64(r.addr)
		w.Bool(r.write)
		w.Int(len(r.wr))
		for _, wr := range r.wr {
			w.U64(wr.addr)
			w.Val(wr.v)
		}
	}
}

// RestoreState replaces the queue lock's state with a saved image,
// resetting all transaction-transient state.
func (q *Queue) RestoreState(r *snap.Reader) error {
	if q.inTxn {
		panic("locks: RestoreState inside a transaction")
	}
	if err := checkShape(r, "queue", len(q.data), q.width); err != nil {
		return err
	}
	if fwd := r.Bool(); r.Err() == nil && fwd != q.forward {
		return fmt.Errorf("locks: snapshot queue forwarding %v, this lock %v", fwd, q.forward)
	}
	for i := range q.data {
		q.data[i] = val.New(r.Val().Uint(), q.width).Uint()
	}
	nres := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	q.resvs = q.resvs[:0]
	for i := 0; i < nres; i++ {
		res := q.newResv(r.U64(), r.U64(), r.Bool())
		nwr := r.Int()
		if err := r.Err(); err != nil {
			return err
		}
		for j := 0; j < nwr; j++ {
			res.wr = append(res.wr, qWrite{addr: r.U64(), v: r.Val()})
		}
		q.resvs = append(q.resvs, res)
	}
	q.undo = q.undo[:0]
	q.deadTxn = q.deadTxn[:0]
	return r.Err()
}

// SaveState serializes the renaming lock: the physical register file,
// both map tables, the free list and the live reservations, all in
// index/age order.
func (rn *Renaming) SaveState(w *snap.Writer) {
	if rn.inTxn {
		panic("locks: SaveState inside a transaction")
	}
	w.Int(len(rn.specMap))
	w.Int(rn.width)
	w.Int(len(rn.phys))
	for _, p := range rn.phys {
		w.Val(p.v)
		w.Bool(p.ready)
	}
	for _, p := range rn.specMap {
		w.Int(p)
	}
	for _, p := range rn.commMap {
		w.Int(p)
	}
	w.Int(len(rn.free))
	for _, p := range rn.free {
		w.Int(p)
	}
	w.Int(len(rn.resvs))
	for _, res := range rn.resvs {
		w.U64(res.id)
		w.U64(res.arch)
		w.Bool(res.write)
		w.Int(res.newPhys)
		w.Int(res.oldPhys)
		w.Int(res.phys)
	}
}

// RestoreState replaces the renaming lock's state with a saved image,
// resetting all transaction-transient state.
func (rn *Renaming) RestoreState(r *snap.Reader) error {
	if rn.inTxn {
		panic("locks: RestoreState inside a transaction")
	}
	if err := checkShape(r, "renaming", len(rn.specMap), rn.width); err != nil {
		return err
	}
	nphys := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if nphys != len(rn.phys) {
		return fmt.Errorf("locks: snapshot renaming has %d physical registers, this lock %d",
			nphys, len(rn.phys))
	}
	for i := range rn.phys {
		rn.phys[i] = physReg{v: r.Val(), ready: r.Bool()}
	}
	for i := range rn.specMap {
		rn.specMap[i] = r.Int()
	}
	for i := range rn.commMap {
		rn.commMap[i] = r.Int()
	}
	nfree := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	rn.free = rn.free[:0]
	for i := 0; i < nfree; i++ {
		rn.free = append(rn.free, r.Int())
	}
	nres := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	rn.resvs = rn.resvs[:0]
	for i := 0; i < nres; i++ {
		res := rn.newResv(r.U64(), r.U64(), r.Bool())
		res.newPhys = r.Int()
		res.oldPhys = r.Int()
		res.phys = r.Int()
		rn.resvs = append(rn.resvs, res)
	}
	if err := r.Err(); err != nil {
		return err
	}
	// Index sanity: every table entry must point inside the physical file
	// (the checksum already rejects corruption; this guards against a
	// snapshot from a lock with different RenamingExtra).
	for _, p := range rn.specMap {
		if p < 0 || p >= len(rn.phys) {
			return fmt.Errorf("locks: snapshot specMap entry %d out of range", p)
		}
	}
	for _, p := range rn.commMap {
		if p < 0 || p >= len(rn.phys) {
			return fmt.Errorf("locks: snapshot commMap entry %d out of range", p)
		}
	}
	for _, p := range rn.free {
		if p < 0 || p >= len(rn.phys) {
			return fmt.Errorf("locks: snapshot free-list entry %d out of range", p)
		}
	}
	rn.undo = rn.undo[:0]
	rn.deadTxn = rn.deadTxn[:0]
	return nil
}
