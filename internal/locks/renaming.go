package locks

import (
	"fmt"

	"xpdl/internal/val"
)

// Renaming is the renaming register file lock of §3.4: a map table from
// architectural to physical registers plus a free list. Write
// reservations allocate a fresh physical register, so WAW and WAR hazards
// disappear; read reservations capture the mapping current at reservation
// time and wait only for the producer's value (RAW).
//
// Squash undoes a killed instruction's allocations LIFO (squashed
// instructions are the youngest). Abort restores the committed map — the
// multi-cycle exception-rollback path the paper contrasts with per-branch
// snapshots. Every exception takes that path, so Abort reuses buffers the
// lock owns and allocates nothing once they have grown.
//
// Renaming locks are per-address only; whole-memory reservations are not
// supported (the paper uses renaming for register files, which are always
// accessed by index).
type Renaming struct {
	phys    []physReg
	specMap []int
	commMap []int
	free    []int
	resvs   []*rResv
	width   int
	inTxn   bool

	// Transaction journal: typed undo records in a reusable buffer (no
	// per-operation closure allocations on the simulator's cycle loop).
	undo []rUndo
	// Reservation recycling; see Queue.deadTxn for the discipline.
	deadTxn []*rResv
	pool    []*rResv

	// Abort's working storage: mapped marks the physical registers the
	// committed map references while the free list is rebuilt (all false
	// between calls), and snaps[:nsnap] are the undo snapshots of the
	// Aborts in the open transaction, reused from one transaction to the
	// next.
	mapped []bool
	snaps  []rSnap
	nsnap  int
}

type rUndoKind uint8

const (
	rUndoRemoveResv rUndoKind = iota // Reserve: unlink res (and recycle it)
	rUndoInsertResv                  // Release/Squash: re-link res at idx
	rUndoFreePush                    // Reserve: put allocated phys reg back
	rUndoFreePop                     // Release/Squash: retract a freed reg
	rUndoSpecMap                     // restore specMap[idx]
	rUndoCommMap                     // restore commMap[idx]
	rUndoPhys                        // restore phys[idx]
	rUndoAbort                       // Abort: restore snapshot snaps[idx]
)

type rUndo struct {
	kind rUndoKind
	res  *rResv
	idx  int
	old  int
	reg  physReg
}

// rSnap is the state an Abort inside a transaction replaces.
type rSnap struct {
	specMap []int
	free    []int
	resvs   []*rResv
}

type physReg struct {
	v     val.Value
	ready bool
}

type rResv struct {
	id    IID
	arch  uint64
	write bool
	// For write reservations: the allocated register and the mapping it
	// replaced. For read reservations: the captured source register.
	newPhys, oldPhys int
	phys             int
}

// NewRenaming builds a renaming register file with depth architectural
// registers and extra spare physical registers.
func NewRenaming(depth, width, extra int) *Renaming {
	if extra < 1 {
		extra = 1
	}
	r := &Renaming{
		phys:    make([]physReg, depth+extra),
		specMap: make([]int, depth),
		commMap: make([]int, depth),
		width:   width,
	}
	for i := 0; i < depth; i++ {
		r.phys[i] = physReg{v: val.New(0, width), ready: true}
		r.specMap[i] = i
		r.commMap[i] = i
	}
	for i := depth + extra - 1; i >= depth; i-- {
		r.phys[i] = physReg{v: val.New(0, width), ready: true}
		r.free = append(r.free, i)
	}
	return r
}

// Reset returns the lock to the state NewRenaming built: the identity
// map, every physical register zero and ready, the spare registers on
// the free list in constructor order, no reservations and no
// transaction. Reservation records return to the free pool.
func (r *Renaming) Reset() {
	if r.inTxn {
		r.Rollback()
	}
	depth := len(r.specMap)
	for i := range r.phys {
		r.phys[i] = physReg{v: val.New(0, r.width), ready: true}
	}
	for i := 0; i < depth; i++ {
		r.specMap[i] = i
		r.commMap[i] = i
	}
	r.free = r.free[:0]
	for i := len(r.phys) - 1; i >= depth; i-- {
		r.free = append(r.free, i)
	}
	r.pool = append(r.pool, r.resvs...)
	clear(r.resvs)
	r.resvs = r.resvs[:0]
}

// Begin starts a transaction.
func (r *Renaming) Begin() {
	if r.inTxn {
		panic("locks: nested transaction")
	}
	r.inTxn = true
	r.undo = r.undo[:0]
	r.nsnap = 0
}

// Commit keeps the transaction's effects. Reservations unlinked during
// the transaction are now unreachable and return to the free pool.
func (r *Renaming) Commit() {
	r.inTxn = false
	r.undo = r.undo[:0]
	r.nsnap = 0
	for _, res := range r.deadTxn {
		r.pool = append(r.pool, res)
	}
	r.deadTxn = r.deadTxn[:0]
}

// Rollback undoes every mutation since Begin.
func (r *Renaming) Rollback() {
	for i := len(r.undo) - 1; i >= 0; i-- {
		u := &r.undo[i]
		switch u.kind {
		case rUndoRemoveResv:
			r.removeResv(u.res)
			r.pool = append(r.pool, u.res) // allocated this txn; now unreachable
		case rUndoInsertResv:
			r.insertResv(u.res, u.idx)
		case rUndoFreePush:
			r.free = append(r.free, u.idx)
		case rUndoFreePop:
			r.free = r.free[:len(r.free)-1]
		case rUndoSpecMap:
			r.specMap[u.idx] = u.old
		case rUndoCommMap:
			r.commMap[u.idx] = u.old
		case rUndoPhys:
			r.phys[u.idx] = u.reg
		case rUndoAbort:
			sn := &r.snaps[u.idx]
			copy(r.specMap, sn.specMap)
			r.free = append(r.free[:0], sn.free...)
			r.resvs = append(r.resvs[:0], sn.resvs...)
		}
	}
	r.inTxn = false
	r.undo = r.undo[:0]
	r.nsnap = 0
	// Anything parked in deadTxn was re-linked by the undos above.
	r.deadTxn = r.deadTxn[:0]
}

func (r *Renaming) record(u rUndo) {
	if r.inTxn {
		r.undo = append(r.undo, u)
	}
}

// retireResv recycles an unlinked reservation: deferred to Commit while
// a transaction could still roll it back, immediate otherwise.
func (r *Renaming) retireResv(res *rResv) {
	if r.inTxn {
		r.deadTxn = append(r.deadTxn, res)
	} else {
		r.pool = append(r.pool, res)
	}
}

func (r *Renaming) newResv(id IID, arch uint64, write bool) *rResv {
	if n := len(r.pool); n > 0 {
		res := r.pool[n-1]
		r.pool = r.pool[:n-1]
		*res = rResv{id: id, arch: arch, write: write}
		return res
	}
	return &rResv{id: id, arch: arch, write: write}
}

func (r *Renaming) find(id IID, arch uint64) *rResv {
	for _, v := range r.resvs {
		if v.id == id && v.arch == arch {
			return v
		}
	}
	return nil
}

// CanReserve reports whether a write reservation can allocate a physical
// register now; read reservations always succeed.
func (r *Renaming) CanReserve(id IID, addr uint64, write bool) bool {
	if addr == Whole {
		return false
	}
	return !write || len(r.free) > 0
}

// Reserve makes a reservation. Write reservations allocate; reads capture
// the current mapping.
func (r *Renaming) Reserve(id IID, addr uint64, write bool) {
	if addr == Whole {
		panic("locks: renaming locks do not support whole-memory reservations")
	}
	boundsCheck(addr, len(r.specMap), "reserve")
	res := r.newResv(id, addr, write)
	if write {
		if len(r.free) == 0 {
			panic("locks: renaming free list exhausted (check CanReserve first)")
		}
		p := r.free[len(r.free)-1]
		r.free = r.free[:len(r.free)-1]
		r.record(rUndo{kind: rUndoFreePush, idx: p})

		res.newPhys = p
		res.oldPhys = r.specMap[addr]
		r.record(rUndo{kind: rUndoSpecMap, idx: int(addr), old: r.specMap[addr]})
		r.specMap[addr] = p

		r.record(rUndo{kind: rUndoPhys, idx: p, reg: r.phys[p]})
		r.phys[p] = physReg{v: val.New(0, r.width), ready: false}
	} else {
		res.phys = r.specMap[addr]
	}
	r.resvs = append(r.resvs, res)
	r.record(rUndo{kind: rUndoRemoveResv, res: res})
}

func (r *Renaming) removeResv(res *rResv) int {
	for i, o := range r.resvs {
		if o == res {
			r.resvs = append(r.resvs[:i], r.resvs[i+1:]...)
			return i
		}
	}
	panic("locks: reservation not found")
}

func (r *Renaming) insertResv(res *rResv, idx int) {
	r.resvs = append(r.resvs, nil)
	copy(r.resvs[idx+1:], r.resvs[idx:])
	r.resvs[idx] = res
}

// Owns reports readiness: write reservations always own their fresh
// register; read reservations own once the producer's value is ready.
func (r *Renaming) Owns(id IID, addr uint64, write bool) bool {
	res := r.find(id, addr)
	if res == nil {
		return false
	}
	if res.write {
		return true
	}
	return r.phys[res.phys].ready
}

// ReadReady reports whether Read can produce a value.
func (r *Renaming) ReadReady(id IID, addr uint64) bool {
	res := r.find(id, addr)
	if res == nil {
		return false
	}
	if res.write {
		return r.phys[res.newPhys].ready
	}
	return r.phys[res.phys].ready
}

// Read returns the value id observes through its reservation.
func (r *Renaming) Read(id IID, addr uint64) val.Value {
	res := r.find(id, addr)
	if res == nil {
		panic(fmt.Sprintf("locks: read by %d of %d without a reservation", id, addr))
	}
	if res.write {
		return r.phys[res.newPhys].v
	}
	return r.phys[res.phys].v
}

// Write produces the value for id's write reservation on addr.
func (r *Renaming) Write(id IID, addr uint64, v val.Value) {
	res := r.find(id, addr)
	if res == nil || !res.write {
		panic(fmt.Sprintf("locks: write by %d to %d without a write reservation", id, addr))
	}
	p := res.newPhys
	r.record(rUndo{kind: rUndoPhys, idx: p, reg: r.phys[p]})
	r.phys[p] = physReg{v: val.New(v.Uint(), r.width), ready: true}
}

// Release commits a write reservation (the new mapping becomes committed
// and the replaced register is freed) or drops a read reservation.
func (r *Renaming) Release(id IID, addr uint64) {
	res := r.find(id, addr)
	if res == nil {
		panic(fmt.Sprintf("locks: release by %d of %d without a reservation", id, addr))
	}
	if res.write {
		arch := int(res.arch)
		r.record(rUndo{kind: rUndoCommMap, idx: arch, old: r.commMap[arch]})
		r.commMap[arch] = res.newPhys

		r.free = append(r.free, res.oldPhys)
		r.record(rUndo{kind: rUndoFreePop})
	}
	idx := r.removeResv(res)
	r.record(rUndo{kind: rUndoInsertResv, res: res, idx: idx})
	r.retireResv(res)
}

// Squash undoes a killed instruction's reservations. Its write
// allocations are unwound LIFO; the machine squashes the youngest
// instructions first, so the mapping restore is exact.
func (r *Renaming) Squash(id IID) {
	for i := len(r.resvs) - 1; i >= 0; i-- {
		res := r.resvs[i]
		if res.id != id {
			continue
		}
		if res.write {
			arch := int(res.arch)
			if r.specMap[arch] == res.newPhys {
				r.record(rUndo{kind: rUndoSpecMap, idx: arch, old: r.specMap[arch]})
				r.specMap[arch] = res.oldPhys
			}
			r.free = append(r.free, res.newPhys)
			r.record(rUndo{kind: rUndoFreePop})
		}
		r.resvs = append(r.resvs[:i], r.resvs[i+1:]...)
		r.record(rUndo{kind: rUndoInsertResv, res: res, idx: i})
		r.retireResv(res)
	}
}

// Abort restores the committed map: the speculative map becomes the
// committed one, all reservations disappear, and the free list is rebuilt
// from the registers the committed map does not reference, highest index
// first (§3.4). Revoked reservations return to the pool (after Commit,
// inside a transaction); only an Abort inside a transaction snapshots
// what it replaces, into the lock's reusable snapshot buffers.
func (r *Renaming) Abort() {
	if r.inTxn {
		if r.nsnap == len(r.snaps) {
			r.snaps = append(r.snaps, rSnap{})
		}
		sn := &r.snaps[r.nsnap]
		sn.specMap = append(sn.specMap[:0], r.specMap...)
		sn.free = append(sn.free[:0], r.free...)
		sn.resvs = append(sn.resvs[:0], r.resvs...)
		r.undo = append(r.undo, rUndo{kind: rUndoAbort, idx: r.nsnap})
		r.nsnap++
	}
	for _, res := range r.resvs {
		r.retireResv(res)
	}
	clear(r.resvs)
	r.resvs = r.resvs[:0]

	copy(r.specMap, r.commMap)
	if len(r.mapped) != len(r.phys) {
		r.mapped = make([]bool, len(r.phys))
	}
	for _, p := range r.commMap {
		r.mapped[p] = true
	}
	r.free = r.free[:0]
	for p := len(r.phys) - 1; p >= 0; p-- {
		if r.mapped[p] {
			r.mapped[p] = false
		} else {
			r.free = append(r.free, p)
		}
	}
}

// Peek reads the committed value of architectural register addr.
func (r *Renaming) Peek(addr uint64) val.Value {
	boundsCheck(addr, len(r.commMap), "peek")
	return r.phys[r.commMap[addr]].v
}

// Poke sets the committed value of architectural register addr.
func (r *Renaming) Poke(addr uint64, v val.Value) {
	boundsCheck(addr, len(r.commMap), "poke")
	r.phys[r.commMap[addr]] = physReg{v: val.New(v.Uint(), r.width), ready: true}
}

// FirstDiff compares the committed values of architectural registers
// off, off+1, ... with want (see Lock).
func (r *Renaming) FirstDiff(off uint64, want []uint32) int {
	if len(want) == 0 {
		return -1
	}
	boundsCheck(off+uint64(len(want))-1, len(r.commMap), "compare")
	for i, p := range r.commMap[off : off+uint64(len(want))] {
		if uint32(r.phys[p].v.Uint()) != want[i] {
			return int(off) + i
		}
	}
	return -1
}

// Depth is the number of architectural registers.
func (r *Renaming) Depth() int { return len(r.commMap) }

// PendingCount reports live reservations.
func (r *Renaming) PendingCount() int { return len(r.resvs) }

// Resvs snapshots up to max live reservations in reservation order. A
// read reservation owns once its source register is ready; write
// reservations always own their freshly allocated register.
func (r *Renaming) Resvs(max int) []ResvInfo {
	n := len(r.resvs)
	if n > max {
		n = max
	}
	out := make([]ResvInfo, 0, n)
	for i := 0; i < n; i++ {
		res := r.resvs[i]
		out = append(out, ResvInfo{
			ID: res.id, Addr: res.arch, Write: res.write,
			Owns: res.write || r.phys[res.phys].ready,
		})
	}
	return out
}
