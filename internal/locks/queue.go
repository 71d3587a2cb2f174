package locks

import (
	"fmt"

	"xpdl/internal/val"
)

// Queue is the in-order reservation-queue lock. With forwarding disabled
// it is PDL's basic lock: a read or write may proceed only when its
// reservation is not behind any conflicting older reservation, and writes
// become architectural when the reservation is released. With forwarding
// enabled it is the bypass queue of §3.4: pending writes are passed to
// reads by younger instructions before the writer releases. Committed
// words are stored raw, already truncated to the memory's width, as in
// Plain: a fresh or reset queue is one zeroed slice.
type Queue struct {
	data    []uint64
	width   int
	forward bool
	resvs   []*qResv
	inTxn   bool

	// Transaction journal: typed undo records in a reusable buffer (no
	// per-operation closure allocations on the simulator's cycle loop).
	undo []qUndo
	// Reservation recycling: records unlinked inside a transaction park
	// in deadTxn (a rollback may resurrect them via qUndoInsertResv) and
	// move to the free pool only on Commit.
	deadTxn []*qResv
	pool    []*qResv
	// snaps[:nsnap] hold the reservation queues the Aborts of the open
	// transaction revoked, in buffers reused from one transaction to the
	// next.
	snaps [][]*qResv
	nsnap int
}

type qResv struct {
	id    IID
	addr  uint64 // Whole for whole-memory reservations
	write bool
	wr    []qWrite
}

type qWrite struct {
	addr uint64
	v    val.Value
}

type qUndoKind uint8

const (
	qUndoRemoveResv qUndoKind = iota // Reserve: unlink res (and recycle it)
	qUndoPopWrite                    // Write: drop res's latest staged write
	qUndoData                        // Release: restore committed word
	qUndoInsertResv                  // Release/Squash: re-link res at idx
	qUndoResvs                       // Abort: restore the queue in snaps[idx]
)

type qUndo struct {
	kind qUndoKind
	res  *qResv
	idx  int
	addr uint64
	old  uint64
}

// NewBasic builds a basic (non-forwarding) queue lock.
func NewBasic(depth, width int) *Queue {
	return newQueue(depth, width, false)
}

// NewBypass builds a bypass (forwarding) queue lock.
func NewBypass(depth, width int) *Queue {
	return newQueue(depth, width, true)
}

func newQueue(depth, width int, forward bool) *Queue {
	val.New(0, width) // validate the width up front
	return &Queue{data: make([]uint64, depth), width: width, forward: forward}
}

// Reset returns the queue to the state its constructor built: every
// committed word zero, no reservations, no transaction. Reservation
// records return to the free pool, so a reset lock reuses its storage.
func (q *Queue) Reset() {
	if q.inTxn {
		q.Rollback()
	}
	clear(q.data)
	q.pool = append(q.pool, q.resvs...)
	clear(q.resvs)
	q.resvs = q.resvs[:0]
}

// Begin starts a transaction.
func (q *Queue) Begin() {
	if q.inTxn {
		panic("locks: nested transaction")
	}
	q.inTxn = true
	q.undo = q.undo[:0]
	q.nsnap = 0
}

// Commit keeps the transaction's effects. Reservations unlinked during
// the transaction are now unreachable and return to the free pool.
func (q *Queue) Commit() {
	q.inTxn = false
	q.undo = q.undo[:0]
	q.nsnap = 0
	for _, r := range q.deadTxn {
		q.pool = append(q.pool, r)
	}
	q.deadTxn = q.deadTxn[:0]
}

// Rollback undoes every mutation since Begin.
func (q *Queue) Rollback() {
	for i := len(q.undo) - 1; i >= 0; i-- {
		u := &q.undo[i]
		switch u.kind {
		case qUndoRemoveResv:
			q.removeResv(u.res)
			q.pool = append(q.pool, u.res) // allocated this txn; now unreachable
		case qUndoPopWrite:
			u.res.wr = u.res.wr[:len(u.res.wr)-1]
		case qUndoData:
			q.data[u.addr] = u.old
		case qUndoInsertResv:
			q.insertResv(u.res, u.idx)
		case qUndoResvs:
			q.resvs = append(q.resvs[:0], q.snaps[u.idx]...)
		}
	}
	q.inTxn = false
	q.undo = q.undo[:0]
	q.nsnap = 0
	// Anything parked in deadTxn was re-linked by the undos above.
	q.deadTxn = q.deadTxn[:0]
}

func (q *Queue) record(u qUndo) {
	if q.inTxn {
		q.undo = append(q.undo, u)
	}
}

// retireResv recycles an unlinked reservation: deferred to Commit while
// a transaction could still roll it back, immediate otherwise.
func (q *Queue) retireResv(r *qResv) {
	if q.inTxn {
		q.deadTxn = append(q.deadTxn, r)
	} else {
		q.pool = append(q.pool, r)
	}
}

func (q *Queue) newResv(id IID, addr uint64, write bool) *qResv {
	if n := len(q.pool); n > 0 {
		r := q.pool[n-1]
		q.pool = q.pool[:n-1]
		r.id, r.addr, r.write = id, addr, write
		r.wr = r.wr[:0]
		return r
	}
	return &qResv{id: id, addr: addr, write: write}
}

// find returns the oldest reservation by id exactly matching addr, and
// its index.
func (q *Queue) find(id IID, addr uint64) (*qResv, int) {
	for i, r := range q.resvs {
		if r.id == id && r.addr == addr {
			return r, i
		}
	}
	return nil, -1
}

func overlaps(a, b uint64) bool {
	return a == Whole || b == Whole || a == b
}

// conflictsBefore reports whether any reservation older (earlier in the
// queue) than index i conflicts with r: overlapping addresses where at
// least one side writes.
func (q *Queue) conflictsBefore(i int, r *qResv) bool {
	for j := 0; j < i; j++ {
		o := q.resvs[j]
		if overlaps(o.addr, r.addr) && (o.write || r.write) {
			return true
		}
	}
	return false
}

// CanReserve always succeeds for queue locks.
func (q *Queue) CanReserve(IID, uint64, bool) bool { return true }

// Reserve appends a reservation for id on addr.
func (q *Queue) Reserve(id IID, addr uint64, write bool) {
	boundsCheck(addr, len(q.data), "reserve")
	r := q.newResv(id, addr, write)
	q.resvs = append(q.resvs, r)
	q.record(qUndo{kind: qUndoRemoveResv, res: r})
}

func (q *Queue) removeResv(r *qResv) int {
	for i, o := range q.resvs {
		if o == r {
			q.resvs = append(q.resvs[:i], q.resvs[i+1:]...)
			return i
		}
	}
	panic("locks: reservation not found")
}

func (q *Queue) insertResv(r *qResv, idx int) {
	q.resvs = append(q.resvs, nil)
	copy(q.resvs[idx+1:], q.resvs[idx:])
	q.resvs[idx] = r
}

// Owns reports whether id's reservation on addr is unblocked.
func (q *Queue) Owns(id IID, addr uint64, write bool) bool {
	r, i := q.find(id, addr)
	if r == nil {
		return false
	}
	_ = write
	return !q.conflictsBefore(i, r)
}

// ReadReady reports whether a read can complete. Basic locks require
// ownership; bypass locks additionally accept the case where every
// conflicting older write reservation has already staged a write to addr,
// so the value can be forwarded.
func (q *Queue) ReadReady(id IID, addr uint64) bool {
	r, i := q.find(id, addr)
	if r == nil {
		// The reservation may be whole-memory.
		r, i = q.find(id, Whole)
		if r == nil {
			return false
		}
	}
	if !q.conflictsBefore(i, r) {
		return true
	}
	if !q.forward {
		return false
	}
	for j := 0; j < i; j++ {
		o := q.resvs[j]
		if !o.write || !overlaps(o.addr, addr) {
			continue
		}
		if o.latestWrite(addr) == nil {
			return false // older writer has not produced the value yet
		}
	}
	return true
}

func (r *qResv) latestWrite(addr uint64) *qWrite {
	for i := len(r.wr) - 1; i >= 0; i-- {
		if r.wr[i].addr == addr {
			return &r.wr[i]
		}
	}
	return nil
}

// Read returns the value id observes at addr: its own staged write if
// any, else (for bypass locks) the latest staged write of an older
// reservation, else the committed value.
func (q *Queue) Read(id IID, addr uint64) val.Value {
	boundsCheck(addr, len(q.data), "read")
	r, i := q.find(id, addr)
	if r == nil {
		r, i = q.find(id, Whole)
	}
	if r != nil {
		if w := r.latestWrite(addr); w != nil {
			return w.v
		}
		if q.forward {
			for j := i - 1; j >= 0; j-- {
				o := q.resvs[j]
				if o.write && overlaps(o.addr, addr) {
					if w := o.latestWrite(addr); w != nil {
						return w.v
					}
				}
			}
		}
	}
	return val.New(q.data[addr], q.width)
}

// Write stages a write by id's write reservation covering addr.
func (q *Queue) Write(id IID, addr uint64, v val.Value) {
	boundsCheck(addr, len(q.data), "write")
	r, _ := q.find(id, addr)
	if r == nil || !r.write {
		r, _ = q.find(id, Whole)
	}
	if r == nil || !r.write {
		panic(fmt.Sprintf("locks: write by %d to %d without a write reservation", id, addr))
	}
	r.wr = append(r.wr, qWrite{addr: addr, v: val.New(v.Uint(), q.width)})
	q.record(qUndo{kind: qUndoPopWrite, res: r})
}

// Release removes id's oldest reservation matching addr, committing its
// staged writes for write reservations.
func (q *Queue) Release(id IID, addr uint64) {
	r, i := q.find(id, addr)
	if r == nil {
		panic(fmt.Sprintf("locks: release by %d of %d without a reservation", id, addr))
	}
	if r.write && q.conflictsBefore(i, r) {
		panic(fmt.Sprintf("locks: release by %d of %d would commit out of order", id, addr))
	}
	for _, w := range r.wr {
		q.record(qUndo{kind: qUndoData, addr: w.addr, old: q.data[w.addr]})
		q.data[w.addr] = w.v.Uint()
	}
	idx := q.removeResv(r)
	q.record(qUndo{kind: qUndoInsertResv, res: r, idx: idx})
	q.retireResv(r)
}

// Squash drops every reservation (and staged write) of a killed
// instruction.
func (q *Queue) Squash(id IID) {
	for i := len(q.resvs) - 1; i >= 0; i-- {
		if q.resvs[i].id == id {
			r := q.resvs[i]
			q.resvs = append(q.resvs[:i], q.resvs[i+1:]...)
			q.record(qUndo{kind: qUndoInsertResv, res: r, idx: i})
			q.retireResv(r)
		}
	}
}

// Abort revokes all reservations and discards all uncommitted writes,
// returning the lock to its last committed state (§3.4). The revoked
// reservations return to the pool (after Commit, inside a transaction);
// only an Abort inside a transaction snapshots the queue it revokes.
func (q *Queue) Abort() {
	if q.inTxn {
		if q.nsnap == len(q.snaps) {
			q.snaps = append(q.snaps, nil)
		}
		q.snaps[q.nsnap] = append(q.snaps[q.nsnap][:0], q.resvs...)
		q.undo = append(q.undo, qUndo{kind: qUndoResvs, idx: q.nsnap})
		q.nsnap++
	}
	for _, r := range q.resvs {
		q.retireResv(r)
	}
	clear(q.resvs)
	q.resvs = q.resvs[:0]
}

// Peek reads the committed value at addr.
func (q *Queue) Peek(addr uint64) val.Value {
	boundsCheck(addr, len(q.data), "peek")
	return val.New(q.data[addr], q.width)
}

// Poke sets the committed value at addr (initialization only).
func (q *Queue) Poke(addr uint64, v val.Value) {
	boundsCheck(addr, len(q.data), "poke")
	q.data[addr] = val.New(v.Uint(), q.width).Uint()
}

// FirstDiff compares committed words off, off+1, ... with want (see
// Lock).
func (q *Queue) FirstDiff(off uint64, want []uint32) int {
	return firstDiff(q.data, off, want)
}

// Depth is the number of words.
func (q *Queue) Depth() int { return len(q.data) }

// PendingCount reports live reservations.
func (q *Queue) PendingCount() int { return len(q.resvs) }

// Resvs snapshots up to max live reservations in queue order.
func (q *Queue) Resvs(max int) []ResvInfo {
	n := len(q.resvs)
	if n > max {
		n = max
	}
	out := make([]ResvInfo, 0, n)
	for i := 0; i < n; i++ {
		r := q.resvs[i]
		out = append(out, ResvInfo{
			ID: r.id, Addr: r.addr, Write: r.write,
			Owns: !q.conflictsBefore(i, r),
		})
	}
	return out
}
