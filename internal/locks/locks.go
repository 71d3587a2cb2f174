// Package locks implements PDL's pipeline locks — the abstractions that
// guard shared memories against hazards — extended with the abort
// operation XPDL's rollback stage needs (§3.4 of the paper).
//
// Three kinds are provided, matching the paper:
//
//   - Queue (basic): a single in-order reservation queue; writes are
//     buffered per reservation and commit on release.
//   - Queue (bypass): the same queue, but pending writes forward to reads
//     issued by younger instructions before the writer releases.
//   - Renaming: a renaming register file — map table, physical registers
//     and a free list, with checkpoint-free LIFO squash and multi-cycle
//     style abort (restore the committed map).
//
// Abort resets a lock to its last committed state: ownership is revoked
// and all uncommitted writes disappear, which is exactly what the
// exceptional instruction's rollback (RB) stage requires for precise
// exceptions.
//
// All mutating operations run inside a transaction (Begin / Commit /
// Rollback). The simulator fires a pipeline stage atomically: it begins a
// transaction, applies the stage's lock operations while checking
// conditions, and rolls everything back if any condition fails, so a
// stalled stage leaves no trace.
package locks

import (
	"fmt"

	"xpdl/internal/snap"
	"xpdl/internal/val"
)

// IID is an instruction's global issue identifier; lower is older.
type IID = uint64

// Whole is the address wildcard for whole-memory reservations.
const Whole = ^uint64(0)

// Lock is a lock-guarded memory as seen by one pipeline.
//
// addr arguments use Whole for whole-memory reservations. The zero value
// of the implementations is not usable; use the constructors.
type Lock interface {
	// Begin starts a transaction; Commit keeps its effects; Rollback
	// undoes every mutating call since Begin.
	Begin()
	Commit()
	Rollback()

	// CanReserve reports whether a reservation can be made now (the
	// renaming lock runs out of physical registers; queues always can).
	CanReserve(id IID, addr uint64, write bool) bool
	// Reserve appends a reservation. Reservations must be made in
	// program (issue) order per address; PDL's in-order stages ensure it.
	Reserve(id IID, addr uint64, write bool)
	// Owns reports whether id's reservation for addr currently owns the
	// lock (is not blocked behind a conflicting older reservation).
	Owns(id IID, addr uint64, write bool) bool
	// ReadReady reports whether a read by id of addr can produce a value
	// now (ownership or, for forwarding locks, data availability).
	ReadReady(id IID, addr uint64) bool
	// Read returns the value id observes at addr. Call only when
	// ReadReady is true.
	Read(id IID, addr uint64) val.Value
	// Write stages a write by id; it becomes architectural on Release.
	Write(id IID, addr uint64, v val.Value)
	// Release relinquishes id's oldest live reservation matching addr,
	// committing its staged writes if it is a write reservation.
	Release(id IID, addr uint64)
	// Squash removes every reservation and staged write belonging to a
	// killed speculative instruction.
	Squash(id IID)
	// Abort resets all transient state: every reservation is revoked and
	// every uncommitted write is discarded (§3.4).
	Abort()
	// Reset returns the lock to the state its constructor built — every
	// committed word zero, no reservations, no open transaction — in
	// place, reusing its storage (pooled machines are reset, not
	// rebuilt).
	Reset()

	// Peek reads the committed (architectural) value; Poke sets it.
	// They bypass locking and exist for initialization and inspection.
	Peek(addr uint64) val.Value
	Poke(addr uint64, v val.Value)
	// FirstDiff compares the committed words at off, off+1, ... with
	// want, each word cut to its low 32 bits, and returns the first
	// address that differs, or -1: Peek over a range, for checkers that
	// compare whole memories.
	FirstDiff(off uint64, want []uint32) int
	// Depth is the number of words.
	Depth() int
	// PendingCount reports live (unreleased) reservations, for tests and
	// invariant checks.
	PendingCount() int
	// Resvs snapshots up to max live reservations in queue (age) order,
	// for hang diagnostics. It allocates and must stay off the hot path.
	Resvs(max int) []ResvInfo

	// SaveState serializes the lock's durable state (committed words,
	// live reservations, staged writes) in deterministic order, and
	// RestoreState replaces it from a saved image of an identically
	// shaped lock, resetting transaction-transient state. Both must be
	// called outside a transaction (see internal/locks/snapshot.go).
	SaveState(w *snap.Writer)
	RestoreState(r *snap.Reader) error
}

// ResvInfo is one live reservation in a lock's diagnostic snapshot.
type ResvInfo struct {
	ID    IID
	Addr  uint64 // Whole for whole-memory reservations
	Write bool
	// Owns reports whether the reservation currently owns the lock —
	// a live reservation with Owns false is a waiter.
	Owns bool
}

// boundsCheck panics on out-of-range addresses: the simulator masks
// addresses to the memory depth before calling, so a violation here is a
// simulator bug.
func boundsCheck(addr uint64, depth int, what string) {
	if addr != Whole && addr >= uint64(depth) {
		panic(fmt.Sprintf("locks: %s address %d out of range (depth %d)", what, addr, depth))
	}
}

// Plain is an unlocked memory for read-only connections (instruction
// ROMs). It offers Peek/Poke/Depth only. Words are stored raw, already
// truncated to the memory's width, so a fresh memory needs no
// initialization pass.
type Plain struct {
	data  []uint64
	width int
}

// NewPlain builds an unlocked memory of depth words of the given width.
func NewPlain(depth, width int) *Plain {
	val.New(0, width) // validate the width up front
	return &Plain{data: make([]uint64, depth), width: width}
}

// Peek reads word addr.
func (p *Plain) Peek(addr uint64) val.Value {
	boundsCheck(addr, len(p.data), "plain read")
	return val.New(p.data[addr], p.width)
}

// Poke writes word addr.
func (p *Plain) Poke(addr uint64, v val.Value) {
	boundsCheck(addr, len(p.data), "plain write")
	p.data[addr] = val.New(v.Uint(), p.width).Uint()
}

// FirstDiff compares words off, off+1, ... with want (see Lock).
func (p *Plain) FirstDiff(off uint64, want []uint32) int {
	return firstDiff(p.data, off, want)
}

// Depth is the number of words.
func (p *Plain) Depth() int { return len(p.data) }

// firstDiff is FirstDiff over raw committed words.
func firstDiff(data []uint64, off uint64, want []uint32) int {
	if len(want) == 0 {
		return -1
	}
	boundsCheck(off+uint64(len(want))-1, len(data), "compare")
	for i, w := range data[off : off+uint64(len(want))] {
		if uint32(w) != want[i] {
			return int(off) + i
		}
	}
	return -1
}

// Reset zeroes every word, as NewPlain left them.
func (p *Plain) Reset() { clear(p.data) }
