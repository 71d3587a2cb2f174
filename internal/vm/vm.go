// Package vm lowers a compiled XPDL design one level further than the
// closure executor: every stage's statement list becomes a flat slice of
// fixed-size bytecode instructions with a dense opcode set, executed by a
// threaded dispatch loop over struct-of-arrays machine state (registers,
// latch slots, volatile registers, spawn/extern arenas — contiguous
// slices indexed by ids precomputed at compile time). One Program is a
// pure function of a design's checked AST, so any number of machines —
// chaos-seed runs, bveq points, cosim replicas — share a single decoded
// image and differ only in state.
//
// Only the stage body is the vm's own. The host runs one firing
// protocol (occupancy, lock transactions, write-back, effects,
// continuation) around Env.Exec for every executor, and all of them
// buffer their deferred mutations as this package's Effect records.
//
// The executor must stay observably equivalent to the AST interpreter and
// the closure executor in internal/sim, which remain the differential
// oracles. Equivalence relies on one proven property: after a stall or
// death, the closure executor only performs pure evaluation (per-argument
// stall bails stop extern invocation, and lock/memory mutation sites all
// check the stall flag first), so the dispatch loop may abort instantly
// at the stalling instruction instead of threading a poisoned flag
// through the rest of the stage.
package vm

import (
	"sort"

	"xpdl/internal/val"
)

// V is a runtime value: a bit vector or (for extern decode-style results)
// a record of named bit vectors. Records store fields sorted by name so
// field access resolves to an index at machine-build time. The simulator
// aliases this type (sim.V) so machine state slices are shared with the
// dispatch loop without conversion.
type V struct {
	Rec *Rec // non-nil for records
	Val val.Value
}

// Rec is the record payload of a V: parallel name/value slices sorted by
// field name.
type Rec struct {
	Names []string
	Vals  []val.Value
}

// Field looks a record field up by name. Names are sorted (see Record),
// so the lookup is a binary search; both compiled executors avoid even
// that by resolving field indices at machine-build time.
func (r *Rec) Field(name string) (val.Value, bool) {
	lo, hi := 0, len(r.Names)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.Names[mid] < name {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(r.Names) && r.Names[lo] == name {
		return r.Vals[lo], true
	}
	return val.Value{}, false
}

// Uint returns the scalar payload; it panics on records.
func (v V) Uint() uint64 {
	if v.Rec != nil {
		panic("sim: record used as scalar")
	}
	return v.Val.Uint()
}

// IsRecord reports whether a V carries a record value.
func (v V) IsRecord() bool { return v.Rec != nil }

// Field reads a record field by name; ok is false for scalars or
// unknown fields.
func (v V) Field(name string) (val.Value, bool) {
	if v.Rec == nil {
		return val.Value{}, false
	}
	return v.Rec.Field(name)
}

// Scalar wraps a bit vector as a V.
func Scalar(x val.Value) V { return V{Val: x} }

// Record wraps named fields as a V.
func Record(fields map[string]val.Value) V {
	names := make([]string, 0, len(fields))
	for n := range fields {
		names = append(names, n)
	}
	sort.Strings(names)
	vals := make([]val.Value, len(names))
	for i, n := range names {
		vals[i] = fields[n]
	}
	return V{Rec: &Rec{Names: names, Vals: vals}}
}

// SlotVal is one latched variable slot of an in-flight instruction; OK
// distinguishes an assigned slot from an undriven one (whose reads see
// the typed zero).
type SlotVal struct {
	V  V
	OK bool
}

// ExternFunc implements an extern combinational function in Go — the
// analogue of an imported Verilog module in PDL. The args slice is only
// valid for the duration of the call (the executors pass a reusable
// scratch buffer); implementations must copy it to retain it.
type ExternFunc func(args []val.Value) V

// FaultInjector is the one hook the dispatch loop needs (the simulator's
// other hook sites fire outside stage execution). Implementations must be
// pure functions of their arguments; see sim.FaultInjector.
type FaultInjector interface {
	DelayExtern(cycle int, iid uint64, site uint64) bool
}

// Host exposes the two pieces of mutable machine state the bytecode
// reaches outside its own arenas, both on spawn paths (cold): entry-queue
// depth for backpressure, and the per-pipe speculation handle counter
// (consumed at the same point as in the other executors, even when the
// firing later stalls).
type Host interface {
	QueueLen(pipe int) int
	NextSpecHandle(pipe int) uint64
}

// Speculation status of the executing instruction, precomputed by the
// host before dispatch (it cannot change mid-firing: verdicts apply at
// effect time, after the firing). Values mirror sim's specStatus.
const (
	SpecPending uint8 = iota
	SpecVerified
	SpecInvalid
)

// Effect kinds. Effects are the deferred machine mutations a firing
// produces. Every executor of the simulator emits these same records
// into Env.Effects — the dispatch loop here, the host's AST interpreter
// and closure executor alike — and the host applies them in order after
// the firing's lock transactions commit. Effects name machine state by
// index (volatile, pipe, speculation handle); the firing instruction is
// implicit. A death is not an effect: the host removes a dying
// instruction (Env.Died) after applying the rest.
const (
	EffVolWrite    uint8 = iota // A=volatile index, Val=value
	EffSetGEF                   // A=pipe, Flag=value
	EffPipeClear                // A=pipe
	EffSpecClear                // A=pipe
	EffVerify                   // A=pipe, H=handle
	EffInvalidate               // A=pipe, H=handle
	EffSpecResolve              // A=pipe
	EffReturn                   // V=result value
	EffSpawn                    // A=pipe, Flag=cross-pipe, ArgOff/ArgN, Str=result var (host table index, -1 none)
	EffSpecSpawn                // A=pipe, ArgOff/ArgN, H=handle
)

// Effect is one deferred mutation (see the Eff* kinds).
type Effect struct {
	Val          val.Value
	V            V
	H            uint64
	A            int32
	ArgOff, ArgN int32
	Str          int32
	Kind         uint8
	Flag         bool
}

// Instr is one fixed-size bytecode instruction. Operand roles per opcode
// are documented with the Op* constants; by convention A is the
// destination register (or a jump target / index), B and C are source
// registers or small immediates, and Imm carries wide immediates.
// Register operands are window-relative: stage code runs at window base
// 0, in-language function calls push a window above the caller's.
type Instr struct {
	Imm uint64
	A   int32
	B   int16
	C   int16
	Op  uint8
}

// immW packs a width and the unsized-literal adaptation flag into the C
// operand of immediate-form ALU instructions: low 7 bits width, bit 8
// "adapt the immediate to the register operand's width when they differ"
// (the compile-time decision mirroring sim's isUnsized).
const immAdapt = 1 << 8

// OpBinA Imm flags: the low byte is the reg-reg opcode to apply.
const (
	binAdaptL = 1 << 8
	binAdaptR = 1 << 9
)

// Opcodes. Unless noted, value semantics are exactly those of
// internal/val and results are scalar Vs.
const (
	opInvalid uint8 = iota

	// Control.
	OpJmp      // jump to A
	OpJz       // if !Regs[B].IsTrue jump to A
	OpJnz      // if Regs[B].IsTrue jump to A
	OpStallGef // if Gefs[A] stall (gef guard)
	OpPanic    // panic with message Strs[Imm]

	// Moves and loads.
	OpConst     // Regs[A] = scalar(Imm, width C)
	OpConstV    // Regs[A] = Pool[Imm] (record constants)
	OpMove      // Regs[A] = Regs[B]
	OpLoadSlot  // Regs[A] = slot B (stage-local write, else latched var, else typed zero)
	OpStoreLoc  // stage-local write of slot A from Regs[B]
	OpStorePend // latched (next-stage) write of slot A from Regs[B]
	OpLoadVol   // Regs[A] = volatile register B
	OpLoadEArg  // Regs[A] = canonical except-arg B (1'0 when unbound)
	OpLoadLef   // Regs[A] = lef as 1-bit value
	OpLoadGef   // Regs[A] = Gefs[B] as 1-bit value (B<0: the firing pipe)

	// Reg-reg ALU: Regs[A] = Regs[B] op Regs[C].
	OpAdd
	OpSub
	OpMul
	OpDivU
	OpRemU
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShrU
	OpEq
	OpNe
	OpLtU
	OpLeU
	OpGtU
	OpGeU
	OpLAnd
	OpLOr
	OpLtS
	OpLeS
	OpGtS
	OpGeS
	OpShrS
	OpDivS
	OpRemS
	OpMulFull

	// Immediate ALU: Regs[A] = Regs[B] op scalar(Imm, C) — C carries the
	// width plus the immAdapt flag. RSubI computes imm - reg (the one
	// non-commutative, non-mirrorable case; const-left comparisons are
	// emitted mirrored instead).
	OpAddI
	OpSubI
	OpRSubI
	OpMulI
	OpAndI
	OpOrI
	OpXorI
	OpShlI
	OpShrUI
	OpEqI
	OpNeI
	OpLtUI
	OpLeUI
	OpGtUI
	OpGeUI
	OpDivUI
	OpRemUI

	// Generic binary fallback for the rare shapes without a fast form
	// (e.g. an unsized constant dividend): Regs[A] = Regs[B] op Regs[C]
	// with Imm = reg-reg opcode | binAdaptL | binAdaptR; the adaptation
	// flags apply the unsized-literal width rule at run time.
	OpBinA

	// Unary: Regs[A] = op Regs[B].
	OpNotL // logical not (1-bit)
	OpNotB // bitwise complement
	OpNegV // two's-complement negate

	// Structural.
	OpSliceI   // Regs[A] = Regs[B].Slice(C>>7, C&0x7f)
	OpSliceD   // Regs[A] = Regs[B].Slice(Regs[C], Regs[Imm]) — dynamic bounds
	OpZeroExtI // Regs[A] = Regs[B].ZeroExt(C)
	OpSignExtI // Regs[A] = Regs[B].SignExt(C)
	OpZeroExtD // Regs[A] = Regs[B].ZeroExt(Regs[C]) — dynamic width
	OpSignExtD // Regs[A] = Regs[B].SignExt(Regs[C])
	OpField    // Regs[A] = Regs[B].field #C of layout Imm>>32 (name Strs[uint32(Imm)]; C<0 = name scan)
	OpCatPush  // push Regs[B].Val onto the cat/extern arena
	OpCatDo    // Regs[A] = val.Cat of the top C arena entries (popped)

	// Extern calls.
	OpExternPre  // faults-only: maybe stall at extern site Imm (before args)
	OpExtPush    // push val.New(Regs[B].Uint(), C) onto the arena
	OpExternCall // Regs[A] = Externs[B](top C arena entries) (popped)

	// In-language function calls.
	OpCallFunc // Regs[A] = Funcs[B](args at Regs[C:...]); Imm = caller window size
	OpFRet     // function return: FRet = scalar(Regs[B].Uint(), width C)

	// Memory.
	OpMemReadP // Regs[A] = plain mem C [Regs[B] % depth Imm]
	OpMemReadL // Regs[A] = locked mem C [Regs[B] % depth Imm]; stalls until ReadReady
	OpMemWrite // locked mem C [Regs[A] % depth] = scalar(Regs[B], width); Imm = depth | width<<48

	// Locks: addr = Regs[A] % depth Imm, or the whole lock when A < 0;
	// B != 0 selects write mode.
	OpLockAcq   // reserve + require ownership (stall on either)
	OpLockRes   // reserve (stall when not reservable)
	OpLockBlk   // stall until owned
	OpLockRel   // release
	OpLockAbort // abort lock C (immediate, like the statement)

	// Spawns (sub-pipeline calls).
	OpStallIfFull  // stall when pipe A's entry queue + pending spawns >= EntryCap
	OpSpawnPush    // push val.New(Regs[B].Uint(), C) onto the spawn-arg arena
	OpSpawn        // spawn effect into pipe A: B args, result var C (Hooks.ResultVar index, <0 none), Imm bit0 = cross-pipe
	OpSpecSpawnFin // consume pipe B's next spec handle into slot A, spawn effect with C args
	OpSpecCheck    // resolve/die on the instruction's speculation status (pending: keep going)
	OpSpecBarrier  // like OpSpecCheck but stall while pending

	// Exception bookkeeping.
	OpSetLEF  // set the local exception flag
	OpSetEArg // except-arg A = scalar(Regs[B].Uint(), width C) (copied once per firing, room for Imm)

	// Deferred effects.
	OpEffVol        // volatile A = scalar(Regs[B].Uint(), width C)
	OpEffSetGEF     // pipe A's gef = Imm != 0
	OpEffPipeClear  // clear pipe A
	OpEffSpecClear  // clear pipe A's spec table
	OpEffVerify     // verify handle Regs[B] in pipe A
	OpEffInvalidate // invalidate handle Regs[B] in pipe A
	OpEffReturn     // return Regs[B] to the caller instruction
)

// Seg is a half-open instruction range in Program.Code.
type Seg struct {
	Off, End int32
}

// StageProg is the compiled form of one stage node. Fork stages (the
// lef branch point of a translated pipeline) carry the commit- and
// exception-arm stage-0 code as separate segments selected by the lef
// value after Main runs.
type StageProg struct {
	Main   Seg
	Commit Seg
	Exc    Seg
	// NRegs is the stage's register window size (pinned slot registers
	// plus temporaries, across all three segments).
	NRegs int
	// NeedsTxn reports whether any execution order can stall at or after
	// a lock-journal mutation, requiring the firing to run inside lock
	// transactions. When false the host may skip Begin/Commit entirely:
	// every stall happens before the first mutation, so there is nothing
	// to roll back. NeedsTxnFaults is the same property when extern
	// fault-delay sites are live (they add stall points).
	NeedsTxn       bool
	NeedsTxnFaults bool
	// Writes lists, once each, the slots the stage's code may write
	// (OpStoreLoc, OpStorePend, OpSpecSpawnFin): the only slots a
	// firing's write-back has to visit.
	Writes []int32
}

// FuncProg is the compiled form of an in-language combinational
// function. Calls run Seg in a fresh register window: params occupy
// window slots [0,NParams), assigned locals [NParams,NVars) (zeroed on
// entry), temporaries above.
type FuncProg struct {
	Seg     Seg
	NRegs   int
	NVars   int
	NParams int
	ParamW  []int
	ResultW int
	// CanStall reports whether the body contains any stall-capable
	// instruction (transitively through calls); used by the txn-need
	// analysis. CanStallFaults additionally counts extern sites.
	CanStall       bool
	CanStallFaults bool
	// mutates reports whether the body can mutate lock state (the
	// checker forbids it; tracked for analysis soundness anyway).
	mutates bool
}

// Program is one design's complete bytecode image: a single flat code
// array shared by every stage and function segment, plus the per-segment
// directory. A Program is immutable after compilation and safe to share
// across any number of machines and goroutines.
type Program struct {
	Code   []Instr
	Stages []StageProg
	Funcs  []FuncProg
	Strs   []string
	Pool   []V // record constants (OpConstV)
	// Layouts are the record layouts (sorted field names) OpField
	// indices were resolved against; OpField's Imm>>32 is a layout's
	// index plus one, 0 when the index is unknown.
	Layouts [][]string
	// MaxStageRegs sizes a machine's initial register file: the widest
	// stage window (function calls grow the file on demand).
	MaxStageRegs int
}
