// The vm engine's instruction set (Config.Engine "vm"). The bytecode
// compiler (vmcompile.go) lowers every stage's statement list one level
// further than the closure engine: to a flat slice of fixed-size
// instructions with a dense opcode set, which the threaded dispatch
// loop (vmexec.go) runs over the machine's struct-of-arrays state —
// registers, instruction slots, volatile registers, memories, spawn and
// extern arenas, all contiguous slices indexed by ids fixed at compile
// time. One program is a pure function of a design's plan, so any
// number of machines — chaos-seed runs, bveq points, cosim replicas —
// share a single decoded image and differ only in state.
//
// Only the stage body is the vm's own: it runs inside the one firing
// protocol (Machine.fire) and reports through the one firing record,
// like every engine.
//
// The vm must stay observably equivalent to the AST interpreter and
// the closure engine, which remain the differential oracles.
// Equivalence relies on one proven property: after a stall or death,
// the closure engine only performs pure evaluation (per-argument stall
// bails stop extern invocation, and lock/memory mutation sites all
// check the stall flag first), so the dispatch loop may abort instantly
// at the stalling instruction instead of threading a poisoned flag
// through the rest of the stage.
package sim

// instr is one fixed-size bytecode instruction. Operand roles per opcode
// are documented with the op* constants; by convention a is the
// destination register (or a jump target / index), b and c are source
// registers or small immediates, and imm carries wide immediates.
// Register operands are window-relative: stage code runs at window base
// 0, in-language function calls push a window above the caller's.
type instr struct {
	imm uint64
	a   int32
	b   int16
	c   int16
	op  uint8
}

// immAdapt is bit 8 of an immediate-form ALU instruction's c operand,
// whose low 7 bits are the immediate's width: "adapt the immediate to
// the register operand's width when they differ" (the compile-time
// decision of check.Info.AdaptSides).
const immAdapt = 1 << 8

// opBinA imm flags: the low byte is the reg-reg opcode to apply.
const (
	binAdaptL = 1 << 8
	binAdaptR = 1 << 9
)

// Opcodes. Unless noted, value semantics are exactly those of
// internal/val and results are scalar Vs.
const (
	opInvalid uint8 = iota

	// Control.
	opJmp      // jump to a
	opJz       // if !regs[b].IsTrue jump to a
	opJnz      // if regs[b].IsTrue jump to a
	opStallGef // if gefs[a] stall (gef guard)
	opPanic    // panic with message strs[imm]

	// Moves and loads.
	opConst     // regs[a] = scalar(imm, width c)
	opConstV    // regs[a] = pool[imm] (record constants)
	opMove      // regs[a] = regs[b]
	opLoadSlot  // regs[a] = slot b of the firing instruction (its typed zero when unassigned)
	opStoreLoc  // stage-local write of slot a from regs[b]
	opStorePend // latched (next-stage) write of slot a from regs[b]
	opLoadVol   // regs[a] = volatile register b
	opLoadEArg  // regs[a] = canonical except-arg b (1'0 when unbound)
	opLoadLef   // regs[a] = lef as 1-bit value
	opLoadGef   // regs[a] = gefs[b] as 1-bit value (b<0: the firing pipe)

	// Reg-reg ALU: regs[a] = regs[b] op regs[c].
	opAdd
	opSub
	opMul
	opDivU
	opRemU
	opAnd
	opOr
	opXor
	opShl
	opShrU
	opEq
	opNe
	opLtU
	opLeU
	opGtU
	opGeU
	opLAnd
	opLOr
	opLtS
	opLeS
	opGtS
	opGeS
	opShrS
	opDivS
	opRemS
	opMulFull

	// Immediate ALU: regs[a] = regs[b] op scalar(imm, c) — c carries the
	// width plus the immAdapt flag. RSubI computes imm - reg (the one
	// non-commutative, non-mirrorable case; const-left comparisons are
	// emitted mirrored instead).
	opAddI
	opSubI
	opRSubI
	opMulI
	opAndI
	opOrI
	opXorI
	opShlI
	opShrUI
	opEqI
	opNeI
	opLtUI
	opLeUI
	opGtUI
	opGeUI
	opDivUI
	opRemUI

	// Generic binary fallback for the rare shapes without a fast form
	// (e.g. an unsized constant dividend): regs[a] = regs[b] op regs[c]
	// with imm = reg-reg opcode | binAdaptL | binAdaptR; the adaptation
	// flags apply the unsized-literal width rule at run time.
	opBinA

	// Unary: regs[a] = op regs[b].
	opNotL // logical not (1-bit)
	opNotB // bitwise complement
	opNegV // two's-complement negate

	// Structural.
	opSliceI   // regs[a] = regs[b].Slice(c>>7, c&0x7f)
	opZeroExtI // regs[a] = regs[b].ZeroExt(c)
	opSignExtI // regs[a] = regs[b].SignExt(c)
	opField    // regs[a] = regs[b].field #c of Plan.layouts[imm>>32 - 1] (name strs[uint32(imm)]; imm>>32 == 0: search by name)
	opCatPush  // push regs[b].Val onto the cat/extern arena
	opCatDo    // regs[a] = val.Cat of the top c arena entries (popped)

	// Extern calls.
	opExternPre  // faults-only: maybe stall at extern site imm (before args)
	opExtPush    // push val.New(regs[b].Uint(), c) onto the arena
	opExternCall // regs[a] = externs[b](top c arena entries) (popped)

	// In-language function calls.
	opCallFunc // regs[a] = funcs[b](args at regs[c:...]); imm = caller window size
	opFRet     // function return: fret = scalar(regs[b].Uint(), width c)

	// Memory.
	opMemReadP // regs[a] = plain mem c [regs[b] % depth imm]
	opMemReadL // regs[a] = locked mem c [regs[b] % depth imm]; stalls until ReadReady
	opMemWrite // locked mem c [regs[a] % depth] = scalar(regs[b], width); imm = depth | width<<48

	// Locks: addr = regs[a] % depth imm, or the whole lock when a < 0;
	// b != 0 selects write mode.
	opLockAcq   // reserve + require ownership (stall on either)
	opLockRes   // reserve (stall when not reservable)
	opLockBlk   // stall until owned
	opLockRel   // release
	opLockAbort // abort lock c (immediate, like the statement)

	// Spawns (sub-pipeline calls).
	opStallIfFull  // stall when pipe a's entry queue + pending spawns >= EntryCap
	opSpawnPush    // push val.New(regs[b].Uint(), c) onto the spawn-arg arena
	opSpawn        // spawn effect into pipe a: b args, result var c (Plan.resultVars index, <0 none), imm bit0 = cross-pipe
	opSpecSpawnFin // consume pipe b's next spec handle into slot a, spawn effect with c args
	opSpecCheck    // resolve/die on the instruction's speculation status (pending: keep going)
	opSpecBarrier  // like opSpecCheck but stall while pending

	// Exception bookkeeping.
	opSetLEF  // set the local exception flag
	opSetEArg // except-arg a = scalar(regs[b].Uint(), width c) (storeEArg, room for imm)

	// Deferred effects.
	opEffVol        // volatile a = scalar(regs[b].Uint(), width c)
	opEffSetGEF     // pipe a's gef = imm != 0
	opEffPipeClear  // clear pipe a
	opEffSpecClear  // clear pipe a's spec table
	opEffVerify     // verify handle regs[b] in pipe a
	opEffInvalidate // invalidate handle regs[b] in pipe a
	opEffReturn     // return regs[b] to the caller instruction
)

// segment is a half-open instruction range in program.code.
type segment struct {
	off, end int32
}

// stageProg is the compiled form of one stage node. Fork stages (the
// lef branch point of a translated pipeline) carry the commit- and
// exception-arm stage-0 code as separate segments selected by the lef
// value after main runs.
type stageProg struct {
	main, commit, exc segment
	// nRegs is the stage's register window size (pinned slot registers
	// plus temporaries, across all three segments).
	nRegs int
	// needsTxn reports whether any execution order can stall at or after
	// a lock-journal mutation, requiring the firing to run inside lock
	// transactions. When false the firing may skip Begin/Commit
	// entirely: every stall happens before the first mutation, so there
	// is nothing to roll back. needsTxnFaults is the same property when
	// extern fault-delay sites are live (they add stall points).
	needsTxn       bool
	needsTxnFaults bool
}

// funcProg is the compiled form of an in-language combinational
// function. Calls run seg in a fresh register window: params occupy
// window slots [0,nParams), assigned locals [nParams,nVars) (zeroed on
// entry), temporaries above.
type funcProg struct {
	seg     segment
	nRegs   int
	nVars   int
	nParams int
	paramW  []int
	resultW int
	// canStall reports whether the body contains any stall-capable
	// instruction (transitively through calls); used by the txn-need
	// analysis. canStallFaults additionally counts extern sites.
	canStall       bool
	canStallFaults bool
	// mutates reports whether the body can mutate lock state (the
	// checker forbids it; tracked for analysis soundness anyway).
	mutates bool
}

// program is one design's complete bytecode image: a single flat code
// array shared by every stage and function segment, plus the
// per-segment directory. A program is immutable after compilation and
// safe to share across any number of machines and goroutines.
type program struct {
	code   []instr
	stages []stageProg // indexed by global stage id (nodePlan.gid)
	funcs  []funcProg  // sorted name order
	strs   []string    // panic messages and field names
	pool   []V         // record constants (opConstV)
	// maxStageRegs sizes a machine's initial register file: the widest
	// stage window (function calls grow the file on demand).
	maxStageRegs int
}
