// The bytecode dispatch loop. One Env per machine holds the
// struct-of-arrays state a firing touches; the hot arenas (stage-local
// slot writes, spawn args, extern scratch) are shared with the host
// simulator so its write-back and effect machinery applies unchanged.
//
// Stall/death discipline: the loop aborts instantly at the instruction
// that stalls or dies. This is equivalent to the closure executor's
// poisoned-flag threading because everything the closure executor still
// runs after a stall is pure evaluation (see the package comment).
package vm

import (
	"fmt"

	"xpdl/internal/locks"
	"xpdl/internal/val"
)

// Env is the mutable state one machine exposes to the dispatch loop.
// The host sets the per-firing fields (Vars..SpecStatus) before Exec and
// reads the result flags (Stalled, Died, WroteAny, Lef, EArgs) after.
// Slices documented as shared alias the host's arenas; append-growing
// ones (SpawnArgs, SpawnDirty, ExtArgs) must be copied back by the host
// after Exec since append may reallocate.
type Env struct {
	// Regs is the register file. Stage code runs in window [0,NRegs);
	// in-language function calls stack windows above the caller's.
	Regs []V

	// Stage-local and latched (next-stage) slot writes, shared with the
	// host's firing scratch: a slot is live when its epoch stamp equals
	// Epoch.
	Loc    []V
	LocEp  []uint32
	Pend   []V
	PendEp []uint32
	Epoch  uint32

	Vars  []SlotVal   // latched vars of the firing instruction (shared)
	Zero  []V         // typed zeroes of the firing pipe's slots (shared)
	EArgs []val.Value // canonical except args (copy-on-write on SetEArg)

	Gefs []bool      // per-pipe global exception flags (shared)
	Vols []val.Value // volatile registers (shared)

	Mems   []locks.Lock   // locked memories, memory-list order (shared)
	Plains []*locks.Plain // plain memories, declaration order (shared)

	Externs []ExternFunc
	Faults  FaultInjector // nil when fault injection is off
	Host    Host

	SpawnCnt   []int       // per-pipe spawns this firing (shared)
	SpawnDirty []int       // pipes with non-zero SpawnCnt (shared)
	SpawnArgs  []val.Value // spawn argument arena (shared)
	ExtArgs    []val.Value // extern/cat scratch arena (shared)
	Effects    []Effect    // deferred mutations, translated by the host

	IID      uint64
	Cycle    int
	EntryCap int
	PipeIdx  int // the firing pipe (for gef reads from shared function code)

	Lef        bool
	Spec       bool
	SpecStatus uint8

	Stalled  bool
	Died     bool
	WroteAny bool
	// TookExc latches the lef value that selected the fork arm (the host
	// picks the continuation stage from it; the arm itself may overwrite
	// Lef afterwards).
	TookExc bool

	// FRet carries an in-language function's return value between the
	// callee's window and the call site.
	FRet V

	// eargsOwned reports that EArgs is this firing's private copy, so
	// further OpSetEArgs of the firing write it in place.
	eargsOwned bool
	// layoutNames[l] is the first element of the names slice of a record
	// found to have Program layout l, so a record sharing that slice is
	// recognized by one pointer compare (see fieldLayout).
	layoutNames []*string
}

// Exec runs one stage: the Main segment, then — when the stage is a
// translated pipeline's fork point — the commit or exception arm
// selected by the lef flag Main left behind. Outcomes are reported via
// the Env flags.
func (e *Env) Exec(p *Program, sp *StageProg) {
	extBase := len(e.ExtArgs)
	e.eargsOwned = false
	e.runSeg(p, sp.Main, 0)
	if !e.Stalled && !e.Died {
		e.TookExc = e.Lef
		if e.Lef {
			e.runSeg(p, sp.Exc, 0)
		} else {
			e.runSeg(p, sp.Commit, 0)
		}
	}
	// A stall mid-extern/cat aborts between pushes; unwind the scratch
	// arena like the closure executor's per-site unwinding does.
	e.ExtArgs = e.ExtArgs[:extBase]
}

// immOperand materializes an immediate-ALU operand: width in C's low
// bits, adapted to the register operand's width when the immAdapt flag
// is set and the widths differ (the unsized-literal rule).
func immOperand(i Instr, l val.Value) val.Value {
	w := int(i.C) & 0x7f
	if i.C&immAdapt != 0 {
		if lw := l.Width(); lw != w {
			w = lw
		}
	}
	return val.New(i.Imm, w)
}

// runSeg executes one segment in the register window at base. It returns
// true when an OpFRet executed (function return); stalls and deaths are
// reported via the Env flags and abort the whole call stack.
func (e *Env) runSeg(p *Program, seg Seg, base int) bool {
	code := p.Code
	regs := e.Regs
	for pc := seg.Off; pc < seg.End; {
		i := code[pc]
		pc++
		switch i.Op {
		case OpJmp:
			pc = i.A
		case OpJz:
			if !regs[base+int(i.B)].Val.IsTrue() {
				pc = i.A
			}
		case OpJnz:
			if regs[base+int(i.B)].Val.IsTrue() {
				pc = i.A
			}
		case OpStallGef:
			if e.Gefs[i.A] {
				e.Stalled = true
				return false
			}
		case OpPanic:
			panic(p.Strs[i.Imm])

		case OpConst:
			regs[base+int(i.A)] = V{Val: val.New(i.Imm, int(i.C))}
		case OpConstV:
			regs[base+int(i.A)] = p.Pool[i.Imm]
		case OpMove:
			regs[base+int(i.A)] = regs[base+int(i.B)]
		case OpLoadSlot:
			s := int(i.B)
			var v V
			if e.LocEp[s] == e.Epoch {
				v = e.Loc[s]
			} else if sv := e.Vars[s]; sv.OK {
				v = sv.V
			} else {
				v = e.Zero[s]
			}
			regs[base+int(i.A)] = v
		case OpStoreLoc:
			s := int(i.A)
			e.Loc[s] = regs[base+int(i.B)]
			e.LocEp[s] = e.Epoch
			e.WroteAny = true
		case OpStorePend:
			s := int(i.A)
			e.Pend[s] = regs[base+int(i.B)]
			e.PendEp[s] = e.Epoch
			e.WroteAny = true
		case OpLoadVol:
			regs[base+int(i.A)] = V{Val: e.Vols[i.B]}
		case OpLoadEArg:
			idx := int(i.B)
			if idx < len(e.EArgs) {
				regs[base+int(i.A)] = V{Val: e.EArgs[idx]}
			} else {
				regs[base+int(i.A)] = V{Val: val.New(0, 1)}
			}
		case OpLoadLef:
			regs[base+int(i.A)] = V{Val: val.Bool(e.Lef)}
		case OpLoadGef:
			pi := int(i.B)
			if pi < 0 {
				pi = e.PipeIdx
			}
			regs[base+int(i.A)] = V{Val: val.Bool(e.Gefs[pi])}

		case OpAdd:
			regs[base+int(i.A)] = V{Val: regs[base+int(i.B)].Val.Add(regs[base+int(i.C)].Val)}
		case OpSub:
			regs[base+int(i.A)] = V{Val: regs[base+int(i.B)].Val.Sub(regs[base+int(i.C)].Val)}
		case OpMul:
			regs[base+int(i.A)] = V{Val: regs[base+int(i.B)].Val.Mul(regs[base+int(i.C)].Val)}
		case OpDivU:
			regs[base+int(i.A)] = V{Val: regs[base+int(i.B)].Val.DivU(regs[base+int(i.C)].Val)}
		case OpRemU:
			regs[base+int(i.A)] = V{Val: regs[base+int(i.B)].Val.RemU(regs[base+int(i.C)].Val)}
		case OpAnd:
			regs[base+int(i.A)] = V{Val: regs[base+int(i.B)].Val.And(regs[base+int(i.C)].Val)}
		case OpOr:
			regs[base+int(i.A)] = V{Val: regs[base+int(i.B)].Val.Or(regs[base+int(i.C)].Val)}
		case OpXor:
			regs[base+int(i.A)] = V{Val: regs[base+int(i.B)].Val.Xor(regs[base+int(i.C)].Val)}
		case OpShl:
			regs[base+int(i.A)] = V{Val: regs[base+int(i.B)].Val.Shl(regs[base+int(i.C)].Val)}
		case OpShrU:
			regs[base+int(i.A)] = V{Val: regs[base+int(i.B)].Val.ShrU(regs[base+int(i.C)].Val)}
		case OpEq:
			regs[base+int(i.A)] = V{Val: regs[base+int(i.B)].Val.EqV(regs[base+int(i.C)].Val)}
		case OpNe:
			regs[base+int(i.A)] = V{Val: regs[base+int(i.B)].Val.NeV(regs[base+int(i.C)].Val)}
		case OpLtU:
			regs[base+int(i.A)] = V{Val: regs[base+int(i.B)].Val.LtU(regs[base+int(i.C)].Val)}
		case OpLeU:
			regs[base+int(i.A)] = V{Val: regs[base+int(i.B)].Val.LeU(regs[base+int(i.C)].Val)}
		case OpGtU:
			regs[base+int(i.A)] = V{Val: regs[base+int(i.B)].Val.GtU(regs[base+int(i.C)].Val)}
		case OpGeU:
			regs[base+int(i.A)] = V{Val: regs[base+int(i.B)].Val.GeU(regs[base+int(i.C)].Val)}
		case OpLAnd:
			regs[base+int(i.A)] = V{Val: val.Bool(regs[base+int(i.B)].Val.IsTrue() && regs[base+int(i.C)].Val.IsTrue())}
		case OpLOr:
			regs[base+int(i.A)] = V{Val: val.Bool(regs[base+int(i.B)].Val.IsTrue() || regs[base+int(i.C)].Val.IsTrue())}
		case OpLtS:
			regs[base+int(i.A)] = V{Val: regs[base+int(i.B)].Val.LtS(regs[base+int(i.C)].Val)}
		case OpLeS:
			regs[base+int(i.A)] = V{Val: regs[base+int(i.B)].Val.LeS(regs[base+int(i.C)].Val)}
		case OpGtS:
			regs[base+int(i.A)] = V{Val: regs[base+int(i.B)].Val.GtS(regs[base+int(i.C)].Val)}
		case OpGeS:
			regs[base+int(i.A)] = V{Val: regs[base+int(i.B)].Val.GeS(regs[base+int(i.C)].Val)}
		case OpShrS:
			regs[base+int(i.A)] = V{Val: regs[base+int(i.B)].Val.ShrS(regs[base+int(i.C)].Val)}
		case OpDivS:
			regs[base+int(i.A)] = V{Val: regs[base+int(i.B)].Val.DivS(regs[base+int(i.C)].Val)}
		case OpRemS:
			regs[base+int(i.A)] = V{Val: regs[base+int(i.B)].Val.RemS(regs[base+int(i.C)].Val)}
		case OpMulFull:
			regs[base+int(i.A)] = V{Val: regs[base+int(i.B)].Val.MulFull(regs[base+int(i.C)].Val)}

		case OpAddI:
			l := regs[base+int(i.B)].Val
			regs[base+int(i.A)] = V{Val: l.Add(immOperand(i, l))}
		case OpSubI:
			l := regs[base+int(i.B)].Val
			regs[base+int(i.A)] = V{Val: l.Sub(immOperand(i, l))}
		case OpRSubI:
			l := regs[base+int(i.B)].Val
			regs[base+int(i.A)] = V{Val: immOperand(i, l).Sub(l)}
		case OpMulI:
			l := regs[base+int(i.B)].Val
			regs[base+int(i.A)] = V{Val: l.Mul(immOperand(i, l))}
		case OpAndI:
			l := regs[base+int(i.B)].Val
			regs[base+int(i.A)] = V{Val: l.And(immOperand(i, l))}
		case OpOrI:
			l := regs[base+int(i.B)].Val
			regs[base+int(i.A)] = V{Val: l.Or(immOperand(i, l))}
		case OpXorI:
			l := regs[base+int(i.B)].Val
			regs[base+int(i.A)] = V{Val: l.Xor(immOperand(i, l))}
		case OpShlI:
			l := regs[base+int(i.B)].Val
			regs[base+int(i.A)] = V{Val: l.Shl(immOperand(i, l))}
		case OpShrUI:
			l := regs[base+int(i.B)].Val
			regs[base+int(i.A)] = V{Val: l.ShrU(immOperand(i, l))}
		case OpEqI:
			l := regs[base+int(i.B)].Val
			regs[base+int(i.A)] = V{Val: l.EqV(immOperand(i, l))}
		case OpNeI:
			l := regs[base+int(i.B)].Val
			regs[base+int(i.A)] = V{Val: l.NeV(immOperand(i, l))}
		case OpLtUI:
			l := regs[base+int(i.B)].Val
			regs[base+int(i.A)] = V{Val: l.LtU(immOperand(i, l))}
		case OpLeUI:
			l := regs[base+int(i.B)].Val
			regs[base+int(i.A)] = V{Val: l.LeU(immOperand(i, l))}
		case OpGtUI:
			l := regs[base+int(i.B)].Val
			regs[base+int(i.A)] = V{Val: l.GtU(immOperand(i, l))}
		case OpGeUI:
			l := regs[base+int(i.B)].Val
			regs[base+int(i.A)] = V{Val: l.GeU(immOperand(i, l))}
		case OpDivUI:
			l := regs[base+int(i.B)].Val
			regs[base+int(i.A)] = V{Val: l.DivU(immOperand(i, l))}
		case OpRemUI:
			l := regs[base+int(i.B)].Val
			regs[base+int(i.A)] = V{Val: l.RemU(immOperand(i, l))}

		case OpBinA:
			lv := regs[base+int(i.B)].Val
			rv := regs[base+int(i.C)].Val
			if lv.Width() != rv.Width() {
				if i.Imm&binAdaptL != 0 {
					lv = val.New(lv.Uint(), rv.Width())
				} else if i.Imm&binAdaptR != 0 {
					rv = val.New(rv.Uint(), lv.Width())
				}
			}
			regs[base+int(i.A)] = V{Val: binApply(uint8(i.Imm), lv, rv)}

		case OpNotL:
			regs[base+int(i.A)] = V{Val: val.Bool(!regs[base+int(i.B)].Val.IsTrue())}
		case OpNotB:
			regs[base+int(i.A)] = V{Val: regs[base+int(i.B)].Val.Not()}
		case OpNegV:
			regs[base+int(i.A)] = V{Val: regs[base+int(i.B)].Val.Neg()}

		case OpSliceI:
			regs[base+int(i.A)] = V{Val: regs[base+int(i.B)].Val.Slice(int(i.C)>>7, int(i.C)&0x7f)}
		case OpSliceD:
			h := int(regs[base+int(i.C)].Uint())
			l := int(regs[base+int(i.Imm)].Uint())
			regs[base+int(i.A)] = V{Val: regs[base+int(i.B)].Val.Slice(h, l)}
		case OpZeroExtI:
			regs[base+int(i.A)] = V{Val: regs[base+int(i.B)].Val.ZeroExt(int(i.C))}
		case OpSignExtI:
			regs[base+int(i.A)] = V{Val: regs[base+int(i.B)].Val.SignExt(int(i.C))}
		case OpZeroExtD:
			w := int(regs[base+int(i.C)].Uint())
			regs[base+int(i.A)] = V{Val: regs[base+int(i.B)].Val.ZeroExt(w)}
		case OpSignExtD:
			w := int(regs[base+int(i.C)].Uint())
			regs[base+int(i.A)] = V{Val: regs[base+int(i.B)].Val.SignExt(w)}
		case OpField:
			x := regs[base+int(i.B)]
			if x.Rec != nil && e.fieldLayout(p, x.Rec, i.Imm>>32) {
				regs[base+int(i.A)] = V{Val: x.Rec.Vals[i.C]}
			} else {
				regs[base+int(i.A)] = V{Val: fieldByName(p, i, x)}
			}
		case OpCatPush:
			e.ExtArgs = append(e.ExtArgs, regs[base+int(i.B)].Val)
		case OpCatDo:
			k := len(e.ExtArgs) - int(i.C)
			r := val.Cat(e.ExtArgs[k:]...)
			e.ExtArgs = e.ExtArgs[:k]
			regs[base+int(i.A)] = V{Val: r}

		case OpExternPre:
			if e.Faults != nil && e.Faults.DelayExtern(e.Cycle, e.IID, i.Imm) {
				e.Stalled = true
				return false
			}
		case OpExtPush:
			e.ExtArgs = append(e.ExtArgs, val.New(regs[base+int(i.B)].Uint(), int(i.C)))
		case OpExternCall:
			k := len(e.ExtArgs) - int(i.C)
			end := len(e.ExtArgs)
			r := e.Externs[i.B](e.ExtArgs[k:end:end])
			e.ExtArgs = e.ExtArgs[:k]
			regs[base+int(i.A)] = r

		case OpCallFunc:
			fp := &p.Funcs[i.B]
			nb := base + int(i.Imm)
			if need := nb + fp.NRegs; need > len(e.Regs) {
				grown := make([]V, need+64)
				copy(grown, e.Regs)
				e.Regs = grown
				regs = grown
			}
			ab := base + int(i.C)
			for k := 0; k < fp.NParams; k++ {
				regs[nb+k] = V{Val: val.New(regs[ab+k].Uint(), fp.ParamW[k])}
			}
			for k := fp.NParams; k < fp.NVars; k++ {
				regs[nb+k] = V{}
			}
			returned := e.runSeg(p, fp.Seg, nb)
			if e.Stalled || e.Died {
				return false
			}
			if !returned {
				// Conditional fallthrough: the declared result's zero value.
				e.FRet = V{Val: val.New(0, fp.ResultW)}
			}
			regs = e.Regs // nested calls may have grown the file
			regs[base+int(i.A)] = e.FRet
		case OpFRet:
			e.FRet = V{Val: val.New(regs[base+int(i.B)].Uint(), int(i.C))}
			return true

		case OpMemReadP:
			a := regs[base+int(i.B)].Uint() % i.Imm
			regs[base+int(i.A)] = V{Val: e.Plains[i.C].Peek(a)}
		case OpMemReadL:
			a := regs[base+int(i.B)].Uint() % i.Imm
			l := e.Mems[i.C]
			if !l.ReadReady(e.IID, a) {
				e.Stalled = true
				return false
			}
			regs[base+int(i.A)] = V{Val: l.Read(e.IID, a)}
		case OpMemWrite:
			depth := i.Imm & (1<<48 - 1)
			w := int(i.Imm >> 48)
			a := regs[base+int(i.A)].Uint() % depth
			e.Mems[i.C].Write(e.IID, a, val.New(regs[base+int(i.B)].Uint(), w))

		case OpLockAcq:
			addr := locks.Whole
			if i.A >= 0 {
				addr = regs[base+int(i.A)].Uint() % i.Imm
			}
			wr := i.B != 0
			l := e.Mems[i.C]
			if !l.CanReserve(e.IID, addr, wr) {
				e.Stalled = true
				return false
			}
			l.Reserve(e.IID, addr, wr)
			if !l.Owns(e.IID, addr, wr) {
				e.Stalled = true
				return false
			}
		case OpLockRes:
			addr := locks.Whole
			if i.A >= 0 {
				addr = regs[base+int(i.A)].Uint() % i.Imm
			}
			wr := i.B != 0
			l := e.Mems[i.C]
			if !l.CanReserve(e.IID, addr, wr) {
				e.Stalled = true
				return false
			}
			l.Reserve(e.IID, addr, wr)
		case OpLockBlk:
			addr := locks.Whole
			if i.A >= 0 {
				addr = regs[base+int(i.A)].Uint() % i.Imm
			}
			if !e.Mems[i.C].Owns(e.IID, addr, i.B != 0) {
				e.Stalled = true
				return false
			}
		case OpLockRel:
			addr := locks.Whole
			if i.A >= 0 {
				addr = regs[base+int(i.A)].Uint() % i.Imm
			}
			e.Mems[i.C].Release(e.IID, addr)
		case OpLockAbort:
			e.Mems[i.C].Abort()

		case OpStallIfFull:
			pi := int(i.A)
			if e.Host.QueueLen(pi)+e.SpawnCnt[pi] >= e.EntryCap {
				e.Stalled = true
				return false
			}
		case OpSpawnPush:
			e.SpawnArgs = append(e.SpawnArgs, val.New(regs[base+int(i.B)].Uint(), int(i.C)))
		case OpSpawn:
			pi := int(i.A)
			if e.SpawnCnt[pi] == 0 {
				e.SpawnDirty = append(e.SpawnDirty, pi)
			}
			e.SpawnCnt[pi]++
			n := int32(i.B)
			e.Effects = append(e.Effects, Effect{
				Kind: EffSpawn, A: i.A, Flag: i.Imm&1 != 0,
				ArgOff: int32(len(e.SpawnArgs)) - n, ArgN: n, Str: int32(i.C),
			})
		case OpSpecSpawnFin:
			pi := int(i.B)
			h := e.Host.NextSpecHandle(pi)
			s := int(i.A)
			e.Loc[s] = V{Val: val.New(h, 48)}
			e.LocEp[s] = e.Epoch
			e.WroteAny = true
			if e.SpawnCnt[pi] == 0 {
				e.SpawnDirty = append(e.SpawnDirty, pi)
			}
			e.SpawnCnt[pi]++
			n := int32(i.C)
			e.Effects = append(e.Effects, Effect{
				Kind: EffSpecSpawn, A: int32(pi),
				ArgOff: int32(len(e.SpawnArgs)) - n, ArgN: n, H: h,
			})
		case OpSpecCheck:
			if e.Spec {
				switch e.SpecStatus {
				case SpecVerified:
					e.Effects = append(e.Effects, Effect{Kind: EffSpecResolve, A: i.A})
				case SpecInvalid:
					e.Died = true
					return false
				}
			}
		case OpSpecBarrier:
			if e.Spec {
				switch e.SpecStatus {
				case SpecPending:
					e.Stalled = true
					return false
				case SpecVerified:
					e.Effects = append(e.Effects, Effect{Kind: EffSpecResolve, A: i.A})
				case SpecInvalid:
					e.Died = true
					return false
				}
			}

		case OpSetLEF:
			e.Lef = true
		case OpSetEArg:
			v := val.New(regs[base+int(i.B)].Uint(), int(i.C))
			idx := int(i.A)
			if !e.eargsOwned {
				// The instruction's EArgs may be shared with the
				// retirement trace: copy them once per firing.
				n := max(len(e.EArgs), idx+1)
				cp := make([]val.Value, n, max(n, int(i.Imm)))
				copy(cp, e.EArgs)
				e.EArgs = cp
				e.eargsOwned = true
			}
			for len(e.EArgs) <= idx {
				e.EArgs = append(e.EArgs, val.Value{})
			}
			e.EArgs[idx] = v

		case OpEffVol:
			e.Effects = append(e.Effects, Effect{
				Kind: EffVolWrite, A: i.A,
				Val: val.New(regs[base+int(i.B)].Uint(), int(i.C)),
			})
		case OpEffSetGEF:
			e.Effects = append(e.Effects, Effect{Kind: EffSetGEF, A: i.A, Flag: i.Imm != 0})
		case OpEffPipeClear:
			e.Effects = append(e.Effects, Effect{Kind: EffPipeClear, A: i.A})
		case OpEffSpecClear:
			e.Effects = append(e.Effects, Effect{Kind: EffSpecClear, A: i.A})
		case OpEffVerify:
			e.Effects = append(e.Effects, Effect{Kind: EffVerify, A: i.A, H: regs[base+int(i.B)].Uint()})
		case OpEffInvalidate:
			e.Effects = append(e.Effects, Effect{Kind: EffInvalidate, A: i.A, H: regs[base+int(i.B)].Uint()})
		case OpEffReturn:
			e.Effects = append(e.Effects, Effect{Kind: EffReturn, V: regs[base+int(i.B)]})

		default:
			panic(fmt.Sprintf("vm: invalid opcode %d at pc %d", i.Op, pc-1))
		}
	}
	return false
}

// fieldLayout reports whether rec's names slice is the one this Env
// has found to hold the Program's record layout tag (OpField's
// Imm>>32; 0 = unknown), so the field index resolved at compile time is
// valid for it. Records are immutable and one names slice serves every
// record of a layout (sim.SortedRecord), so the first record seen with
// a layout is compared name by name and its names slice remembered;
// after that the test is a pointer and a length compare. A record with
// another names slice takes fieldByName, the by-name path.
func (e *Env) fieldLayout(p *Program, rec *Rec, tag uint64) bool {
	if tag == 0 || len(rec.Names) == 0 {
		return false
	}
	l := int(tag - 1)
	lay := p.Layouts[l]
	if len(rec.Names) != len(lay) {
		return false
	}
	if l < len(e.layoutNames) && e.layoutNames[l] != nil {
		return e.layoutNames[l] == &rec.Names[0]
	}
	for i, n := range rec.Names {
		if n != lay[i] {
			return false
		}
	}
	for len(e.layoutNames) <= l {
		e.layoutNames = append(e.layoutNames, nil)
	}
	e.layoutNames[l] = &rec.Names[0]
	return true
}

// fieldByName is OpField for a record of another layout, or a scalar:
// the index still serves when it names the field, else a search by
// name, and a panic when the field does not exist.
func fieldByName(p *Program, i Instr, x V) val.Value {
	name := p.Strs[uint32(i.Imm)]
	if x.Rec == nil {
		panic(fmt.Sprintf("sim: field access .%s on scalar", name))
	}
	if idx := int(i.C); idx >= 0 && idx < len(x.Rec.Names) && x.Rec.Names[idx] == name {
		return x.Rec.Vals[idx]
	}
	fv, ok := x.Rec.Field(name)
	if !ok {
		panic(fmt.Sprintf("sim: record has no field %q", name))
	}
	return fv
}

// binApply dispatches a reg-reg ALU opcode on already-adapted operands;
// it backs OpBinA's generic path.
func binApply(op uint8, l, r val.Value) val.Value {
	switch op {
	case OpAdd:
		return l.Add(r)
	case OpSub:
		return l.Sub(r)
	case OpMul:
		return l.Mul(r)
	case OpDivU:
		return l.DivU(r)
	case OpRemU:
		return l.RemU(r)
	case OpAnd:
		return l.And(r)
	case OpOr:
		return l.Or(r)
	case OpXor:
		return l.Xor(r)
	case OpShl:
		return l.Shl(r)
	case OpShrU:
		return l.ShrU(r)
	case OpEq:
		return l.EqV(r)
	case OpNe:
		return l.NeV(r)
	case OpLtU:
		return l.LtU(r)
	case OpLeU:
		return l.LeU(r)
	case OpGtU:
		return l.GtU(r)
	case OpGeU:
		return l.GeU(r)
	case OpLAnd:
		return val.Bool(l.IsTrue() && r.IsTrue())
	case OpLOr:
		return val.Bool(l.IsTrue() || r.IsTrue())
	}
	panic(fmt.Sprintf("vm: bad OpBinA sub-opcode %d", op))
}
