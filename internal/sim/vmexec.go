// The vm engine's stage body: the bytecode dispatch loop. It runs
// inside the one firing protocol (Machine.fire) and works on the one
// firing record — its inputs, outcome flags, slot journal and arenas —
// and on the machine's own state, so the engines differ only in how a
// stage's statements execute, never in what a firing means.
//
// Stall/death discipline: the loop aborts instantly at the instruction
// that stalls or dies. This is equivalent to the closure engine's
// poisoned-flag threading because everything the closure engine still
// runs after a stall is pure evaluation (see vm.go).
package sim

import (
	"fmt"

	"xpdl/internal/locks"
	"xpdl/internal/val"
)

// lowerVM readies a machine for the vm engine: the plan's shared
// program, a register file for its widest stage, and what each stage
// node supplies to the firing protocol. Stages whose analysis proved no
// execution can stall at or after a lock mutation (stageProg.needsTxn)
// skip Begin/Commit entirely: a successful firing applies the same
// mutations either way, and a stalling one has nothing to roll back.
func (m *Machine) lowerVM() {
	p := m.plan.vmProgram()
	m.regs = make([]V, p.maxStageRegs+64)
	for _, ps := range m.pipeList {
		for _, n := range ps.nodes {
			sp := &p.stages[n.gid]
			n.txn = sp.needsTxn || (m.faults != nil && sp.needsTxnFaults)
		}
	}
}

// execVM runs one stage: the main segment, then — when the stage is a
// translated pipeline's fork point — the commit or exception arm
// selected by the lef flag main left behind.
func (f *firing) execVM() {
	p := f.m.plan.vmProg
	sp := &p.stages[f.node.gid]
	f.runSeg(p, sp.main, 0)
	if !f.stalled && !f.died {
		f.tookExc = f.lef
		if f.lef {
			f.runSeg(p, sp.exc, 0)
		} else {
			f.runSeg(p, sp.commit, 0)
		}
	}
}

// immOperand materializes an immediate-ALU operand: width in c's low
// bits, adapted to the register operand's width when the immAdapt flag
// is set and the widths differ (the unsized-literal rule).
func immOperand(i instr, l val.Value) val.Value {
	w := int(i.c) & 0x7f
	if i.c&immAdapt != 0 {
		if lw := l.Width(); lw != w {
			w = lw
		}
	}
	return val.New(i.imm, w)
}

// runSeg executes one segment in the register window at base. It returns
// true when an opFRet executed (function return); stalls and deaths are
// reported in the firing record and abort the whole call stack.
func (f *firing) runSeg(p *program, seg segment, base int) bool {
	m, in := f.m, f.in
	code := p.code
	regs := m.regs
	for pc := seg.off; pc < seg.end; {
		i := code[pc]
		pc++
		switch i.op {
		case opJmp:
			pc = i.a
		case opJz:
			if !regs[base+int(i.b)].Val.IsTrue() {
				pc = i.a
			}
		case opJnz:
			if regs[base+int(i.b)].Val.IsTrue() {
				pc = i.a
			}
		case opStallGef:
			if m.gefs[i.a] {
				f.stalled = true
				return false
			}
		case opPanic:
			panic(p.strs[i.imm])

		case opConst:
			regs[base+int(i.a)] = V{Val: val.New(i.imm, int(i.c))}
		case opConstV:
			regs[base+int(i.a)] = p.pool[i.imm]
		case opMove:
			regs[base+int(i.a)] = regs[base+int(i.b)]
		case opLoadSlot:
			regs[base+int(i.a)] = f.load(int(i.b))
		case opStoreLoc:
			f.setLocal(int(i.a), regs[base+int(i.b)])
		case opStorePend:
			f.setPend(int(i.a), regs[base+int(i.b)])
		case opLoadVol:
			regs[base+int(i.a)] = V{Val: m.volVals[i.b]}
		case opLoadEArg:
			idx := int(i.b)
			if idx < len(f.eargs) {
				regs[base+int(i.a)] = V{Val: f.eargs[idx]}
			} else {
				regs[base+int(i.a)] = V{Val: val.New(0, 1)}
			}
		case opLoadLef:
			regs[base+int(i.a)] = V{Val: val.Bool(f.lef)}
		case opLoadGef:
			pi := int(i.b)
			if pi < 0 {
				pi = f.node.pipe.idx
			}
			regs[base+int(i.a)] = V{Val: val.Bool(m.gefs[pi])}

		case opAdd:
			regs[base+int(i.a)] = V{Val: regs[base+int(i.b)].Val.Add(regs[base+int(i.c)].Val)}
		case opSub:
			regs[base+int(i.a)] = V{Val: regs[base+int(i.b)].Val.Sub(regs[base+int(i.c)].Val)}
		case opMul:
			regs[base+int(i.a)] = V{Val: regs[base+int(i.b)].Val.Mul(regs[base+int(i.c)].Val)}
		case opDivU:
			regs[base+int(i.a)] = V{Val: regs[base+int(i.b)].Val.DivU(regs[base+int(i.c)].Val)}
		case opRemU:
			regs[base+int(i.a)] = V{Val: regs[base+int(i.b)].Val.RemU(regs[base+int(i.c)].Val)}
		case opAnd:
			regs[base+int(i.a)] = V{Val: regs[base+int(i.b)].Val.And(regs[base+int(i.c)].Val)}
		case opOr:
			regs[base+int(i.a)] = V{Val: regs[base+int(i.b)].Val.Or(regs[base+int(i.c)].Val)}
		case opXor:
			regs[base+int(i.a)] = V{Val: regs[base+int(i.b)].Val.Xor(regs[base+int(i.c)].Val)}
		case opShl:
			regs[base+int(i.a)] = V{Val: regs[base+int(i.b)].Val.Shl(regs[base+int(i.c)].Val)}
		case opShrU:
			regs[base+int(i.a)] = V{Val: regs[base+int(i.b)].Val.ShrU(regs[base+int(i.c)].Val)}
		case opEq:
			regs[base+int(i.a)] = V{Val: regs[base+int(i.b)].Val.EqV(regs[base+int(i.c)].Val)}
		case opNe:
			regs[base+int(i.a)] = V{Val: regs[base+int(i.b)].Val.NeV(regs[base+int(i.c)].Val)}
		case opLtU:
			regs[base+int(i.a)] = V{Val: regs[base+int(i.b)].Val.LtU(regs[base+int(i.c)].Val)}
		case opLeU:
			regs[base+int(i.a)] = V{Val: regs[base+int(i.b)].Val.LeU(regs[base+int(i.c)].Val)}
		case opGtU:
			regs[base+int(i.a)] = V{Val: regs[base+int(i.b)].Val.GtU(regs[base+int(i.c)].Val)}
		case opGeU:
			regs[base+int(i.a)] = V{Val: regs[base+int(i.b)].Val.GeU(regs[base+int(i.c)].Val)}
		case opLAnd:
			regs[base+int(i.a)] = V{Val: val.Bool(regs[base+int(i.b)].Val.IsTrue() && regs[base+int(i.c)].Val.IsTrue())}
		case opLOr:
			regs[base+int(i.a)] = V{Val: val.Bool(regs[base+int(i.b)].Val.IsTrue() || regs[base+int(i.c)].Val.IsTrue())}
		case opLtS:
			regs[base+int(i.a)] = V{Val: regs[base+int(i.b)].Val.LtS(regs[base+int(i.c)].Val)}
		case opLeS:
			regs[base+int(i.a)] = V{Val: regs[base+int(i.b)].Val.LeS(regs[base+int(i.c)].Val)}
		case opGtS:
			regs[base+int(i.a)] = V{Val: regs[base+int(i.b)].Val.GtS(regs[base+int(i.c)].Val)}
		case opGeS:
			regs[base+int(i.a)] = V{Val: regs[base+int(i.b)].Val.GeS(regs[base+int(i.c)].Val)}
		case opShrS:
			regs[base+int(i.a)] = V{Val: regs[base+int(i.b)].Val.ShrS(regs[base+int(i.c)].Val)}
		case opDivS:
			regs[base+int(i.a)] = V{Val: regs[base+int(i.b)].Val.DivS(regs[base+int(i.c)].Val)}
		case opRemS:
			regs[base+int(i.a)] = V{Val: regs[base+int(i.b)].Val.RemS(regs[base+int(i.c)].Val)}
		case opMulFull:
			regs[base+int(i.a)] = V{Val: regs[base+int(i.b)].Val.MulFull(regs[base+int(i.c)].Val)}

		case opAddI:
			l := regs[base+int(i.b)].Val
			regs[base+int(i.a)] = V{Val: l.Add(immOperand(i, l))}
		case opSubI:
			l := regs[base+int(i.b)].Val
			regs[base+int(i.a)] = V{Val: l.Sub(immOperand(i, l))}
		case opRSubI:
			l := regs[base+int(i.b)].Val
			regs[base+int(i.a)] = V{Val: immOperand(i, l).Sub(l)}
		case opMulI:
			l := regs[base+int(i.b)].Val
			regs[base+int(i.a)] = V{Val: l.Mul(immOperand(i, l))}
		case opAndI:
			l := regs[base+int(i.b)].Val
			regs[base+int(i.a)] = V{Val: l.And(immOperand(i, l))}
		case opOrI:
			l := regs[base+int(i.b)].Val
			regs[base+int(i.a)] = V{Val: l.Or(immOperand(i, l))}
		case opXorI:
			l := regs[base+int(i.b)].Val
			regs[base+int(i.a)] = V{Val: l.Xor(immOperand(i, l))}
		case opShlI:
			l := regs[base+int(i.b)].Val
			regs[base+int(i.a)] = V{Val: l.Shl(immOperand(i, l))}
		case opShrUI:
			l := regs[base+int(i.b)].Val
			regs[base+int(i.a)] = V{Val: l.ShrU(immOperand(i, l))}
		case opEqI:
			l := regs[base+int(i.b)].Val
			regs[base+int(i.a)] = V{Val: l.EqV(immOperand(i, l))}
		case opNeI:
			l := regs[base+int(i.b)].Val
			regs[base+int(i.a)] = V{Val: l.NeV(immOperand(i, l))}
		case opLtUI:
			l := regs[base+int(i.b)].Val
			regs[base+int(i.a)] = V{Val: l.LtU(immOperand(i, l))}
		case opLeUI:
			l := regs[base+int(i.b)].Val
			regs[base+int(i.a)] = V{Val: l.LeU(immOperand(i, l))}
		case opGtUI:
			l := regs[base+int(i.b)].Val
			regs[base+int(i.a)] = V{Val: l.GtU(immOperand(i, l))}
		case opGeUI:
			l := regs[base+int(i.b)].Val
			regs[base+int(i.a)] = V{Val: l.GeU(immOperand(i, l))}
		case opDivUI:
			l := regs[base+int(i.b)].Val
			regs[base+int(i.a)] = V{Val: l.DivU(immOperand(i, l))}
		case opRemUI:
			l := regs[base+int(i.b)].Val
			regs[base+int(i.a)] = V{Val: l.RemU(immOperand(i, l))}

		case opBinA:
			lv := regs[base+int(i.b)].Val
			rv := regs[base+int(i.c)].Val
			if lv.Width() != rv.Width() {
				if i.imm&binAdaptL != 0 {
					lv = val.New(lv.Uint(), rv.Width())
				} else if i.imm&binAdaptR != 0 {
					rv = val.New(rv.Uint(), lv.Width())
				}
			}
			regs[base+int(i.a)] = V{Val: binApply(uint8(i.imm), lv, rv)}

		case opNotL:
			regs[base+int(i.a)] = V{Val: val.Bool(!regs[base+int(i.b)].Val.IsTrue())}
		case opNotB:
			regs[base+int(i.a)] = V{Val: regs[base+int(i.b)].Val.Not()}
		case opNegV:
			regs[base+int(i.a)] = V{Val: regs[base+int(i.b)].Val.Neg()}

		case opSliceI:
			regs[base+int(i.a)] = V{Val: regs[base+int(i.b)].Val.Slice(int(i.c)>>7, int(i.c)&0x7f)}
		case opZeroExtI:
			regs[base+int(i.a)] = V{Val: regs[base+int(i.b)].Val.ZeroExt(int(i.c))}
		case opSignExtI:
			regs[base+int(i.a)] = V{Val: regs[base+int(i.b)].Val.SignExt(int(i.c))}
		case opField:
			fr := fieldRef{idx: int(i.c), lay: int(i.imm>>32) - 1}
			regs[base+int(i.a)] = V{Val: m.field(regs[base+int(i.b)], fr, p.strs[uint32(i.imm)])}
		case opCatPush:
			f.extArgs = append(f.extArgs, regs[base+int(i.b)].Val)
		case opCatDo:
			k := len(f.extArgs) - int(i.c)
			r := val.Cat(f.extArgs[k:]...)
			f.extArgs = f.extArgs[:k]
			regs[base+int(i.a)] = V{Val: r}

		case opExternPre:
			if m.faults != nil && m.faults.DelayExtern(m.cycle, in.iid, i.imm) {
				f.stalled = true
				return false
			}
		case opExtPush:
			f.extArgs = append(f.extArgs, val.New(regs[base+int(i.b)].Uint(), int(i.c)))
		case opExternCall:
			k := len(f.extArgs) - int(i.c)
			end := len(f.extArgs)
			r := m.externs[i.b](f.extArgs[k:end:end])
			f.extArgs = f.extArgs[:k]
			regs[base+int(i.a)] = r

		case opCallFunc:
			fp := &p.funcs[i.b]
			nb := base + int(i.imm)
			if need := nb + fp.nRegs; need > len(m.regs) {
				grown := make([]V, need+64)
				copy(grown, m.regs)
				m.regs = grown
				regs = grown
			}
			ab := base + int(i.c)
			for k := 0; k < fp.nParams; k++ {
				regs[nb+k] = V{Val: val.New(regs[ab+k].Uint(), fp.paramW[k])}
			}
			for k := fp.nParams; k < fp.nVars; k++ {
				regs[nb+k] = V{}
			}
			returned := f.runSeg(p, fp.seg, nb)
			if f.stalled || f.died {
				return false
			}
			if !returned {
				// Conditional fallthrough: the declared result's zero value.
				f.fret = V{Val: val.New(0, fp.resultW)}
			}
			regs = m.regs // nested calls may have grown the file
			regs[base+int(i.a)] = f.fret
		case opFRet:
			f.fret = V{Val: val.New(regs[base+int(i.b)].Uint(), int(i.c))}
			return true

		case opMemReadP:
			a := regs[base+int(i.b)].Uint() % i.imm
			regs[base+int(i.a)] = V{Val: m.plainList[i.c].Peek(a)}
		case opMemReadL:
			a := regs[base+int(i.b)].Uint() % i.imm
			l := m.memList[i.c]
			if !l.ReadReady(in.iid, a) {
				f.stalled = true
				return false
			}
			regs[base+int(i.a)] = V{Val: l.Read(in.iid, a)}
		case opMemWrite:
			depth := i.imm & (1<<48 - 1)
			w := int(i.imm >> 48)
			a := regs[base+int(i.a)].Uint() % depth
			m.memList[i.c].Write(in.iid, a, val.New(regs[base+int(i.b)].Uint(), w))

		case opLockAcq:
			addr := locks.Whole
			if i.a >= 0 {
				addr = regs[base+int(i.a)].Uint() % i.imm
			}
			wr := i.b != 0
			l := m.memList[i.c]
			if !l.CanReserve(in.iid, addr, wr) {
				f.stalled = true
				return false
			}
			l.Reserve(in.iid, addr, wr)
			if !l.Owns(in.iid, addr, wr) {
				f.stalled = true
				return false
			}
		case opLockRes:
			addr := locks.Whole
			if i.a >= 0 {
				addr = regs[base+int(i.a)].Uint() % i.imm
			}
			wr := i.b != 0
			l := m.memList[i.c]
			if !l.CanReserve(in.iid, addr, wr) {
				f.stalled = true
				return false
			}
			l.Reserve(in.iid, addr, wr)
		case opLockBlk:
			addr := locks.Whole
			if i.a >= 0 {
				addr = regs[base+int(i.a)].Uint() % i.imm
			}
			if !m.memList[i.c].Owns(in.iid, addr, i.b != 0) {
				f.stalled = true
				return false
			}
		case opLockRel:
			addr := locks.Whole
			if i.a >= 0 {
				addr = regs[base+int(i.a)].Uint() % i.imm
			}
			m.memList[i.c].Release(in.iid, addr)
		case opLockAbort:
			m.memList[i.c].Abort()

		case opStallIfFull:
			pi := int(i.a)
			if len(m.pipeList[pi].entryQ)+f.spawnCnt[pi] >= m.cfg.EntryCap {
				f.stalled = true
				return false
			}
		case opSpawnPush:
			f.spawnArgs = append(f.spawnArgs, val.New(regs[base+int(i.b)].Uint(), int(i.c)))
		case opSpawn:
			f.countSpawn(int(i.a))
			n := int32(i.b)
			f.eff(effect{
				kind: effSpawn, a: i.a, flag: i.imm&1 != 0,
				argOff: int32(len(f.spawnArgs)) - n, argN: n, str: int32(i.c),
			})
		case opSpecSpawnFin:
			pi := int(i.b)
			// The handle is consumed even if the firing later stalls, as
			// in the other engines.
			t := m.pipeList[pi].specTab
			h := t.nextHandle
			t.nextHandle++
			f.setLocal(int(i.a), V{Val: val.New(h, 48)})
			f.countSpawn(pi)
			n := int32(i.c)
			f.eff(effect{
				kind: effSpecSpawn, a: int32(pi),
				argOff: int32(len(f.spawnArgs)) - n, argN: n, h: h,
			})
		case opSpecCheck:
			if in.spec {
				switch f.node.pipe.specTab.status(in.specHandle) {
				case specVerified:
					f.eff(effect{kind: effSpecResolve, a: i.a})
				case specInvalid:
					f.died = true
					return false
				}
			}
		case opSpecBarrier:
			if in.spec {
				switch f.node.pipe.specTab.status(in.specHandle) {
				case specPending:
					f.stalled = true
					return false
				case specVerified:
					f.eff(effect{kind: effSpecResolve, a: i.a})
				case specInvalid:
					f.died = true
					return false
				}
			}

		case opSetLEF:
			f.lef = true
		case opSetEArg:
			f.storeEArg(int(i.a), val.New(regs[base+int(i.b)].Uint(), int(i.c)), int(i.imm))

		case opEffVol:
			f.eff(effect{
				kind: effVolWrite, a: i.a,
				val: val.New(regs[base+int(i.b)].Uint(), int(i.c)),
			})
		case opEffSetGEF:
			f.eff(effect{kind: effSetGEF, a: i.a, flag: i.imm != 0})
		case opEffPipeClear:
			f.eff(effect{kind: effPipeClear, a: i.a})
		case opEffSpecClear:
			f.eff(effect{kind: effSpecClear, a: i.a})
		case opEffVerify:
			f.eff(effect{kind: effVerify, a: i.a, h: regs[base+int(i.b)].Uint()})
		case opEffInvalidate:
			f.eff(effect{kind: effInvalidate, a: i.a, h: regs[base+int(i.b)].Uint()})
		case opEffReturn:
			f.eff(effect{kind: effReturn, v: regs[base+int(i.b)]})

		default:
			panic(fmt.Sprintf("vm: invalid opcode %d at pc %d", i.op, pc-1))
		}
	}
	return false
}

// binApply dispatches a reg-reg ALU opcode on already-adapted operands;
// it backs opBinA's generic path.
func binApply(op uint8, l, r val.Value) val.Value {
	switch op {
	case opAdd:
		return l.Add(r)
	case opSub:
		return l.Sub(r)
	case opMul:
		return l.Mul(r)
	case opDivU:
		return l.DivU(r)
	case opRemU:
		return l.RemU(r)
	case opAnd:
		return l.And(r)
	case opOr:
		return l.Or(r)
	case opXor:
		return l.Xor(r)
	case opShl:
		return l.Shl(r)
	case opShrU:
		return l.ShrU(r)
	case opEq:
		return l.EqV(r)
	case opNe:
		return l.NeV(r)
	case opLtU:
		return l.LtU(r)
	case opLeU:
		return l.LeU(r)
	case opGtU:
		return l.GtU(r)
	case opGeU:
		return l.GeU(r)
	case opLAnd:
		return val.Bool(l.IsTrue() && r.IsTrue())
	case opLOr:
		return val.Bool(l.IsTrue() || r.IsTrue())
	}
	panic(fmt.Sprintf("vm: bad opBinA sub-opcode %d", op))
}
