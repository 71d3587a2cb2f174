// Package golden is the sequential reference model: an RV32IM + Zicsr
// machine-mode emulator that executes exactly one instruction at a time
// with architecturally precise traps and interrupts.
//
// It is the specification side of the paper's OIAT argument (§4.3): the
// pipelined processors built in XPDL must produce the same architectural
// state and the same retirement sequence as this model, including around
// exceptions. Integration tests diff the two.
//
// Memory model: a Harvard layout matching the pipeline designs — a
// word-addressed instruction ROM and a word-addressed data RAM, both
// byte-addressed at the ISA level. Loads and stores beyond the data RAM
// raise access faults; misaligned accesses raise misaligned traps.
// EBREAK halts the machine (the workload-termination convention shared
// with the pipeline designs).
package golden

import (
	"fmt"

	"xpdl/internal/riscv"
)

// Event is one architectural step of the golden model, as Step
// reports it.
type Event struct {
	PC  uint32
	Raw uint32
	// Trap marks an exceptional event: the instruction at PC did not
	// retire; instead the trap with Cause was taken (or an interrupt
	// arrived before it executed).
	Trap  bool
	Cause uint32
}

// Machine is the sequential reference processor.
type Machine struct {
	Regs [32]uint32
	PC   uint32
	CSR  [32]uint32 // compact CSR file indexed per riscv.CSRIndex

	IMem []uint32 // word-addressed instruction ROM
	DMem []uint32 // word-addressed data RAM

	Halted  bool
	Retired uint64
}

// New builds a machine with the given memory images (word arrays).
func New(text, data []uint32, dmemWords int) *Machine {
	if dmemWords < len(data) {
		dmemWords = len(data)
	}
	m := &Machine{
		IMem: append([]uint32(nil), text...),
		DMem: make([]uint32, dmemWords),
	}
	copy(m.DMem, data)
	return m
}

// Reset returns the machine to the state New(text, data, len(m.DMem))
// builds, reusing its memories (the data memory grows only if data is
// longer).
func (m *Machine) Reset(text, data []uint32) {
	dmem := m.DMem
	if len(dmem) < len(data) {
		dmem = make([]uint32, len(data))
	}
	clear(dmem)
	copy(dmem, data)
	*m = Machine{
		IMem: append(m.IMem[:0], text...),
		DMem: dmem,
	}
}

func (m *Machine) csr(addr uint32) uint32 {
	if idx, ok := riscv.CSRIndex(addr); ok {
		return m.CSR[idx]
	}
	return 0
}

func (m *Machine) setCSR(addr, v uint32) {
	if idx, ok := riscv.CSRIndex(addr); ok {
		m.CSR[idx] = v
	}
}

// MStatus etc. accessors for tests and interrupt plumbing.
func (m *Machine) MStatus() uint32 { return m.csr(riscv.CSRMStatus) }

// SetMIE enables machine interrupts globally.
func (m *Machine) SetMIE(on bool) {
	s := m.MStatus()
	if on {
		s |= riscv.MStatusMIE
	} else {
		s &^= riscv.MStatusMIE
	}
	m.setCSR(riscv.CSRMStatus, s)
}

// RaiseInterrupt sets a pending bit in mip (device side).
func (m *Machine) RaiseInterrupt(bit uint32) {
	m.setCSR(riscv.CSRMIP, m.csr(riscv.CSRMIP)|bit)
}

// ClearInterrupt clears a pending bit in mip.
func (m *Machine) ClearInterrupt(bit uint32) {
	m.setCSR(riscv.CSRMIP, m.csr(riscv.CSRMIP)&^bit)
}

// trap performs precise trap entry: mepc gets the faulting pc, mcause the
// cause, mstatus stacks MIE, and control transfers to mtvec.
func (m *Machine) trap(pc, cause, tval uint32) Event {
	m.setCSR(riscv.CSRMEPC, pc)
	m.setCSR(riscv.CSRMCause, cause)
	m.setCSR(riscv.CSRMTVal, tval)
	s := m.MStatus()
	if s&riscv.MStatusMIE != 0 {
		s |= riscv.MStatusMPIE
	} else {
		s &^= riscv.MStatusMPIE
	}
	s &^= riscv.MStatusMIE
	m.setCSR(riscv.CSRMStatus, s)
	m.PC = m.csr(riscv.CSRMTVec) &^ 3
	return Event{PC: pc, Trap: true, Cause: cause}
}

// pendingInterrupt returns the highest-priority enabled pending
// interrupt cause, if any.
func (m *Machine) pendingInterrupt() (uint32, bool) {
	if m.MStatus()&riscv.MStatusMIE == 0 {
		return 0, false
	}
	active := m.csr(riscv.CSRMIP) & m.csr(riscv.CSRMIE)
	switch {
	case active&riscv.MIPMEIP != 0:
		return riscv.CauseMachineExternal, true
	case active&riscv.MIPMSIP != 0:
		return riscv.CauseMachineSoftware, true
	case active&riscv.MIPMTIP != 0:
		return riscv.CauseMachineTimer, true
	}
	return 0, false
}

// Step executes one architectural step and reports it: either an
// interrupt is taken (before the next instruction executes) or one
// instruction runs to completion, possibly trapping. A halted machine
// does nothing and reports the zero Event.
func (m *Machine) Step() (Event, error) {
	if m.Halted {
		return Event{}, nil
	}
	if cause, ok := m.pendingInterrupt(); ok {
		// Acknowledge-on-entry, matching the paper's Fig. 8 flow (the
		// except block clears the pending signal when the interrupt is
		// claimed); the pipeline designs do the same.
		switch cause {
		case riscv.CauseMachineExternal:
			m.ClearInterrupt(riscv.MIPMEIP)
		case riscv.CauseMachineSoftware:
			m.ClearInterrupt(riscv.MIPMSIP)
		case riscv.CauseMachineTimer:
			m.ClearInterrupt(riscv.MIPMTIP)
		}
		return m.trap(m.PC, cause, 0), nil
	}

	pc := m.PC
	if pc%4 != 0 {
		return m.trap(pc, riscv.CauseMisalignedFetch, pc), nil
	}
	widx := pc >> 2
	if int(widx) >= len(m.IMem) {
		return Event{}, fmt.Errorf("golden: fetch past end of text at pc=%#x", pc)
	}
	raw := m.IMem[widx]
	in := riscv.Decode(raw)
	next := pc + 4

	rs1 := m.Regs[in.Rs1]
	rs2 := m.Regs[in.Rs2]
	var rd uint32
	writeRd := in.WritesRd()

	switch in.Op {
	case riscv.LUI:
		rd = uint32(in.Imm)
	case riscv.AUIPC:
		rd = pc + uint32(in.Imm)
	case riscv.JAL:
		rd = pc + 4
		next = pc + uint32(in.Imm)
	case riscv.JALR:
		rd = pc + 4
		next = (rs1 + uint32(in.Imm)) &^ 1
	case riscv.BEQ:
		if rs1 == rs2 {
			next = pc + uint32(in.Imm)
		}
	case riscv.BNE:
		if rs1 != rs2 {
			next = pc + uint32(in.Imm)
		}
	case riscv.BLT:
		if int32(rs1) < int32(rs2) {
			next = pc + uint32(in.Imm)
		}
	case riscv.BGE:
		if int32(rs1) >= int32(rs2) {
			next = pc + uint32(in.Imm)
		}
	case riscv.BLTU:
		if rs1 < rs2 {
			next = pc + uint32(in.Imm)
		}
	case riscv.BGEU:
		if rs1 >= rs2 {
			next = pc + uint32(in.Imm)
		}
	case riscv.LB, riscv.LH, riscv.LW, riscv.LBU, riscv.LHU:
		addr := rs1 + uint32(in.Imm)
		v, cause, ok := m.load(in.Op, addr)
		if !ok {
			return m.trap(pc, cause, addr), nil
		}
		rd = v
	case riscv.SB, riscv.SH, riscv.SW:
		addr := rs1 + uint32(in.Imm)
		if cause, ok := m.store(in.Op, addr, rs2); !ok {
			return m.trap(pc, cause, addr), nil
		}
	case riscv.ADDI:
		rd = rs1 + uint32(in.Imm)
	case riscv.SLTI:
		rd = b2u(int32(rs1) < in.Imm)
	case riscv.SLTIU:
		rd = b2u(rs1 < uint32(in.Imm))
	case riscv.XORI:
		rd = rs1 ^ uint32(in.Imm)
	case riscv.ORI:
		rd = rs1 | uint32(in.Imm)
	case riscv.ANDI:
		rd = rs1 & uint32(in.Imm)
	case riscv.SLLI:
		rd = rs1 << uint32(in.Imm)
	case riscv.SRLI:
		rd = rs1 >> uint32(in.Imm)
	case riscv.SRAI:
		rd = uint32(int32(rs1) >> uint32(in.Imm))
	case riscv.ADD:
		rd = rs1 + rs2
	case riscv.SUB:
		rd = rs1 - rs2
	case riscv.SLL:
		rd = rs1 << (rs2 & 31)
	case riscv.SLT:
		rd = b2u(int32(rs1) < int32(rs2))
	case riscv.SLTU:
		rd = b2u(rs1 < rs2)
	case riscv.XOR:
		rd = rs1 ^ rs2
	case riscv.SRL:
		rd = rs1 >> (rs2 & 31)
	case riscv.SRA:
		rd = uint32(int32(rs1) >> (rs2 & 31))
	case riscv.OR:
		rd = rs1 | rs2
	case riscv.AND:
		rd = rs1 & rs2
	case riscv.MUL:
		rd = rs1 * rs2
	case riscv.MULH:
		rd = uint32(uint64(int64(int32(rs1))*int64(int32(rs2))) >> 32)
	case riscv.MULHSU:
		rd = uint32(uint64(int64(int32(rs1))*int64(rs2)) >> 32)
	case riscv.MULHU:
		rd = uint32(uint64(rs1) * uint64(rs2) >> 32)
	case riscv.DIV:
		switch {
		case rs2 == 0:
			rd = ^uint32(0)
		case rs1 == 0x80000000 && rs2 == ^uint32(0):
			rd = rs1
		default:
			rd = uint32(int32(rs1) / int32(rs2))
		}
	case riscv.DIVU:
		if rs2 == 0 {
			rd = ^uint32(0)
		} else {
			rd = rs1 / rs2
		}
	case riscv.REM:
		switch {
		case rs2 == 0:
			rd = rs1
		case rs1 == 0x80000000 && rs2 == ^uint32(0):
			rd = 0
		default:
			rd = uint32(int32(rs1) % int32(rs2))
		}
	case riscv.REMU:
		if rs2 == 0 {
			rd = rs1
		} else {
			rd = rs1 % rs2
		}
	case riscv.ECALL:
		return m.trap(pc, riscv.CauseECallM, 0), nil
	case riscv.EBREAK:
		// Workload-termination convention (see package doc).
		m.Halted = true
		m.Retired++
		return Event{PC: pc, Raw: raw}, nil
	case riscv.MRET:
		s := m.MStatus()
		if s&riscv.MStatusMPIE != 0 {
			s |= riscv.MStatusMIE
		} else {
			s &^= riscv.MStatusMIE
		}
		s |= riscv.MStatusMPIE
		m.setCSR(riscv.CSRMStatus, s)
		next = m.csr(riscv.CSRMEPC)
	case riscv.WFI, riscv.FENCE:
		// Hint / no-op in this subset.
	case riscv.CSRRW, riscv.CSRRS, riscv.CSRRC, riscv.CSRRWI, riscv.CSRRSI, riscv.CSRRCI:
		if _, implemented := riscv.CSRIndex(in.CSR); !implemented {
			return m.trap(pc, riscv.CauseIllegalInst, raw), nil
		}
		old := m.csr(in.CSR)
		src := rs1
		if in.Op >= riscv.CSRRWI {
			src = in.Rs1 // zimm
		}
		switch in.Op {
		case riscv.CSRRW, riscv.CSRRWI:
			m.setCSR(in.CSR, src)
		case riscv.CSRRS, riscv.CSRRSI:
			if in.Rs1 != 0 {
				m.setCSR(in.CSR, old|src)
			}
		case riscv.CSRRC, riscv.CSRRCI:
			if in.Rs1 != 0 {
				m.setCSR(in.CSR, old&^src)
			}
		}
		rd = old
	case riscv.ILLEGAL:
		return m.trap(pc, riscv.CauseIllegalInst, raw), nil
	}

	if writeRd {
		m.Regs[in.Rd] = rd
	}
	m.Regs[0] = 0
	m.PC = next
	m.Retired++
	return Event{PC: pc, Raw: raw}, nil
}

func (m *Machine) load(op riscv.Op, addr uint32) (v uint32, cause uint32, ok bool) {
	size := uint32(4)
	switch op {
	case riscv.LB, riscv.LBU:
		size = 1
	case riscv.LH, riscv.LHU:
		size = 2
	}
	if addr%size != 0 {
		return 0, riscv.CauseMisalignedLoad, false
	}
	if uint64(addr)+uint64(size) > uint64(len(m.DMem)*4) {
		return 0, riscv.CauseLoadFault, false
	}
	word := m.DMem[addr>>2]
	sh := (addr & 3) * 8
	switch op {
	case riscv.LW:
		return word, 0, true
	case riscv.LBU:
		return (word >> sh) & 0xFF, 0, true
	case riscv.LB:
		return uint32(int32((word>>sh)&0xFF) << 24 >> 24), 0, true
	case riscv.LHU:
		return (word >> sh) & 0xFFFF, 0, true
	case riscv.LH:
		return uint32(int32((word>>sh)&0xFFFF) << 16 >> 16), 0, true
	}
	return 0, riscv.CauseLoadFault, false
}

func (m *Machine) store(op riscv.Op, addr, v uint32) (cause uint32, ok bool) {
	size := uint32(4)
	switch op {
	case riscv.SB:
		size = 1
	case riscv.SH:
		size = 2
	}
	if addr%size != 0 {
		return riscv.CauseMisalignedStore, false
	}
	if uint64(addr)+uint64(size) > uint64(len(m.DMem)*4) {
		return riscv.CauseStoreFault, false
	}
	idx := addr >> 2
	sh := (addr & 3) * 8
	switch op {
	case riscv.SW:
		m.DMem[idx] = v
	case riscv.SB:
		m.DMem[idx] = m.DMem[idx]&^(0xFF<<sh) | (v&0xFF)<<sh
	case riscv.SH:
		m.DMem[idx] = m.DMem[idx]&^(0xFFFF<<sh) | (v&0xFFFF)<<sh
	}
	return 0, true
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// Run steps until halt or maxSteps.
func (m *Machine) Run(maxSteps int) error {
	for i := 0; i < maxSteps && !m.Halted; i++ {
		if _, err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}
