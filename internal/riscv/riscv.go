// Package riscv implements the RV32IM + Zicsr instruction set used by the
// processor designs: instruction formats, encoding, decoding and
// disassembly, plus the machine-mode CSR and trap-cause constants of the
// privileged architecture subset the paper's designs exercise.
package riscv

import "fmt"

// Opcode field values (bits 6..0).
const (
	OpLUI    = 0x37
	OpAUIPC  = 0x17
	OpJAL    = 0x6F
	OpJALR   = 0x67
	OpBranch = 0x63
	OpLoad   = 0x03
	OpStore  = 0x23
	OpImm    = 0x13
	OpReg    = 0x33
	OpSystem = 0x73
	OpFence  = 0x0F
)

// Op identifies a decoded RV32IM instruction.
type Op int

// Decoded operations.
const (
	LUI Op = iota
	AUIPC
	JAL
	JALR
	BEQ
	BNE
	BLT
	BGE
	BLTU
	BGEU
	LB
	LH
	LW
	LBU
	LHU
	SB
	SH
	SW
	ADDI
	SLTI
	SLTIU
	XORI
	ORI
	ANDI
	SLLI
	SRLI
	SRAI
	ADD
	SUB
	SLL
	SLT
	SLTU
	XOR
	SRL
	SRA
	OR
	AND
	MUL
	MULH
	MULHSU
	MULHU
	DIV
	DIVU
	REM
	REMU
	ECALL
	EBREAK
	MRET
	WFI
	CSRRW
	CSRRS
	CSRRC
	CSRRWI
	CSRRSI
	CSRRCI
	FENCE
	ILLEGAL
)

var opNames = map[Op]string{
	LUI: "lui", AUIPC: "auipc", JAL: "jal", JALR: "jalr",
	BEQ: "beq", BNE: "bne", BLT: "blt", BGE: "bge", BLTU: "bltu", BGEU: "bgeu",
	LB: "lb", LH: "lh", LW: "lw", LBU: "lbu", LHU: "lhu",
	SB: "sb", SH: "sh", SW: "sw",
	ADDI: "addi", SLTI: "slti", SLTIU: "sltiu", XORI: "xori", ORI: "ori", ANDI: "andi",
	SLLI: "slli", SRLI: "srli", SRAI: "srai",
	ADD: "add", SUB: "sub", SLL: "sll", SLT: "slt", SLTU: "sltu",
	XOR: "xor", SRL: "srl", SRA: "sra", OR: "or", AND: "and",
	MUL: "mul", MULH: "mulh", MULHSU: "mulhsu", MULHU: "mulhu",
	DIV: "div", DIVU: "divu", REM: "rem", REMU: "remu",
	ECALL: "ecall", EBREAK: "ebreak", MRET: "mret", WFI: "wfi",
	CSRRW: "csrrw", CSRRS: "csrrs", CSRRC: "csrrc",
	CSRRWI: "csrrwi", CSRRSI: "csrrsi", CSRRCI: "csrrci",
	FENCE: "fence", ILLEGAL: "illegal",
}

// String returns the mnemonic.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Inst is a decoded instruction.
type Inst struct {
	Op       Op
	Rd       uint32
	Rs1, Rs2 uint32
	Imm      int32  // sign-extended immediate
	CSR      uint32 // CSR address for Zicsr instructions
	Raw      uint32
}

// IsLoad reports whether the instruction reads data memory.
func (i Inst) IsLoad() bool { return i.Op >= LB && i.Op <= LHU }

// IsStore reports whether the instruction writes data memory.
func (i Inst) IsStore() bool { return i.Op >= SB && i.Op <= SW }

// IsBranch reports whether the instruction is a conditional branch.
func (i Inst) IsBranch() bool { return i.Op >= BEQ && i.Op <= BGEU }

// IsJump reports jal/jalr.
func (i Inst) IsJump() bool { return i.Op == JAL || i.Op == JALR }

// IsCSR reports a Zicsr instruction.
func (i Inst) IsCSR() bool { return i.Op >= CSRRW && i.Op <= CSRRCI }

// IsSystem reports ecall/ebreak/mret/wfi.
func (i Inst) IsSystem() bool { return i.Op >= ECALL && i.Op <= WFI }

// WritesRd reports whether the instruction architecturally writes rd.
func (i Inst) WritesRd() bool {
	if i.Rd == 0 {
		return false
	}
	switch {
	case i.IsBranch(), i.IsStore():
		return false
	case i.Op == ECALL || i.Op == EBREAK || i.Op == MRET || i.Op == WFI || i.Op == FENCE || i.Op == ILLEGAL:
		return false
	}
	return true
}

// String disassembles the instruction.
func (i Inst) String() string {
	switch {
	case i.Op == LUI || i.Op == AUIPC:
		return fmt.Sprintf("%s x%d, 0x%x", i.Op, i.Rd, uint32(i.Imm)>>12)
	case i.Op == JAL:
		return fmt.Sprintf("jal x%d, %d", i.Rd, i.Imm)
	case i.Op == JALR:
		return fmt.Sprintf("jalr x%d, %d(x%d)", i.Rd, i.Imm, i.Rs1)
	case i.IsBranch():
		return fmt.Sprintf("%s x%d, x%d, %d", i.Op, i.Rs1, i.Rs2, i.Imm)
	case i.IsLoad():
		return fmt.Sprintf("%s x%d, %d(x%d)", i.Op, i.Rd, i.Imm, i.Rs1)
	case i.IsStore():
		return fmt.Sprintf("%s x%d, %d(x%d)", i.Op, i.Rs2, i.Imm, i.Rs1)
	case i.Op >= ADDI && i.Op <= SRAI:
		return fmt.Sprintf("%s x%d, x%d, %d", i.Op, i.Rd, i.Rs1, i.Imm)
	case i.Op >= ADD && i.Op <= REMU:
		return fmt.Sprintf("%s x%d, x%d, x%d", i.Op, i.Rd, i.Rs1, i.Rs2)
	case i.IsCSR():
		if i.Op >= CSRRWI {
			return fmt.Sprintf("%s x%d, %s, %d", i.Op, i.Rd, CSRName(i.CSR), i.Rs1)
		}
		return fmt.Sprintf("%s x%d, %s, x%d", i.Op, i.Rd, CSRName(i.CSR), i.Rs1)
	default:
		return i.Op.String()
	}
}

// --- Machine-mode CSRs (the subset the designs implement).

// CSR addresses.
const (
	CSRMStatus  = 0x300
	CSRMIE      = 0x304
	CSRMTVec    = 0x305
	CSRMScratch = 0x340
	CSRMEPC     = 0x341
	CSRMCause   = 0x342
	CSRMTVal    = 0x343
	CSRMIP      = 0x344
)

// CSRs is the machine-mode CSR file the designs implement, in the
// order of the compact index CSRIndex returns: the one table every
// CSR name, address and index lookup reads.
var CSRs = [...]struct {
	Name string
	Addr uint32
}{
	{"mstatus", CSRMStatus},
	{"mie", CSRMIE},
	{"mtvec", CSRMTVec},
	{"mscratch", CSRMScratch},
	{"mepc", CSRMEPC},
	{"mcause", CSRMCause},
	{"mtval", CSRMTVal},
	{"mip", CSRMIP},
}

// CSRIndex maps a CSR address to the compact index used by the designs'
// 32-entry CSR file; ok is false for unimplemented CSRs.
func CSRIndex(addr uint32) (idx uint32, ok bool) {
	for i, c := range CSRs {
		if c.Addr == addr {
			return uint32(i), true
		}
	}
	return 0, false
}

// CSRAddr maps an implemented CSR's name to its address.
func CSRAddr(name string) (addr uint32, ok bool) {
	for _, c := range CSRs {
		if c.Name == name {
			return c.Addr, true
		}
	}
	return 0, false
}

// CSRName names a CSR address.
func CSRName(addr uint32) string {
	if i, ok := CSRIndex(addr); ok {
		return CSRs[i].Name
	}
	return fmt.Sprintf("csr_0x%x", addr)
}

// mstatus bits.
const (
	MStatusMIE  = 1 << 3 // machine interrupt enable
	MStatusMPIE = 1 << 7 // previous MIE, stacked on trap entry
)

// mie/mip bits.
const (
	MIPMSIP = 1 << 3  // machine software interrupt
	MIPMTIP = 1 << 7  // machine timer interrupt
	MIPMEIP = 1 << 11 // machine external interrupt
)

// Trap causes (mcause values).
const (
	CauseMisalignedFetch = 0
	CauseIllegalInst     = 2
	CauseBreakpoint      = 3
	CauseMisalignedLoad  = 4
	CauseLoadFault       = 5
	CauseMisalignedStore = 6
	CauseStoreFault      = 7
	CauseECallM          = 11
	CauseInterruptBit    = 1 << 31
	CauseMachineSoftware = CauseInterruptBit | 3
	CauseMachineTimer    = CauseInterruptBit | 7
	CauseMachineExternal = CauseInterruptBit | 11
)

// CauseName names an mcause value.
func CauseName(cause uint32) string {
	switch cause {
	case CauseMisalignedFetch:
		return "instruction address misaligned"
	case CauseIllegalInst:
		return "illegal instruction"
	case CauseBreakpoint:
		return "breakpoint"
	case CauseMisalignedLoad:
		return "load address misaligned"
	case CauseLoadFault:
		return "load access fault"
	case CauseMisalignedStore:
		return "store address misaligned"
	case CauseStoreFault:
		return "store access fault"
	case CauseECallM:
		return "ecall from M-mode"
	case CauseMachineSoftware:
		return "machine software interrupt"
	case CauseMachineTimer:
		return "machine timer interrupt"
	case CauseMachineExternal:
		return "machine external interrupt"
	}
	return fmt.Sprintf("cause %d", cause)
}
