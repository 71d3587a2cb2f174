package riscv

// Decode decodes one 32-bit RV32IM/Zicsr instruction word. Undecodable
// words yield Op ILLEGAL (they are not an error: the pipeline raises an
// illegal-instruction exception for them).
func Decode(raw uint32) Inst {
	in := Inst{Raw: raw, Op: ILLEGAL}
	opcode := raw & 0x7F
	rd := (raw >> 7) & 0x1F
	funct3 := (raw >> 12) & 0x7
	rs1 := (raw >> 15) & 0x1F
	rs2 := (raw >> 20) & 0x1F
	funct7 := (raw >> 25) & 0x7F

	switch opcode {
	case OpLUI:
		in.Op, in.Rd, in.Imm = LUI, rd, int32(raw&0xFFFFF000)
	case OpAUIPC:
		in.Op, in.Rd, in.Imm = AUIPC, rd, int32(raw&0xFFFFF000)
	case OpJAL:
		in.Op, in.Rd, in.Imm = JAL, rd, immJ(raw)
	case OpJALR:
		if funct3 == 0 {
			in.Op, in.Rd, in.Rs1, in.Imm = JALR, rd, rs1, immI(raw)
		}
	case OpBranch:
		if op := branchOps[funct3]; op != ILLEGAL {
			in.Op, in.Rs1, in.Rs2, in.Imm = op, rs1, rs2, immB(raw)
		}
	case OpLoad:
		if op := loadOps[funct3]; op != ILLEGAL {
			in.Op, in.Rd, in.Rs1, in.Imm = op, rd, rs1, immI(raw)
		}
	case OpStore:
		if op := storeOps[funct3]; op != ILLEGAL {
			in.Op, in.Rs1, in.Rs2, in.Imm = op, rs1, rs2, immS(raw)
		}
	case OpImm:
		in.Rd, in.Rs1, in.Imm = rd, rs1, immI(raw)
		switch funct3 {
		case 0:
			in.Op = ADDI
		case 2:
			in.Op = SLTI
		case 3:
			in.Op = SLTIU
		case 4:
			in.Op = XORI
		case 6:
			in.Op = ORI
		case 7:
			in.Op = ANDI
		case 1:
			if funct7 == 0 {
				in.Op, in.Imm = SLLI, int32(rs2)
			} else {
				in.Op = ILLEGAL
			}
		case 5:
			switch funct7 {
			case 0:
				in.Op, in.Imm = SRLI, int32(rs2)
			case 0x20:
				in.Op, in.Imm = SRAI, int32(rs2)
			default:
				in.Op = ILLEGAL
			}
		}
		if in.Op == ILLEGAL {
			in.Rd, in.Rs1, in.Imm = 0, 0, 0
		}
	case OpReg:
		in.Rd, in.Rs1, in.Rs2 = rd, rs1, rs2
		op := ILLEGAL
		switch funct7 {
		case 0:
			op = regOps[funct3]
		case 0x20:
			op = regAltOps[funct3]
		case 1:
			op = mulOps[funct3]
		}
		if op != ILLEGAL {
			in.Op = op
		} else {
			in.Op, in.Rd, in.Rs1, in.Rs2 = ILLEGAL, 0, 0, 0
		}
	case OpSystem:
		switch funct3 {
		case 0:
			switch raw >> 20 {
			case 0:
				if rs1 == 0 && rd == 0 {
					in.Op = ECALL
				}
			case 1:
				if rs1 == 0 && rd == 0 {
					in.Op = EBREAK
				}
			case 0x302:
				if rs1 == 0 && rd == 0 {
					in.Op = MRET
				}
			case 0x105:
				if rs1 == 0 && rd == 0 {
					in.Op = WFI
				}
			}
		case 1, 2, 3, 5, 6, 7:
			in.Op, in.Rd, in.Rs1, in.CSR = csrOps[funct3], rd, rs1, raw>>20
		}
	case OpFence:
		if funct3 == 0 || funct3 == 1 {
			in.Op = FENCE
		}
	}
	return in
}

// Opcode tables indexed by funct3 (R-type: one per funct7 value);
// ILLEGAL marks an encoding the supported ISA leaves unused.
var (
	branchOps = [8]Op{BEQ, BNE, ILLEGAL, ILLEGAL, BLT, BGE, BLTU, BGEU}
	loadOps   = [8]Op{LB, LH, LW, ILLEGAL, LBU, LHU, ILLEGAL, ILLEGAL}
	storeOps  = [8]Op{SB, SH, SW, ILLEGAL, ILLEGAL, ILLEGAL, ILLEGAL, ILLEGAL}
	regOps    = [8]Op{ADD, SLL, SLT, SLTU, XOR, SRL, OR, AND}
	regAltOps = [8]Op{SUB, ILLEGAL, ILLEGAL, ILLEGAL, ILLEGAL, SRA, ILLEGAL, ILLEGAL}
	mulOps    = [8]Op{MUL, MULH, MULHSU, MULHU, DIV, DIVU, REM, REMU}
	csrOps    = [8]Op{ILLEGAL, CSRRW, CSRRS, CSRRC, ILLEGAL, CSRRWI, CSRRSI, CSRRCI}
)

func signExtend(x uint32, bits uint) int32 {
	shift := 32 - bits
	return int32(x<<shift) >> shift
}

func immI(raw uint32) int32 { return signExtend(raw>>20, 12) }

func immS(raw uint32) int32 {
	v := (raw>>25)<<5 | (raw>>7)&0x1F
	return signExtend(v, 12)
}

func immB(raw uint32) int32 {
	v := (raw>>31)<<12 | ((raw>>7)&1)<<11 | ((raw>>25)&0x3F)<<5 | ((raw>>8)&0xF)<<1
	return signExtend(v, 13)
}

func immJ(raw uint32) int32 {
	v := (raw>>31)<<20 | ((raw>>12)&0xFF)<<12 | ((raw>>20)&1)<<11 | ((raw>>21)&0x3FF)<<1
	return signExtend(v, 21)
}

// --- Encoding -------------------------------------------------------------

// EncodeR encodes an R-type instruction.
func EncodeR(funct7, rs2, rs1, funct3, rd, opcode uint32) uint32 {
	return funct7<<25 | rs2<<20 | rs1<<15 | funct3<<12 | rd<<7 | opcode
}

// EncodeI encodes an I-type instruction.
func EncodeI(imm int32, rs1, funct3, rd, opcode uint32) uint32 {
	return uint32(imm)<<20 | rs1<<15 | funct3<<12 | rd<<7 | opcode
}

// EncodeS encodes an S-type instruction.
func EncodeS(imm int32, rs2, rs1, funct3, opcode uint32) uint32 {
	u := uint32(imm)
	return (u>>5)&0x7F<<25 | rs2<<20 | rs1<<15 | funct3<<12 | (u&0x1F)<<7 | opcode
}

// EncodeB encodes a B-type instruction.
func EncodeB(imm int32, rs2, rs1, funct3, opcode uint32) uint32 {
	u := uint32(imm)
	return (u>>12)&1<<31 | (u>>5)&0x3F<<25 | rs2<<20 | rs1<<15 |
		funct3<<12 | (u>>1)&0xF<<8 | (u>>11)&1<<7 | opcode
}

// EncodeU encodes a U-type instruction; imm carries the upper 20 bits in
// bits 31..12.
func EncodeU(imm int32, rd, opcode uint32) uint32 {
	return uint32(imm)&0xFFFFF000 | rd<<7 | opcode
}

// EncodeJ encodes a J-type instruction.
func EncodeJ(imm int32, rd, opcode uint32) uint32 {
	u := uint32(imm)
	return (u>>20)&1<<31 | (u>>1)&0x3FF<<21 | (u>>11)&1<<20 | (u>>12)&0xFF<<12 | rd<<7 | opcode
}
