package designs

import (
	"xpdl/internal/riscv"
	"xpdl/internal/sim"
	"xpdl/internal/val"
)

// Externs returns the Go implementations of the designs' extern
// combinational functions — the analogue of the Verilog modules a PDL
// design imports. decode is pure in the instruction word, so each
// machine memoizes it (the working set is bounded by distinct words in
// the instruction memory).
func Externs() map[string]sim.ExternFunc {
	decodeCache := make(map[uint32]sim.V)
	decode := func(args []val.Value) sim.V {
		raw := uint32(args[0].Uint())
		if v, ok := decodeCache[raw]; ok {
			return v
		}
		v := decodeExtern(args)
		decodeCache[raw] = v
		return v
	}
	return map[string]sim.ExternFunc{
		"decode":   decode,
		"alu":      aluExtern,
		"nextpc":   nextpcExtern,
		"loadval":  loadvalExtern,
		"storeval": storevalExtern,
		"memfault": memfaultExtern,
		"intcause": intcauseExtern,
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Decode record layout: field indices in sorted-name order, the layout
// sim.Record produces.
const (
	dfCsrf3 = iota
	dfCsridx
	dfCsrimm
	dfCsrok
	dfHalt
	dfIllegal
	dfImm
	dfIscsr
	dfIsecall
	dfIsload
	dfIsmret
	dfIsstore
	dfMemsize
	dfOp
	dfRd
	dfRs1
	dfRs2
	dfWen
	dfCount
)

// decodeFields names the decode record's fields in sorted order. Every
// decode record shares this one array, which is never mutated.
var decodeFields = [dfCount]string{
	dfCsrf3: "csrf3", dfCsridx: "csridx", dfCsrimm: "csrimm", dfCsrok: "csrok",
	dfHalt: "halt", dfIllegal: "illegal", dfImm: "imm", dfIscsr: "iscsr",
	dfIsecall: "isecall", dfIsload: "isload", dfIsmret: "ismret",
	dfIsstore: "isstore", dfMemsize: "memsize", dfOp: "op", dfRd: "rd",
	dfRs1: "rs1", dfRs2: "rs2", dfWen: "wen",
}

// decoded is one instruction word's decode, field by field.
type decoded struct {
	op, rd, rs1, rs2, imm, csridx, csrf3, memsize                              uint64
	wen, isload, isstore, illegal, halt, isecall, ismret, iscsr, csrok, csrimm bool
}

func decodeWord(raw uint32) decoded {
	in := riscv.Decode(raw)

	iscsr := in.IsCSR()
	csridx, csrok := uint32(0), false
	if iscsr {
		csridx, csrok = riscv.CSRIndex(in.CSR)
	}
	illegal := in.Op == riscv.ILLEGAL
	if iscsr && !csrok {
		// Unimplemented CSR address: decode as an illegal instruction
		// rather than a CSR operation.
		illegal, iscsr = true, false
	}
	csrf3 := uint64(0)
	csrimm := false
	if iscsr {
		switch in.Op {
		case riscv.CSRRW:
			csrf3 = 1
		case riscv.CSRRS:
			csrf3 = 2
		case riscv.CSRRC:
			csrf3 = 3
		case riscv.CSRRWI:
			csrf3, csrimm = 5, true
		case riscv.CSRRSI:
			csrf3, csrimm = 6, true
		case riscv.CSRRCI:
			csrf3, csrimm = 7, true
		}
	}
	memsize := uint64(2)
	switch in.Op {
	case riscv.LB, riscv.LBU, riscv.SB:
		memsize = 0
	case riscv.LH, riscv.LHU, riscv.SH:
		memsize = 1
	}
	return decoded{
		op: uint64(in.Op), rd: uint64(in.Rd), rs1: uint64(in.Rs1), rs2: uint64(in.Rs2),
		imm: uint64(uint32(in.Imm)), csridx: uint64(csridx), csrf3: csrf3, memsize: memsize,
		wen: in.WritesRd() && !in.IsCSR(), isload: in.IsLoad(), isstore: in.IsStore(),
		illegal: illegal, halt: in.Op == riscv.EBREAK, isecall: in.Op == riscv.ECALL,
		ismret: in.Op == riscv.MRET, iscsr: iscsr, csrok: csrok, csrimm: csrimm,
	}
}

// record builds the decode record straight into its sorted layout: one
// value slice, no name map and no sort.
func (d decoded) record() sim.V {
	vals := make([]val.Value, dfCount)
	vals[dfOp] = val.New(d.op, 6)
	vals[dfRd] = val.New(d.rd, 5)
	vals[dfRs1] = val.New(d.rs1, 5)
	vals[dfRs2] = val.New(d.rs2, 5)
	vals[dfImm] = val.New(d.imm, 32)
	vals[dfWen] = val.Bool(d.wen)
	vals[dfIsload] = val.Bool(d.isload)
	vals[dfIsstore] = val.Bool(d.isstore)
	vals[dfIllegal] = val.Bool(d.illegal)
	vals[dfHalt] = val.Bool(d.halt)
	vals[dfIsecall] = val.Bool(d.isecall)
	vals[dfIsmret] = val.Bool(d.ismret)
	vals[dfIscsr] = val.Bool(d.iscsr)
	vals[dfCsrok] = val.Bool(d.csrok)
	vals[dfCsrimm] = val.Bool(d.csrimm)
	vals[dfCsridx] = val.New(d.csridx, 5)
	vals[dfCsrf3] = val.New(d.csrf3, 3)
	vals[dfMemsize] = val.New(d.memsize, 2)
	return sim.SortedRecord(decodeFields[:], vals)
}

func decodeExtern(args []val.Value) sim.V {
	return decodeWord(uint32(args[0].Uint())).record()
}

func aluExtern(args []val.Value) sim.V {
	op := riscv.Op(args[0].Uint())
	pc := uint32(args[1].Uint())
	a := uint32(args[2].Uint())
	b := uint32(args[3].Uint())
	imm := uint32(args[4].Uint())
	var r uint32
	switch op {
	case riscv.LUI:
		r = imm
	case riscv.AUIPC:
		r = pc + imm
	case riscv.JAL, riscv.JALR:
		r = pc + 4
	case riscv.ADDI:
		r = a + imm
	case riscv.SLTI:
		r = uint32(b2u(int32(a) < int32(imm)))
	case riscv.SLTIU:
		r = uint32(b2u(a < imm))
	case riscv.XORI:
		r = a ^ imm
	case riscv.ORI:
		r = a | imm
	case riscv.ANDI:
		r = a & imm
	case riscv.SLLI:
		r = a << (imm & 31)
	case riscv.SRLI:
		r = a >> (imm & 31)
	case riscv.SRAI:
		r = uint32(int32(a) >> (imm & 31))
	case riscv.ADD:
		r = a + b
	case riscv.SUB:
		r = a - b
	case riscv.SLL:
		r = a << (b & 31)
	case riscv.SLT:
		r = uint32(b2u(int32(a) < int32(b)))
	case riscv.SLTU:
		r = uint32(b2u(a < b))
	case riscv.XOR:
		r = a ^ b
	case riscv.SRL:
		r = a >> (b & 31)
	case riscv.SRA:
		r = uint32(int32(a) >> (b & 31))
	case riscv.OR:
		r = a | b
	case riscv.AND:
		r = a & b
	case riscv.MUL:
		r = a * b
	case riscv.MULH:
		r = uint32(uint64(int64(int32(a))*int64(int32(b))) >> 32)
	case riscv.MULHSU:
		r = uint32(uint64(int64(int32(a))*int64(b)) >> 32)
	case riscv.MULHU:
		r = uint32(uint64(a) * uint64(b) >> 32)
	case riscv.DIV:
		switch {
		case b == 0:
			r = ^uint32(0)
		case a == 0x80000000 && b == ^uint32(0):
			r = a
		default:
			r = uint32(int32(a) / int32(b))
		}
	case riscv.DIVU:
		if b == 0 {
			r = ^uint32(0)
		} else {
			r = a / b
		}
	case riscv.REM:
		switch {
		case b == 0:
			r = a
		case a == 0x80000000 && b == ^uint32(0):
			r = 0
		default:
			r = uint32(int32(a) % int32(b))
		}
	case riscv.REMU:
		if b == 0 {
			r = a
		} else {
			r = a % b
		}
	}
	return sim.Scalar(val.New(uint64(r), 32))
}

func nextpcExtern(args []val.Value) sim.V {
	op := riscv.Op(args[0].Uint())
	pc := uint32(args[1].Uint())
	a := uint32(args[2].Uint())
	b := uint32(args[3].Uint())
	imm := uint32(args[4].Uint())
	next := pc + 4
	switch op {
	case riscv.JAL:
		next = pc + imm
	case riscv.JALR:
		next = (a + imm) &^ 1
	case riscv.BEQ:
		if a == b {
			next = pc + imm
		}
	case riscv.BNE:
		if a != b {
			next = pc + imm
		}
	case riscv.BLT:
		if int32(a) < int32(b) {
			next = pc + imm
		}
	case riscv.BGE:
		if int32(a) >= int32(b) {
			next = pc + imm
		}
	case riscv.BLTU:
		if a < b {
			next = pc + imm
		}
	case riscv.BGEU:
		if a >= b {
			next = pc + imm
		}
	}
	return sim.Scalar(val.New(uint64(next), 32))
}

func loadvalExtern(args []val.Value) sim.V {
	op := riscv.Op(args[0].Uint())
	word := uint32(args[1].Uint())
	sh := uint32(args[2].Uint()) * 8
	var r uint32
	switch op {
	case riscv.LW:
		r = word
	case riscv.LBU:
		r = (word >> sh) & 0xFF
	case riscv.LB:
		r = uint32(int32((word>>sh)&0xFF) << 24 >> 24)
	case riscv.LHU:
		r = (word >> sh) & 0xFFFF
	case riscv.LH:
		r = uint32(int32((word>>sh)&0xFFFF) << 16 >> 16)
	}
	return sim.Scalar(val.New(uint64(r), 32))
}

func storevalExtern(args []val.Value) sim.V {
	op := riscv.Op(args[0].Uint())
	old := uint32(args[1].Uint())
	v := uint32(args[2].Uint())
	sh := uint32(args[3].Uint()) * 8
	var r uint32
	switch op {
	case riscv.SW:
		r = v
	case riscv.SB:
		r = old&^(0xFF<<sh) | (v&0xFF)<<sh
	case riscv.SH:
		r = old&^(0xFFFF<<sh) | (v&0xFFFF)<<sh
	default:
		r = old
	}
	return sim.Scalar(val.New(uint64(r), 32))
}

// memfault and intcause results are drawn from tiny finite sets, so the
// records are built once and shared across calls and machines, like the
// decode cache: records are immutable values, and these run on the
// hottest per-cycle path (every memory stage asks memfault, every
// commit stage asks intcause).
var (
	memfaultNone    = memfaultRecord(false, 0)
	memfaultResults = map[uint32]sim.V{
		riscv.CauseMisalignedLoad:  memfaultRecord(true, riscv.CauseMisalignedLoad),
		riscv.CauseMisalignedStore: memfaultRecord(true, riscv.CauseMisalignedStore),
		riscv.CauseLoadFault:       memfaultRecord(true, riscv.CauseLoadFault),
		riscv.CauseStoreFault:      memfaultRecord(true, riscv.CauseStoreFault),
	}
	intcauseNone    = intcauseRecord(false, 0)
	intcauseResults = map[uint32]sim.V{
		riscv.CauseMachineExternal: intcauseRecord(true, riscv.CauseMachineExternal),
		riscv.CauseMachineSoftware: intcauseRecord(true, riscv.CauseMachineSoftware),
		riscv.CauseMachineTimer:    intcauseRecord(true, riscv.CauseMachineTimer),
	}
)

func memfaultRecord(fault bool, cause uint32) sim.V {
	return sim.Record(map[string]val.Value{
		"fault": val.Bool(fault),
		"cause": val.New(uint64(cause), 32),
	})
}

func intcauseRecord(valid bool, cause uint32) sim.V {
	return sim.Record(map[string]val.Value{
		"cause": val.New(uint64(cause), 32),
		"valid": val.Bool(valid),
	})
}

func memfaultExtern(args []val.Value) sim.V {
	isload := args[0].IsTrue()
	isstore := args[1].IsTrue()
	size := uint32(1) << args[2].Uint()
	addr := uint32(args[3].Uint())
	if isload || isstore {
		switch {
		case addr%size != 0:
			if isload {
				return memfaultResults[riscv.CauseMisalignedLoad]
			}
			return memfaultResults[riscv.CauseMisalignedStore]
		case uint64(addr)+uint64(size) > DMemBytes:
			if isload {
				return memfaultResults[riscv.CauseLoadFault]
			}
			return memfaultResults[riscv.CauseStoreFault]
		}
	}
	return memfaultNone
}

func intcauseExtern(args []val.Value) sim.V {
	active := uint32(args[0].Uint()) & uint32(args[1].Uint())
	switch {
	case active&riscv.MIPMEIP != 0:
		return intcauseResults[riscv.CauseMachineExternal]
	case active&riscv.MIPMSIP != 0:
		return intcauseResults[riscv.CauseMachineSoftware]
	case active&riscv.MIPMTIP != 0:
		return intcauseResults[riscv.CauseMachineTimer]
	default:
		return intcauseNone
	}
}
