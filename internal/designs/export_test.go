package designs

import (
	"xpdl/internal/sim"
	"xpdl/internal/val"
)

// DecodeRecords returns one instruction word's decode record as the
// decode extern builds it, and the same decode in the reference
// sim.Record form: a name-keyed map, sorted by Record.
func DecodeRecords(word uint32) (got, ref sim.V) {
	d := decodeWord(word)
	return decodeExtern([]val.Value{val.New(uint64(word), 32)}), sim.Record(map[string]val.Value{
		"op":      val.New(d.op, 6),
		"rd":      val.New(d.rd, 5),
		"rs1":     val.New(d.rs1, 5),
		"rs2":     val.New(d.rs2, 5),
		"imm":     val.New(d.imm, 32),
		"wen":     val.Bool(d.wen),
		"isload":  val.Bool(d.isload),
		"isstore": val.Bool(d.isstore),
		"illegal": val.Bool(d.illegal),
		"halt":    val.Bool(d.halt),
		"isecall": val.Bool(d.isecall),
		"ismret":  val.Bool(d.ismret),
		"iscsr":   val.Bool(d.iscsr),
		"csrok":   val.Bool(d.csrok),
		"csrimm":  val.Bool(d.csrimm),
		"csridx":  val.New(d.csridx, 5),
		"csrf3":   val.New(d.csrf3, 3),
		"memsize": val.New(d.memsize, 2),
	})
}
