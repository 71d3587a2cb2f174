// Package asm is a two-pass RV32IM assembler used to build the workload
// binaries for the processor designs (the MachSuite substitute of the
// evaluation).
//
// Supported syntax:
//
//	label:                      # labels (text or data section)
//	addi a0, a1, -5             # RV32IM and Zicsr mnemonics
//	lw   a0, 4(sp)              # loads/stores with offset(base)
//	beq  a0, a1, loop           # branch/jump targets by label
//	csrrw t0, mstatus, t1       # CSRs by name or number
//	li/la/mv/nop/j/jr/ret/call/beqz/bnez  # common pseudo-instructions
//	.text / .data               # section switches
//	.word 0x123                 # literal words (either section)
//	.space N                    # N zero words
//
// Comments start with '#' or '//'. Registers accept x0..x31 and ABI names.
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"xpdl/internal/riscv"
)

// Program is an assembled binary: word images for instruction and data
// memory, plus the resolved symbol table (byte addresses).
type Program struct {
	Text   []uint32
	Data   []uint32
	Labels map[string]uint32
}

// TextBytes reports the text size in bytes.
func (p *Program) TextBytes() int { return len(p.Text) * 4 }

// Assemble assembles source into a Program.
func Assemble(src string) (*Program, error) {
	a := &assembler{labels: make(map[string]uint32)}
	if err := a.firstPass(src); err != nil {
		return nil, err
	}
	if err := a.secondPass(src); err != nil {
		return nil, err
	}
	return &Program{Text: a.text, Data: a.data, Labels: a.labels}, nil
}

type assembler struct {
	labels map[string]uint32
	text   []uint32
	data   []uint32
}

type section int

const (
	secText section = iota
	secData
)

// stmt is one parsed source line.
type stmt struct {
	line  int
	label string
	op    string
	args  []string
}

func parseLines(src string) ([]stmt, error) {
	var out []stmt
	for i, raw := range strings.Split(src, "\n") {
		line := raw
		if j := strings.Index(line, "#"); j >= 0 {
			line = line[:j]
		}
		if j := strings.Index(line, "//"); j >= 0 {
			line = line[:j]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		var s stmt
		s.line = i + 1
		// A line may carry label: [instruction].
		if j := strings.Index(line, ":"); j >= 0 && isIdent(strings.TrimSpace(line[:j])) {
			s.label = strings.TrimSpace(line[:j])
			line = strings.TrimSpace(line[j+1:])
		}
		if line != "" {
			fields := strings.Fields(line)
			s.op = strings.ToLower(fields[0])
			rest := strings.TrimSpace(line[len(fields[0]):])
			if rest != "" {
				for _, arg := range strings.Split(rest, ",") {
					s.args = append(s.args, strings.TrimSpace(arg))
				}
			}
		}
		out = append(out, s)
	}
	return out, nil
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		ch := s[i]
		ok := ch == '_' || ch == '.' ||
			'a' <= ch && ch <= 'z' || 'A' <= ch && ch <= 'Z' ||
			i > 0 && '0' <= ch && ch <= '9'
		if !ok {
			return false
		}
	}
	return true
}

// instrWords reports how many words an operation expands to, which the
// first pass needs for label addresses.
func (a *assembler) instrWords(s stmt) (int, error) {
	switch s.op {
	case "", ".text", ".data":
		return 0, nil
	case ".word":
		return len(s.args), nil
	case ".space":
		if len(s.args) != 1 {
			return 0, fmt.Errorf("line %d: .space needs a count", s.line)
		}
		n, err := parseInt(s.args[0])
		if err != nil {
			return 0, err
		}
		return int(n), nil
	case "li":
		if len(s.args) != 2 {
			return 0, fmt.Errorf("line %d: li needs rd, imm", s.line)
		}
		v, err := parseInt(s.args[1])
		if err != nil {
			return 0, err
		}
		if fitsI12(v) {
			return 1, nil
		}
		return 2, nil
	case "la":
		return 2, nil
	case "call":
		return 1, nil
	default:
		return 1, nil
	}
}

func fitsI12(v int64) bool { return v >= -2048 && v <= 2047 }

func (a *assembler) firstPass(src string) error {
	stmts, err := parseLines(src)
	if err != nil {
		return err
	}
	sec := secText
	textAddr, dataAddr := uint32(0), uint32(0)
	for _, s := range stmts {
		if s.label != "" {
			addr := textAddr
			if sec == secData {
				addr = dataAddr
			}
			if _, dup := a.labels[s.label]; dup {
				return fmt.Errorf("line %d: duplicate label %q", s.line, s.label)
			}
			a.labels[s.label] = addr
		}
		switch s.op {
		case ".text":
			sec = secText
			continue
		case ".data":
			sec = secData
			continue
		}
		n, err := a.instrWords(s)
		if err != nil {
			return err
		}
		if sec == secText {
			textAddr += uint32(4 * n)
		} else {
			dataAddr += uint32(4 * n)
		}
	}
	return nil
}

func (a *assembler) secondPass(src string) error {
	stmts, _ := parseLines(src)
	sec := secText
	for _, s := range stmts {
		switch s.op {
		case "":
			continue
		case ".text":
			sec = secText
			continue
		case ".data":
			sec = secData
			continue
		case ".word":
			for _, arg := range s.args {
				v, err := a.value(arg, s.line)
				if err != nil {
					return err
				}
				a.emit(sec, uint32(v))
			}
			continue
		case ".space":
			n, _ := parseInt(s.args[0])
			for i := int64(0); i < n; i++ {
				a.emit(sec, 0)
			}
			continue
		}
		if sec != secText {
			return fmt.Errorf("line %d: instruction %q in data section", s.line, s.op)
		}
		if err := a.emitInstr(s); err != nil {
			return err
		}
	}
	return nil
}

func (a *assembler) emit(sec section, w uint32) {
	if sec == secText {
		a.text = append(a.text, w)
	} else {
		a.data = append(a.data, w)
	}
}

// pc reports the byte address of the next text word.
func (a *assembler) pc() uint32 { return uint32(4 * len(a.text)) }

// value resolves an integer literal or label reference.
func (a *assembler) value(arg string, line int) (int64, error) {
	if v, err := parseInt(arg); err == nil {
		return v, nil
	}
	if addr, ok := a.labels[arg]; ok {
		return int64(addr), nil
	}
	return 0, fmt.Errorf("line %d: undefined symbol %q", line, arg)
}

func parseInt(s string) (int64, error) {
	s = strings.TrimSpace(s)
	neg := false
	if strings.HasPrefix(s, "-") {
		neg, s = true, s[1:]
	}
	var v uint64
	var err error
	switch {
	case strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X"):
		v, err = strconv.ParseUint(s[2:], 16, 64)
	case strings.HasPrefix(s, "0b") || strings.HasPrefix(s, "0B"):
		v, err = strconv.ParseUint(s[2:], 2, 64)
	default:
		v, err = strconv.ParseUint(s, 10, 64)
	}
	if err != nil {
		return 0, err
	}
	if neg {
		return -int64(v), nil
	}
	return int64(v), nil
}

var regNames = func() map[string]uint32 {
	m := map[string]uint32{
		"zero": 0, "ra": 1, "sp": 2, "gp": 3, "tp": 4,
		"t0": 5, "t1": 6, "t2": 7, "s0": 8, "fp": 8, "s1": 9,
		"a0": 10, "a1": 11, "a2": 12, "a3": 13, "a4": 14, "a5": 15, "a6": 16, "a7": 17,
		"s2": 18, "s3": 19, "s4": 20, "s5": 21, "s6": 22, "s7": 23, "s8": 24, "s9": 25,
		"s10": 26, "s11": 27, "t3": 28, "t4": 29, "t5": 30, "t6": 31,
	}
	for i := 0; i < 32; i++ {
		m[fmt.Sprintf("x%d", i)] = uint32(i)
	}
	return m
}()

func reg(arg string, line int) (uint32, error) {
	if r, ok := regNames[strings.ToLower(strings.TrimSpace(arg))]; ok {
		return r, nil
	}
	return 0, fmt.Errorf("line %d: unknown register %q", line, arg)
}

func (a *assembler) csr(arg string, line int) (uint32, error) {
	if c, ok := riscv.CSRAddr(strings.ToLower(strings.TrimSpace(arg))); ok {
		return c, nil
	}
	v, err := parseInt(arg)
	if err != nil || v < 0 || v > 0xFFF {
		return 0, fmt.Errorf("line %d: unknown CSR %q", line, arg)
	}
	return uint32(v), nil
}

// memOperand parses "offset(base)".
func (a *assembler) memOperand(arg string, line int) (int32, uint32, error) {
	open := strings.Index(arg, "(")
	close := strings.LastIndex(arg, ")")
	if open < 0 || close < open {
		return 0, 0, fmt.Errorf("line %d: expected offset(base), got %q", line, arg)
	}
	offStr := strings.TrimSpace(arg[:open])
	off := int64(0)
	if offStr != "" {
		var err error
		off, err = a.value(offStr, line)
		if err != nil {
			return 0, 0, err
		}
	}
	base, err := reg(arg[open+1:close], line)
	if err != nil {
		return 0, 0, err
	}
	return int32(off), base, nil
}
