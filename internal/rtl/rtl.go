// Package rtl parses and evaluates the synthesizable Verilog subset that
// internal/synth emits, turning the compiler's Verilog backend from
// write-only output into an executable compilation target.
//
// The subset covers exactly what the emitter produces:
//
//   - one flat module per pipeline with ANSI-style ports (clk/rst, the
//     schedule inputs, volatile device-write ports, retire observation
//     outputs);
//   - scalar and array reg/wire declarations (one declarator each);
//   - continuous assigns;
//   - always @* blocks with blocking assigns (combinational logic);
//   - always @(posedge clk) blocks with nonblocking assigns for register
//     commits plus blocking assigns to scratch regs (the entry-queue
//     compaction block);
//   - the expression operators the emitter uses, including $signed for
//     the signed builtins, concatenation/replication, constant part
//     selects, bit selects, array indexing, and extern function calls;
//   - blackbox library modules (mem_*/vol_*/ext_*), parsed and retained
//     for documentation but not elaborated.
//
// Width semantics are XPDL's, not IEEE 1364's: operations take the width
// of the left operand and unsized literals adapt to the other side —
// exactly internal/val and the simulator's rules. FuzzRTLExpr locks this
// equivalence. Division by zero yields all-ones (RISC-V convention)
// rather than X; there are no X/Z values at all, matching val.Value.
//
// Elaborate compiles a module once: every scalar and memory gets a slot
// in the model's state, every statement and expression becomes a
// closure over those slots (names, arities and static errors are all
// resolved here), and the continuous assigns and always @* blocks are
// ordered by what they read and write. Evaluation is then two-phase,
// like a synchronous netlist: Settle() runs the combinational logic in
// that order, once — only a strongly connected group iterates, to a
// fixpoint, and one that never converges is a combinational loop —
// then Clock() runs the posedge blocks and commits nonblocking assigns
// atomically.
package rtl

import (
	"fmt"

	"xpdl/internal/val"
)

// ---------------------------------------------------------------------------
// AST

// File is one parsed Verilog source: a list of modules.
type File struct {
	Modules []*Module
}

// Module looks a module up by name.
func (f *File) Module(name string) *Module {
	for _, m := range f.Modules {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// PortDir distinguishes input and output ports.
type PortDir int

// Port directions.
const (
	Input PortDir = iota
	Output
)

// Port is one ANSI-style module port.
type Port struct {
	Name  string
	Dir   PortDir
	Width int
}

// Decl is one internal signal declaration. Depth 0 declares a scalar;
// Depth > 0 declares an unpacked array ("reg [31:0] rf_arr [0:31];").
type Decl struct {
	Name  string
	Width int
	Depth int
	IsReg bool
}

// ContAssign is a continuous assignment to a scalar wire.
type ContAssign struct {
	LHS string
	RHS Expr
}

// Block is one always block. Comb blocks run during Settle; sequential
// blocks run during Clock.
type Block struct {
	Stmts []Stmt
}

// Module is one parsed module.
type Module struct {
	Name    string
	Ports   []Port
	Decls   []Decl
	Assigns []ContAssign
	Combs   []*Block // always @*
	Seqs    []*Block // always @(posedge clk)
}

// Stmt is a procedural statement.
type Stmt interface{ stmtNode() }

// LValue is an assignment target: a scalar signal or one array element.
type LValue struct {
	Name  string
	Index Expr // nil for scalars
}

// AssignStmt is a (possibly concat-target) blocking or nonblocking
// assignment. Multiple targets model "{a, b, c} = extern(...)": the
// call's results bind to the targets in declaration order.
type AssignStmt struct {
	Targets     []LValue
	RHS         Expr
	NonBlocking bool
}

func (*AssignStmt) stmtNode() {}

// IfStmt is a two-armed conditional.
type IfStmt struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
}

func (*IfStmt) stmtNode() {}

// Expr is an expression node.
type Expr interface{ exprNode() }

// Num is a literal. Unsized literals (bare decimals) evaluate at 64 bits
// and adapt to the other operand's width, XPDL-style.
type Num struct {
	Val     uint64
	Width   int
	Unsized bool
}

// Ref is a scalar signal reference.
type Ref struct{ Name string }

// Index is name[expr]: an array element select, or a bit select when the
// name resolves to a scalar.
type Index struct {
	Name string
	I    Expr
}

// PartSel is name[hi:lo] with constant bounds.
type PartSel struct {
	Name   string
	Hi, Lo int
}

// Concat is {a, b, ...}, MSB first.
type Concat struct{ Parts []Expr }

// Repl is {n{x}}.
type Repl struct {
	N int
	X Expr
}

// Unary is !x, ~x or -x.
type Unary struct {
	Op byte // '!', '~', '-'
	X  Expr
}

// Binary is a binary operation. Op is the Verilog spelling; ">>>" is the
// arithmetic right shift.
type Binary struct {
	Op   string
	L, R Expr
}

// Ternary is c ? a : b.
type Ternary struct{ Cond, Then, Else Expr }

// CallExpr invokes a bound extern function.
type CallExpr struct {
	Name string
	Args []Expr
}

// Signed is $signed(x): it marks the operand so comparisons, shifts and
// divisions pick the signed variant, mirroring XPDL's lts/shra/divs
// builtins.
type Signed struct{ X Expr }

func (*Num) exprNode()      {}
func (*Ref) exprNode()      {}
func (*Index) exprNode()    {}
func (*PartSel) exprNode()  {}
func (*Concat) exprNode()   {}
func (*Repl) exprNode()     {}
func (*Unary) exprNode()    {}
func (*Binary) exprNode()   {}
func (*Ternary) exprNode()  {}
func (*CallExpr) exprNode() {}
func (*Signed) exprNode()   {}

// Func binds an extern function name to a Go implementation. Args are
// resized to Params before the call and are only valid for its
// duration (the model reuses the slice); Results declares the width of
// each returned value, in the order they bind to a concat target.
type Func struct {
	Params  []int
	Results []int
	Fn      func(args []val.Value) []val.Value
}

// Error is a structured elaboration/evaluation error.
type Error struct {
	Module string
	Msg    string
}

func (e *Error) Error() string {
	if e.Module == "" {
		return "rtl: " + e.Msg
	}
	return fmt.Sprintf("rtl: module %s: %s", e.Module, e.Msg)
}

func errf(mod, format string, args ...any) *Error {
	return &Error{Module: mod, Msg: fmt.Sprintf(format, args...)}
}
