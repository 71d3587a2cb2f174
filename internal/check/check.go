// Package check implements XPDL's static analyses.
//
// Base-PDL analyses run first: name resolution, type checking, def-use
// across stages (a latched value is visible only from the next stage), and
// lock discipline (reserve before block before release; writes only under
// an owned write lock). For pipelines with final blocks, the XPDL rules of
// §3.5 of the paper are enforced on top:
//
//	Rule 1: the except block is self-contained (1a: write locks acquired in
//	        it are released in it; 1b: no asynchronous reads in its last
//	        stage; 1c: recursive calls only in its last stage).
//	Rule 2: final blocks are non-speculative.
//	Rule 3: write locks acquired in the body are released in the commit
//	        block and not before.
//	Rule 4: the commit block performs no stateful operation besides
//	        releasing locks.
//
// Volatile memories (§3.6) get their own placement rules: reads only in
// non-speculative in-order regions, writes only in final blocks, and no
// lock operations ever.
//
// All findings are emitted as structured diag.Diagnostics with stable
// codes (DIAGNOSTICS.md lists them). On top of the error analyses, three
// whole-program warning passes run when a program is otherwise valid:
// static lock-order deadlock detection (lockorder.go), dead-code and
// unused-entity detection (deadcode.go), and the stage-cost lint
// (cost.go). Use Analyze for the full structured interface; Check is the
// legacy error-only entry point.
package check

import (
	"fmt"

	"xpdl/internal/diag"
	"xpdl/internal/pdl/ast"
	"xpdl/internal/pdl/token"
	"xpdl/internal/val"
)

// Info is the result of a successful check: the resolved program plus the
// facts later phases (translation, lowering, simulation) need.
type Info struct {
	Prog   *ast.Program
	Consts map[string]Const
	Pipes  map[string]*PipeInfo
	// types records every source expression the checker typed, in the
	// manner of go/types' Info.Types: its checked type and, for a
	// constant the checker folded (slice bounds, ext/sext widths,
	// constant identifiers and their subexpressions), its value. It is
	// the one width rule: every engine and the Verilog emitter read how
	// wide an expression is, and whether it is unsized and adapts to its
	// context, from here (TypeAndValue and the methods below). Only the
	// nodes the translator creates (EArgRef, GefRef, LefRef) are absent.
	// An entry indexes tvs, which holds each distinct TypeAndValue once
	// (a compiled design stays in a daemon's cache); index 0 is the zero
	// TypeAndValue, kind TInvalid, that a missing entry reads.
	types map[ast.Expr]int32
	tvs   []TypeAndValue
}

// TypeAndValue is one expression's entry in the checker's type table.
type TypeAndValue struct {
	Type ast.Type
	// Value is the folded value when Const is set.
	Value uint64
	Const bool
}

// TypeAndValue returns e's entry in the type table. An expression the
// checker never typed has the zero entry, whose type has kind TInvalid.
func (info *Info) TypeAndValue(e ast.Expr) TypeAndValue { return info.tvs[info.types[e]] }

// TypeOf returns e's checked type, kind TInvalid when the checker never
// typed e.
func (info *Info) TypeOf(e ast.Expr) ast.Type { return info.TypeAndValue(e).Type }

// Unsized reports whether e is typed as an unsized uint: a literal
// tree, or a shift of one, whose width adapts to its context.
func (info *Info) Unsized(e ast.Expr) bool { return isUnsized(info.TypeOf(e)) }

// ArmWidths is the width rule of a ternary: an unsized arm of a sized
// ternary, when taken, adapts to the ternary's type. It reports the
// width each arm adapts to, 0 for none.
func (info *Info) ArmWidths(n *ast.Ternary) (then, els int) {
	if info.Unsized(n) {
		return 0, 0
	}
	w := info.TypeOf(n).BitWidth()
	if info.Unsized(n.Then) {
		then = w
	}
	if info.Unsized(n.Else) {
		els = w
	}
	return then, els
}

// AdaptSides is the width rule of a binary operator: when the operand
// widths differ, an unsized operand takes the other one's width (adaptL,
// else adaptR). A shift has its left operand's type and never adapts.
func (info *Info) AdaptSides(n *ast.Binary) (adaptL, adaptR bool) {
	if n.Op == ast.OpShl || n.Op == ast.OpShr {
		return false, false
	}
	adaptL = info.Unsized(n.L)
	return adaptL, !adaptL && info.Unsized(n.R)
}

// IntValue returns the folded value of a constant operand the checker
// validated: a slice bound or an ext/sext width.
func (info *Info) IntValue(e ast.Expr) int { return int(info.TypeAndValue(e).Value) }

// Const is an evaluated compile-time constant. Width 0 means the constant
// adopts its width from context, like an unsized literal.
type Const struct {
	Value  uint64
	Width  int
	Bool   bool
	IsBool bool
}

// PipeInfo records per-pipeline analysis facts.
type PipeInfo struct {
	Decl *ast.PipeDecl
	// Vars maps every local variable (including params and spec handles)
	// to its type.
	Vars map[string]ast.Type
	// VarDefStage maps a variable to the body stage where it becomes
	// available (after latching). Params are stage 0. Variables local to
	// the except block are recorded with stage offset into the except
	// chain plus ExceptBase.
	VarDefStage map[string]int
	// BodyStages counts stages in the pipeline body; CommitStages and
	// ExceptStages count the final blocks (0 when absent).
	BodyStages   int
	CommitStages int
	ExceptStages int
	// BarrierStage is the body stage containing spec_barrier, or -1.
	BarrierStage int
	// UsesSpeculation reports whether any speculation API call appears.
	UsesSpeculation bool
	// WriteLocks lists the lock keys (mem or mem[idx] spelled as source)
	// write-reserved in the body, in reservation order. The translator
	// emits one abort per underlying memory.
	WriteLocks []string
	// LockedMems is the set of memories that have any lock operation.
	LockedMems map[string]bool
}

// ExceptBase offsets except-block stage numbering in VarDefStage so body
// and except stages do not collide.
const ExceptBase = 1000

// Options configures Analyze.
type Options struct {
	// MaxErrors caps the number of stored error diagnostics; when the
	// cap trips, a final E-LIMIT diagnostic counts the suppressed rest.
	// 0 means diag.DefaultMaxErrors.
	MaxErrors int
	// StageBudgetNS enables the stage-cost lint: stages whose estimated
	// combinational depth exceeds the budget get a W-STAGE-COST warning.
	// 0 disables the lint.
	StageBudgetNS float64
	// Cost is the delay model for the stage-cost lint (internal/synth
	// derives one from its synthesis cost model). nil disables the lint.
	Cost *CostModel
	// NoWarnings suppresses the whole-program warning passes; error
	// analyses still run.
	NoWarnings bool
}

// Check runs all static analyses over a parsed program, returning an
// error that joins the error diagnostics (warnings are not computed).
// It is the legacy entry point; new callers should prefer Analyze.
func Check(prog *ast.Program) (*Info, error) {
	info, diags := Analyze(prog, Options{NoWarnings: true})
	if err := diag.ToError(diags); err != nil {
		return nil, err
	}
	return info, nil
}

// Analyze runs every static analysis over a parsed program and returns
// the analysis facts plus all diagnostics, sorted by source position.
// The Info is valid only when no error diagnostics are present. Warning
// passes (lock order, dead code, stage cost) run only on error-free
// programs, where the resolution facts they rely on are trustworthy.
func Analyze(prog *ast.Program, opts Options) (*Info, []diag.Diagnostic) {
	c := &checker{
		prog:  prog,
		diags: &diag.List{Max: opts.MaxErrors},
		info: &Info{
			Prog:   prog,
			Consts: make(map[string]Const),
			Pipes:  make(map[string]*PipeInfo),
			types:  make(map[ast.Expr]int32),
			tvs:    make([]TypeAndValue, 1),
		},
		tvIdx:       make(map[tvKey]int32),
		lockSeq:     make(map[string][]lockEvent),
		usedMems:    make(map[string]bool),
		writtenMems: make(map[string]bool),
		usedVols:    make(map[string]bool),
		usedExterns: make(map[string]bool),
		usedFuncs:   make(map[string]bool),
		usedConsts:  make(map[string]bool),
	}
	c.collect()
	for _, f := range prog.Funcs {
		c.checkFunc(f)
	}
	for _, p := range prog.Pipes {
		c.checkPipe(p)
	}
	if !opts.NoWarnings && !c.diags.HasErrors() {
		c.lockOrderPass()
		c.deadCodePass()
		if opts.StageBudgetNS > 0 && opts.Cost != nil {
			c.stageCostPass(opts.Cost, opts.StageBudgetNS)
		}
	}
	diags := c.diags.Flush()
	diag.Sort(diags)
	if c.diags.HasErrors() {
		return nil, diags
	}
	return c.info, diags
}

type checker struct {
	prog  *ast.Program
	info  *Info
	diags *diag.List

	externs map[string]*ast.ExternDecl
	funcs   map[string]*ast.FuncDecl
	mems    map[string]*ast.MemDecl
	vols    map[string]*ast.VolDecl
	pipes   map[string]*ast.PipeDecl

	// lockSeq records, per pipeline, the textual sequence of lock
	// operations for the static lock-order analysis.
	lockSeq map[string][]lockEvent
	// pipeLocals collects per-pipeline (and per-function) local-variable
	// usage for the dead-code pass, in declaration order.
	pipeLocals []*localUsage

	// tvIdx finds the shared Info.tvs entry of a scalar TypeAndValue.
	tvIdx map[tvKey]int32

	// Whole-program use sets for the dead-code pass.
	usedMems    map[string]bool
	writtenMems map[string]bool
	usedVols    map[string]bool
	usedExterns map[string]bool
	usedFuncs   map[string]bool
	usedConsts  map[string]bool
}

func (c *checker) errorf(pos token.Pos, code, format string, args ...interface{}) {
	c.diags.Errorf(pos, code, format, args...)
}

func (c *checker) warnf(pos token.Pos, code, format string, args ...interface{}) {
	c.diags.Warnf(pos, code, format, args...)
}

// collect resolves top-level declarations and evaluates constants.
func (c *checker) collect() {
	c.externs = make(map[string]*ast.ExternDecl)
	c.funcs = make(map[string]*ast.FuncDecl)
	c.mems = make(map[string]*ast.MemDecl)
	c.vols = make(map[string]*ast.VolDecl)
	c.pipes = make(map[string]*ast.PipeDecl)

	seen := map[string]token.Pos{}
	declare := func(name string, pos token.Pos) bool {
		if prev, dup := seen[name]; dup {
			c.diags.Add(diag.Diagnostic{
				Pos: pos, Severity: diag.Error, Code: "E-REDECL",
				Message: fmt.Sprintf("%s redeclared (previously at %s)", name, prev),
				Related: []diag.Related{{Pos: prev, Message: "first declaration here"}},
			})
			return false
		}
		seen[name] = pos
		return true
	}
	for _, m := range c.prog.Mems {
		if declare(m.Name, m.Pos) {
			c.mems[m.Name] = m
		}
		if m.Elem.Kind != ast.TUInt {
			c.errorf(m.Pos, "E-TYPE", "memory %s must hold uint elements", m.Name)
		}
	}
	for _, v := range c.prog.Vols {
		if declare(v.Name, v.Pos) {
			c.vols[v.Name] = v
		}
	}
	for _, e := range c.prog.Externs {
		if declare(e.Name, e.Pos) {
			c.externs[e.Name] = e
		}
	}
	for _, f := range c.prog.Funcs {
		if declare(f.Name, f.Pos) {
			c.funcs[f.Name] = f
		}
	}
	for _, p := range c.prog.Pipes {
		if declare(p.Name, p.Pos) {
			c.pipes[p.Name] = p
		}
	}
	for _, cd := range c.prog.Consts {
		if !declare(cd.Name, cd.Pos) {
			continue
		}
		cv, ok := c.evalConst(cd.Value)
		if !ok {
			c.errorf(cd.Pos, "E-CONST", "const %s is not a compile-time constant", cd.Name)
			continue
		}
		c.info.Consts[cd.Name] = cv
	}
}

// evalConst folds a constant expression and records every node it
// folds, with its value, in the type table.
func (c *checker) evalConst(e ast.Expr) (Const, bool) {
	cv, ok := c.fold(e)
	if ok {
		tv := TypeAndValue{Type: ast.UIntType0(cv.Width), Value: cv.val().Uint(), Const: true}
		if cv.IsBool {
			tv.Type = ast.BoolType()
		}
		c.record(e, tv)
	}
	return cv, ok
}

// tvKey identifies a scalar TypeAndValue, for sharing one tvs entry.
type tvKey struct {
	kind    ast.TypeKind
	width   int
	value   uint64
	isConst bool
}

// record enters e in the type table.
func (c *checker) record(e ast.Expr, tv TypeAndValue) {
	k := tvKey{tv.Type.Kind, tv.Type.Width, tv.Value, tv.Const}
	i, ok := c.tvIdx[k]
	if !ok || tv.Type.Kind == ast.TRecord {
		i = int32(len(c.info.tvs))
		c.info.tvs = append(c.info.tvs, tv)
		if tv.Type.Kind != ast.TRecord {
			c.tvIdx[k] = i
		}
	}
	c.info.types[e] = i
}

// fold computes a constant with the engines' arithmetic (internal/val)
// and width rule: an unsized operand takes its sized partner's width,
// except across a shift, which has its left operand's width.
func (c *checker) fold(e ast.Expr) (Const, bool) {
	switch n := e.(type) {
	case *ast.IntLit:
		return Const{Value: n.Value, Width: n.Width}, true
	case *ast.BoolLit:
		return Const{Bool: n.Value, IsBool: true}, true
	case *ast.Ident:
		cv, ok := c.info.Consts[n.Name]
		if ok {
			c.usedConsts[n.Name] = true
		}
		return cv, ok
	case *ast.Unary:
		x, ok := c.evalConst(n.X)
		switch {
		case !ok:
			return Const{}, false
		case n.Op == ast.OpNot:
			return Const{Bool: !x.val().IsTrue(), IsBool: true}, true
		case x.IsBool:
			return Const{}, false // ~ and - need a uint
		case n.Op == ast.OpBNot:
			return Const{Value: x.val().Not().Uint(), Width: x.Width}, true
		case n.Op == ast.OpNeg:
			return Const{Value: x.val().Neg().Uint(), Width: x.Width}, true
		}
	case *ast.Binary:
		l, okL := c.evalConst(n.L)
		r, okR := c.evalConst(n.R)
		op, okOp := foldOps[n.Op]
		if !okL || !okR || !okOp {
			return Const{}, false
		}
		lv, rv := l.val(), r.val()
		shift := n.Op == ast.OpShl || n.Op == ast.OpShr
		switch {
		case shift:
		case l.unsized() && !r.unsized():
			lv = val.New(lv.Uint(), rv.Width())
		case r.unsized() && !l.unsized():
			rv = val.New(rv.Uint(), lv.Width())
		}
		v := op(lv, rv)
		switch n.Op {
		case ast.OpEq, ast.OpNe, ast.OpLt, ast.OpLe, ast.OpGt, ast.OpGe:
			return Const{Bool: v.IsTrue(), IsBool: true}, true
		}
		switch {
		case l.IsBool || r.IsBool:
			return Const{}, false
		case l.unsized() && (shift || r.unsized()):
			return Const{Value: v.Uint()}, true
		}
		return Const{Value: v.Uint(), Width: v.Width()}, true
	}
	return Const{}, false
}

// foldOps are the operators a constant expression may use.
var foldOps = map[ast.BinOp]func(val.Value, val.Value) val.Value{
	ast.OpAdd: val.Value.Add, ast.OpSub: val.Value.Sub, ast.OpMul: val.Value.Mul,
	ast.OpShl: val.Value.Shl, ast.OpShr: val.Value.ShrU,
	ast.OpOr: val.Value.Or, ast.OpAnd: val.Value.And, ast.OpXor: val.Value.Xor,
	ast.OpEq: val.Value.EqV, ast.OpNe: val.Value.NeV,
	ast.OpLt: val.Value.LtU, ast.OpLe: val.Value.LeU, ast.OpGt: val.Value.GtU, ast.OpGe: val.Value.GeU,
}

// val is the constant as the engines hold it: an unsized one at 64
// bits.
func (cv Const) val() val.Value {
	if cv.IsBool {
		return val.Bool(cv.Bool)
	}
	w := cv.Width
	if w == 0 {
		w = 64
	}
	return val.New(cv.Value, w)
}

func (cv Const) unsized() bool { return !cv.IsBool && cv.Width == 0 }

// ConstInt extracts a compile-time integer from an expression if possible.
func (c *checker) constInt(e ast.Expr) (uint64, bool) {
	cv, ok := c.evalConst(e)
	if !ok || cv.IsBool {
		return 0, false
	}
	return cv.Value, true
}
