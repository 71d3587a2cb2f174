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
)

// Info is the result of a successful check: the resolved program plus the
// facts later phases (translation, lowering, simulation) need.
type Info struct {
	Prog   *ast.Program
	Consts map[string]Const
	Pipes  map[string]*PipeInfo
	// TernaryWidth holds the checked width of every ternary with one
	// unsized-literal arm and one sized arm. The ternary has the sized
	// arm's type, so its unsized arm, when taken, adapts to this width.
	TernaryWidth map[*ast.Ternary]int
}

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
			Prog:         prog,
			Consts:       make(map[string]Const),
			Pipes:        make(map[string]*PipeInfo),
			TernaryWidth: make(map[*ast.Ternary]int),
		},
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

// evalConst folds a constant expression.
func (c *checker) evalConst(e ast.Expr) (Const, bool) {
	switch n := e.(type) {
	case *ast.IntLit:
		return Const{Value: n.Value, Width: n.Width}, true
	case *ast.BoolLit:
		return Const{Bool: n.Value, IsBool: true}, true
	case *ast.Ident:
		cv, ok := c.info.Consts[n.Name]
		return cv, ok
	case *ast.Unary:
		x, ok := c.evalConst(n.X)
		if !ok {
			return Const{}, false
		}
		switch n.Op {
		case ast.OpNot:
			return Const{Bool: !constTruth(x), IsBool: true}, true
		case ast.OpBNot:
			w := x.Width
			if w == 0 {
				w = 64
			}
			return Const{Value: ^x.Value & widthMask(w), Width: x.Width}, true
		case ast.OpNeg:
			w := x.Width
			if w == 0 {
				w = 64
			}
			return Const{Value: (-x.Value) & widthMask(w), Width: x.Width}, true
		}
	case *ast.Binary:
		l, ok1 := c.evalConst(n.L)
		r, ok2 := c.evalConst(n.R)
		if !ok1 || !ok2 {
			return Const{}, false
		}
		w := l.Width
		if w == 0 {
			w = r.Width
		}
		mw := w
		if mw == 0 {
			mw = 64
		}
		mask := widthMask(mw)
		switch n.Op {
		case ast.OpAdd:
			return Const{Value: (l.Value + r.Value) & mask, Width: w}, true
		case ast.OpSub:
			return Const{Value: (l.Value - r.Value) & mask, Width: w}, true
		case ast.OpMul:
			return Const{Value: (l.Value * r.Value) & mask, Width: w}, true
		case ast.OpShl:
			return Const{Value: (l.Value << (r.Value & 63)) & mask, Width: w}, true
		case ast.OpShr:
			return Const{Value: (l.Value >> (r.Value & 63)) & mask, Width: w}, true
		case ast.OpOr:
			return Const{Value: l.Value | r.Value, Width: w}, true
		case ast.OpAnd:
			return Const{Value: l.Value & r.Value, Width: w}, true
		case ast.OpXor:
			return Const{Value: l.Value ^ r.Value, Width: w}, true
		case ast.OpEq:
			return Const{Bool: l.Value == r.Value, IsBool: true}, true
		case ast.OpNe:
			return Const{Bool: l.Value != r.Value, IsBool: true}, true
		case ast.OpLt:
			return Const{Bool: l.Value < r.Value, IsBool: true}, true
		case ast.OpLe:
			return Const{Bool: l.Value <= r.Value, IsBool: true}, true
		case ast.OpGt:
			return Const{Bool: l.Value > r.Value, IsBool: true}, true
		case ast.OpGe:
			return Const{Bool: l.Value >= r.Value, IsBool: true}, true
		}
	}
	return Const{}, false
}

func constTruth(cv Const) bool {
	if cv.IsBool {
		return cv.Bool
	}
	return cv.Value != 0
}

func widthMask(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(w)) - 1
}

// ConstInt extracts a compile-time integer from an expression if possible.
func (c *checker) constInt(e ast.Expr) (uint64, bool) {
	cv, ok := c.evalConst(e)
	if !ok || cv.IsBool {
		return 0, false
	}
	return cv.Value, true
}
