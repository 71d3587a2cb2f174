package check

// Stage-cost lint: estimate each stage's combinational critical path from
// a delay model and warn when it exceeds the clock budget.
//
// The estimator tracks a per-variable dependent-chain depth in
// nanoseconds. Combinational assignments carry their RHS depth forward
// within the stage; latched values cross the stage register and restart
// at depth zero in the next stage. The warning points at the top-level
// expression of the statement that dominates the stage, which is where a
// pipelining cut helps.
//
// The model lives here (and not in internal/synth, whose presence-based
// TimingOf serves the area/fmax experiments) because check cannot import
// synth; synth exports LintCostModel to derive one from its technology
// constants.

import (
	"fmt"

	"xpdl/internal/diag"
	"xpdl/internal/pdl/ast"
	"xpdl/internal/pdl/token"
)

// CostOp buckets combinational hardware by cost class: the stage-cost
// lint's delay lookup here, and internal/ir's per-stage operation
// inventory, which synth's area and timing tables are keyed by.
type CostOp int

// Operation classes.
const (
	CostAdd   CostOp = iota // adders/subtractors
	CostMul                 // multipliers
	CostDiv                 // dividers
	CostCmp                 // comparators
	CostLogic               // bitwise gates
	CostShift               // shifters
	CostMux                 // multiplexers (ternaries, predicated updates)
	CostMemRd               // memory read ports touched
	CostMemWr               // memory write ports touched
	CostLock                // lock-control operations
	CostSpec                // speculation-table operations
	CostCtl                 // exception control (lef/gef/pipeclear/abort...)
)

var costOpNames = [...]string{
	CostAdd: "add", CostMul: "mul", CostDiv: "div", CostCmp: "cmp", CostLogic: "logic",
	CostShift: "shift", CostMux: "mux", CostMemRd: "memrd", CostMemWr: "memwr",
	CostLock: "lock", CostSpec: "spec", CostCtl: "ctl",
}

// String names the class.
func (o CostOp) String() string { return costOpNames[o] }

// CostModel gives per-operation chain delays in nanoseconds.
type CostModel struct {
	// ClockOverheadNS (clk->q + setup + margin) is charged once per stage.
	ClockOverheadNS float64
	OpNS            map[CostOp]float64
	ExternNS        map[string]float64
	// DefaultExternNS is used for externs missing from ExternNS.
	DefaultExternNS float64
}

func (m *CostModel) op(o CostOp) float64 { return m.OpNS[o] }
func (m *CostModel) extern(n string) float64 {
	if d, ok := m.ExternNS[n]; ok {
		return d
	}
	return m.DefaultExternNS
}

func (c *checker) stageCostPass(model *CostModel, budgetNS float64) {
	est := &costEstimator{c: c, model: model, funcDepth: make(map[string]float64)}
	for _, p := range c.prog.Pipes {
		est.pipe(p, budgetNS)
	}
}

type costEstimator struct {
	c         *checker
	model     *CostModel
	funcDepth map[string]float64 // internal depth of in-language funcs, memoized

	depth map[string]float64 // var -> chain depth in the current stage

	// Dominating statement of the current stage.
	maxDepth float64
	maxPos   token.Pos
}

func (e *costEstimator) pipe(p *ast.PipeDecl, budgetNS float64) {
	e.depth = make(map[string]float64)
	report := func(region string, stage int) {
		total := e.model.ClockOverheadNS + e.maxDepth
		if total > budgetNS && e.maxPos.IsValid() {
			e.c.diags.Add(diag.Diagnostic{
				Pos: e.maxPos, Severity: diag.Warning, Code: "W-STAGE-COST",
				Message: fmt.Sprintf("%s stage %d of pipe %s has an estimated critical path of %.2f ns, over the %.2f ns budget", region, stage, p.Name, total, budgetNS),
				Notes: []string{
					fmt.Sprintf("%.2f ns of logic plus %.2f ns clock overhead; this expression dominates — latch an intermediate value (---) to split the chain", e.maxDepth, e.model.ClockOverheadNS),
				},
			})
		}
	}
	walk := func(region string, stages [][]ast.Stmt) {
		for i, st := range stages {
			latched := make(map[string]bool)
			e.maxDepth, e.maxPos = 0, token.Pos{}
			for _, s := range st {
				e.stmt(s, 0, latched)
			}
			report(region, i)
			// Latched values cross the stage register: next stage reads
			// them at depth 0. Combinational values do not survive.
			e.depth = make(map[string]float64)
			for name := range latched {
				e.depth[name] = 0
			}
		}
	}
	walk("body", ast.SplitStages(p.Body))
	if p.Commit != nil {
		walk("commit", ast.SplitStages(p.Commit))
	}
	if p.Except != nil {
		e.depth = make(map[string]float64)
		walk("except", ast.SplitStages(p.Except))
	}
}

// note records a candidate for the stage's dominating statement.
func (e *costEstimator) note(d float64, pos token.Pos) {
	if d > e.maxDepth {
		e.maxDepth, e.maxPos = d, pos
	}
}

// stmt accumulates statement cost. base is the accumulated condition
// depth of enclosing ifs: statements under a condition cannot resolve
// before the condition does, and their assignments pay a mux.
func (e *costEstimator) stmt(s ast.Stmt, base float64, latched map[string]bool) {
	switch n := s.(type) {
	case *ast.Assign:
		d := base + e.expr(n.RHS)
		if base > 0 {
			d += e.model.op(CostMux)
		}
		e.note(d, n.RHS.ExprPos())
		if n.Latched {
			latched[n.Name] = true
		} else {
			e.depth[n.Name] = d
		}
	case *ast.MemWrite:
		d := base + maxf(e.expr(n.Index), e.expr(n.RHS)) + e.model.op(CostMemWr)
		e.note(d, n.RHS.ExprPos())
	case *ast.VolWrite:
		e.note(base+e.expr(n.RHS), n.RHS.ExprPos())
	case *ast.If:
		cond := base + e.expr(n.Cond)
		e.note(cond, n.Cond.ExprPos())
		for _, ts := range n.Then {
			e.stmt(ts, cond, latched)
		}
		for _, es := range n.Else {
			e.stmt(es, cond, latched)
		}
	case *ast.Lock:
		d := base + e.model.op(CostLock)
		if n.Index != nil {
			d += e.expr(n.Index)
		}
		e.note(d, n.StmtPos())
	case *ast.Throw:
		d := base + e.model.op(CostCtl)
		for _, a := range n.Args {
			d = maxf(d, base+e.expr(a)+e.model.op(CostCtl))
		}
		e.note(d, n.StmtPos())
	case *ast.Call:
		for _, a := range n.Args {
			e.note(base+e.expr(a)+e.model.op(CostCtl), a.ExprPos())
		}
		if n.Result != "" {
			latched[n.Result] = true
		}
	case *ast.SpecCall:
		for _, a := range n.Args {
			e.note(base+e.expr(a)+e.model.op(CostSpec), a.ExprPos())
		}
		e.depth[n.Handle] = base + e.model.op(CostSpec)
	case *ast.Verify, *ast.Invalidate, *ast.SpecCheck, *ast.SpecBarrier:
		e.note(base+e.model.op(CostSpec), s.StmtPos())
	case *ast.Return:
		e.note(base+e.expr(n.Value), n.Value.ExprPos())
	}
}

// expr returns the dependent-chain depth of an expression.
func (e *costEstimator) expr(x ast.Expr) float64 {
	m := e.model
	switch n := x.(type) {
	case *ast.IntLit, *ast.BoolLit:
		return 0
	case *ast.Ident:
		return e.depth[n.Name] // consts, params, latched values: 0
	case *ast.Unary:
		return e.expr(n.X) + m.op(CostLogic)
	case *ast.Binary:
		return maxf(e.expr(n.L), e.expr(n.R)) + m.op(BinCost(n.Op))
	case *ast.Ternary:
		return maxf(e.expr(n.Cond), maxf(e.expr(n.Then), e.expr(n.Else))) + m.op(CostMux)
	case *ast.CallExpr:
		var args float64
		for _, a := range n.Args {
			args = maxf(args, e.expr(a))
		}
		return args + e.callCost(n.Name)
	case *ast.MemRead:
		return e.expr(n.Index) + m.op(CostMemRd)
	case *ast.Slice:
		return e.expr(n.X) // bit selection is wiring
	case *ast.FieldAccess:
		return e.expr(n.X)
	}
	return 0
}

// callCost is the internal delay of a named callable: builtin, extern,
// or in-language function (inlined, memoized).
func (e *costEstimator) callCost(name string) float64 {
	m := e.model
	switch name {
	case "cat":
		return 0 // concatenation is wiring
	case "ext", "sext":
		return m.op(CostLogic)
	case "lts", "les", "gts", "ges":
		return m.op(CostCmp)
	case "shra":
		return m.op(CostShift)
	case "divs", "rems":
		return m.op(CostDiv)
	case "mulfull":
		return m.op(CostMul)
	}
	if e.c.externs[name] != nil {
		return m.extern(name)
	}
	if f := e.c.funcs[name]; f != nil {
		return e.inlineFuncDepth(f)
	}
	return 0
}

// inlineFuncDepth computes the internal chain depth of an in-language
// function: its return expression's depth with all parameters at 0.
func (e *costEstimator) inlineFuncDepth(f *ast.FuncDecl) float64 {
	if d, ok := e.funcDepth[f.Name]; ok {
		return d
	}
	e.funcDepth[f.Name] = 0 // break recursion; funcs cannot recurse anyway
	saved := e.depth
	e.depth = make(map[string]float64)
	var ret float64
	for _, s := range f.Body {
		switch n := s.(type) {
		case *ast.Assign:
			e.depth[n.Name] = e.expr(n.RHS)
		case *ast.If:
			cond := e.expr(n.Cond)
			for _, b := range [][]ast.Stmt{n.Then, n.Else} {
				for _, ts := range b {
					if a, ok := ts.(*ast.Assign); ok {
						e.depth[a.Name] = cond + e.expr(a.RHS) + e.model.op(CostMux)
					}
				}
			}
		case *ast.Return:
			ret = e.expr(n.Value)
		}
	}
	e.depth = saved
	e.funcDepth[f.Name] = ret
	return ret
}

// BinCost classifies a binary operator.
func BinCost(op ast.BinOp) CostOp {
	switch op {
	case ast.OpAdd, ast.OpSub:
		return CostAdd
	case ast.OpMul:
		return CostMul
	case ast.OpDiv, ast.OpMod:
		return CostDiv
	case ast.OpEq, ast.OpNe, ast.OpLt, ast.OpLe, ast.OpGt, ast.OpGe:
		return CostCmp
	case ast.OpShl, ast.OpShr:
		return CostShift
	default: // and/or/xor, logical and/or
		return CostLogic
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
