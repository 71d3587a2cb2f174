// Package ir lowers translated XPDL pipelines into a structural
// description: the stage graph with, per stage, an inventory of hardware
// operations and, per stage boundary, the pipeline-register width implied
// by cross-stage variable liveness.
//
// The simulator interprets the translated AST directly; this package
// exists for the backends that need structure rather than behaviour — the
// area/critical-path cost model and the Verilog emitter (internal/synth).
package ir

import (
	"sort"

	"xpdl/internal/check"
	"xpdl/internal/core"
	"xpdl/internal/pdl/ast"
)

// OpCount is one operation-class tally with the summed operand width.
type OpCount struct {
	Count int
	Bits  int // total operand bits across occurrences
}

// Stage is one pipeline stage with its operation inventory.
type Stage struct {
	// Kind is "body", "commit" or "except".
	Kind string
	// Index within its chain.
	Index int
	// Ops tallies combinational work by class.
	Ops map[check.CostOp]OpCount
	// Externs counts calls to each extern function.
	Externs map[string]int
	// InRegBits is the width of the pipeline register feeding this
	// stage (0 for the first body stage).
	InRegBits int
	// Throws counts throw sites lowered in this stage (priority-encode
	// depth on the critical path).
	Throws int
	// GefGuarded marks stages with the translated gef control path.
	GefGuarded bool
	// HasFork marks the final-block fork stage.
	HasFork bool
}

// Pipeline is a lowered pipeline.
type Pipeline struct {
	Name string
	// Body, Commit, Except are the stage chains (commit excludes the
	// stage merged into the body; except includes padding and rollback).
	Body, Commit, Except []*Stage
	// ArgBits is the width of the pipeline arguments (spawned with each
	// instruction).
	ArgBits int
	// EArgBits is the width of the canonical exception arguments.
	EArgBits int
	// Translated reports whether the pipeline has exception logic.
	Translated bool
	// AbortMems lists memories with generated abort paths.
	AbortMems []string
}

// Stages returns every stage in flow order.
func (p *Pipeline) Stages() []*Stage {
	out := append([]*Stage{}, p.Body...)
	out = append(out, p.Commit...)
	out = append(out, p.Except...)
	return out
}

// Design is a lowered program.
type Design struct {
	Pipelines []*Pipeline
	Info      *check.Info
}

// Lower builds the structural description of every pipeline.
func Lower(info *check.Info, trs map[string]*core.Result) *Design {
	d := &Design{Info: info}
	names := make([]string, 0, len(trs))
	for n := range trs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		d.Pipelines = append(d.Pipelines, lowerPipe(info, trs[n]))
	}
	return d
}

func lowerPipe(info *check.Info, tr *core.Result) *Pipeline {
	pi := info.Pipes[tr.Pipe.Name]
	lp := &lowering{info: info, pi: pi}
	p := &Pipeline{
		Name:       tr.Pipe.Name,
		Translated: tr.Translated,
		AbortMems:  tr.AbortMems,
	}
	for _, prm := range tr.Pipe.Params {
		p.ArgBits += prm.Type.BitWidth()
	}
	for _, a := range tr.EArgs {
		p.EArgBits += a.Type.BitWidth()
	}

	bodyStages := ast.SplitStages(tr.Pipe.Body)
	var forkStmt *ast.LefBranch
	for i, st := range bodyStages {
		stage := lp.newStage("body", i)
		for _, s := range st {
			if g, ok := s.(*ast.GefGuard); ok {
				stage.GefGuarded = true
				for _, inner := range g.Body {
					if fork, isFork := inner.(*ast.LefBranch); isFork {
						forkStmt = fork
						stage.HasFork = true
						continue
					}
					lp.stmt(stage, inner, i)
				}
				continue
			}
			lp.stmt(stage, s, i)
		}
		p.Body = append(p.Body, stage)
	}

	if forkStmt != nil {
		// Commit stage 0 merges into the fork stage.
		commitStages := ast.SplitStages(forkStmt.Commit)
		fork := p.Body[len(p.Body)-1]
		base := len(bodyStages) - 1
		for _, s := range commitStages[0] {
			lp.stmt(fork, s, base)
		}
		for i := 1; i < len(commitStages); i++ {
			stage := lp.newStage("commit", i)
			for _, s := range commitStages[i] {
				lp.stmt(stage, s, base+i)
			}
			p.Commit = append(p.Commit, stage)
		}
		excStages := ast.SplitStages(forkStmt.Except)
		for _, s := range excStages[0] {
			lp.stmt(fork, s, base)
		}
		for i := 1; i < len(excStages); i++ {
			stage := lp.newStage("except", i)
			for _, s := range excStages[i] {
				lp.stmt(stage, s, check.ExceptBase+i)
			}
			p.Except = append(p.Except, stage)
		}
	}

	lp.assignRegisters(p)
	return p
}

// lowering accumulates per-variable liveness while walking statements.
type lowering struct {
	info *check.Info
	pi   *check.PipeInfo
	// firstDef and lastUse are in the combined stage numbering used by
	// lowerPipe (body index, commit continues it, except offset by
	// check.ExceptBase).
	firstDef map[string]int
	lastUse  map[string]int
}

func (lp *lowering) newStage(kind string, index int) *Stage {
	if lp.firstDef == nil {
		lp.firstDef = make(map[string]int)
		lp.lastUse = make(map[string]int)
	}
	return &Stage{
		Kind:    kind,
		Index:   index,
		Ops:     make(map[check.CostOp]OpCount),
		Externs: make(map[string]int),
	}
}

func (lp *lowering) def(name string, stage int) {
	if _, ok := lp.firstDef[name]; !ok {
		lp.firstDef[name] = stage
	}
}

func (lp *lowering) use(name string, stage int) {
	if cur, ok := lp.lastUse[name]; !ok || stage > cur {
		lp.lastUse[name] = stage
	}
}

func (lp *lowering) varBits(name string) int {
	if t, ok := lp.pi.Vars[name]; ok {
		return t.BitWidth()
	}
	return 0
}

// assignRegisters turns liveness into per-boundary register widths. A
// variable defined in stage d and last used in stage u occupies the
// boundary registers feeding stages d+1..u. Pipeline arguments live from
// stage 0; lef and the eargs ride every boundary after their set point,
// which we approximate as the whole body (matching the translation's
// "one 1-bit register per stage" for lef).
func (lp *lowering) assignRegisters(p *Pipeline) {
	// boundaryBits[i] feeds stage chain position i (body numbering; the
	// commit tail continues it, then the except chain).
	all := p.Stages()
	bits := make([]int, len(all))

	stagePos := func(stage int) int {
		if stage >= check.ExceptBase {
			return len(p.Body) + len(p.Commit) + (stage - check.ExceptBase) - 1
		}
		return stage
	}

	for name, d := range lp.firstDef {
		u, used := lp.lastUse[name]
		if !used || u <= d {
			continue
		}
		w := lp.varBits(name)
		for pos := stagePos(d) + 1; pos <= stagePos(u) && pos < len(bits); pos++ {
			bits[pos] += w
		}
	}
	// Pipeline arguments ride to their last use.
	for _, prm := range lp.pi.Decl.Params {
		if u, used := lp.lastUse[prm.Name]; used {
			for pos := 1; pos <= stagePos(u) && pos < len(bits); pos++ {
				bits[pos] += prm.Type.BitWidth()
			}
		}
	}
	if p.Translated {
		for i := 1; i < len(bits); i++ {
			bits[i]++ // lef
			if all[i].Kind != "commit" {
				bits[i] += p.EArgBits
			}
		}
	}
	for i, s := range all {
		s.InRegBits = bits[i]
	}
}

func (st *Stage) add(c check.CostOp, n, bitsEach int) {
	oc := st.Ops[c]
	oc.Count += n
	oc.Bits += n * bitsEach
	st.Ops[c] = oc
}

func (lp *lowering) stmt(st *Stage, s ast.Stmt, stage int) {
	switch n := s.(type) {
	case *ast.Skip:
	case *ast.Assign:
		lp.expr(st, n.RHS, stage)
		lp.def(n.Name, stage)
	case *ast.VolWrite:
		lp.expr(st, n.RHS, stage)
		st.add(check.CostMemWr, 1, 32)
	case *ast.MemWrite:
		lp.expr(st, n.Index, stage)
		lp.expr(st, n.RHS, stage)
		st.add(check.CostMemWr, 1, 32)
	case *ast.If:
		lp.expr(st, n.Cond, stage)
		st.add(check.CostMux, 1, 32)
		for _, t := range n.Then {
			lp.stmt(st, t, stage)
		}
		for _, e := range n.Else {
			lp.stmt(st, e, stage)
		}
	case *ast.Lock:
		if n.Index != nil {
			lp.expr(st, n.Index, stage)
		}
		st.add(check.CostLock, 1, 8)
	case *ast.Call:
		for _, a := range n.Args {
			lp.expr(st, a, stage)
		}
		if n.Result != "" {
			lp.def(n.Result, stage+1)
		}
		st.add(check.CostCtl, 1, 8)
	case *ast.SpecCall:
		for _, a := range n.Args {
			lp.expr(st, a, stage)
		}
		lp.def(n.Handle, stage)
		st.add(check.CostSpec, 1, 8)
	case *ast.Verify:
		lp.expr(st, n.Handle, stage)
		st.add(check.CostSpec, 1, 4)
	case *ast.Invalidate:
		lp.expr(st, n.Handle, stage)
		st.add(check.CostSpec, 1, 4)
	case *ast.SpecCheck, *ast.SpecBarrier:
		st.add(check.CostSpec, 1, 4)
	case *ast.Return:
		lp.expr(st, n.Value, stage)
	case *ast.SetLEF:
		st.Throws++
		st.add(check.CostCtl, 1, 1)
	case *ast.SetEArg:
		lp.expr(st, n.Value, stage)
		st.add(check.CostCtl, 1, 32)
	case *ast.SetGEF:
		st.add(check.CostCtl, 1, 1)
	case *ast.PipeClear, *ast.SpecClear:
		st.add(check.CostCtl, 1, 8)
	case *ast.Abort:
		st.add(check.CostCtl, 1, 8)
	case *ast.Throw:
		// Pre-translation trees are not lowered; tolerate for tools.
		st.Throws++
	}
}

func (lp *lowering) expr(st *Stage, e ast.Expr, stage int) {
	switch n := e.(type) {
	case *ast.Ident:
		lp.use(n.Name, stage)
	case *ast.IntLit, *ast.BoolLit, *ast.EArgRef, *ast.LefRef, *ast.GefRef:
	case *ast.Unary:
		lp.expr(st, n.X, stage)
		st.add(check.CostLogic, 1, 32)
	case *ast.Binary:
		lp.expr(st, n.L, stage)
		lp.expr(st, n.R, stage)
		st.add(check.BinCost(n.Op), 1, 32)
	case *ast.Ternary:
		lp.expr(st, n.Cond, stage)
		lp.expr(st, n.Then, stage)
		lp.expr(st, n.Else, stage)
		st.add(check.CostMux, 1, 32)
	case *ast.CallExpr:
		for _, a := range n.Args {
			lp.expr(st, a, stage)
		}
		switch n.Name {
		case "ext", "sext", "cat":
			// Pure wiring.
		case "lts", "les", "gts", "ges":
			st.add(check.CostCmp, 1, 32)
		case "shra":
			st.add(check.CostShift, 1, 32)
		case "divs", "rems":
			st.add(check.CostDiv, 1, 32)
		case "mulfull":
			st.add(check.CostMul, 1, 32)
		default:
			st.Externs[n.Name]++
		}
	case *ast.MemRead:
		lp.expr(st, n.Index, stage)
		st.add(check.CostMemRd, 1, 32)
	case *ast.Slice:
		lp.expr(st, n.X, stage)
	case *ast.FieldAccess:
		lp.expr(st, n.X, stage)
	}
}
