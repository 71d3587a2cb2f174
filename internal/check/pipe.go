package check

import (
	"fmt"

	"xpdl/internal/diag"
	"xpdl/internal/pdl/ast"
	"xpdl/internal/pdl/token"
)

// region identifies which part of a pipeline a statement lives in.
type region int

const (
	regBody region = iota
	regCommit
	regExcept
)

func (r region) String() string {
	switch r {
	case regBody:
		return "pipeline body"
	case regCommit:
		return "commit block"
	case regExcept:
		return "except block"
	}
	return "<bad region>"
}

// pipeChecker carries the per-pipeline analysis state.
type pipeChecker struct {
	c    *checker
	pipe *ast.PipeDecl
	info *PipeInfo

	// vars: name -> type; availStage: first stage (body numbering, or
	// ExceptBase+k inside except) where the value may be read.
	vars       map[string]ast.Type
	availStage map[string]int

	mods map[string]bool // connected module names

	region region
	stage  int // current stage within the region's numbering

	// Lock tracking, keyed by "mem" or "mem[index-expr]".
	locks map[string]*lockState

	sawBarrier bool
	barrierPos token.Pos
	specUsed   bool
	throws     []throwSite

	// locals records definition/use facts for the dead-code pass.
	locals *localUsage
}

// localUsage tracks local-variable liveness per pipeline (or function).
type localUsage struct {
	owner   string // "pipe p" or "func f", for messages
	def     map[string]token.Pos
	latched map[string]bool
	used    map[string]bool
	order   []string // names in definition order, for stable reports
}

func newLocalUsage(owner string) *localUsage {
	return &localUsage{
		owner:   owner,
		def:     make(map[string]token.Pos),
		latched: make(map[string]bool),
		used:    make(map[string]bool),
	}
}

// lockEvent is one lock statement in textual order, replayed by the
// static lock-order analysis.
type lockEvent struct {
	op   ast.LockOp
	key  string // source-spelled key, for the held-set and messages
	node string // canonical alias node, for the order graph
	mem  string
	reg  region
	pos  token.Pos
}

// throwSite records where a throw occurred, for the post-walk barrier check.
type throwSite struct {
	stage int
	pos   token.Pos
}

type lockState struct {
	mem          string
	key          string
	mode         ast.LockMode
	reservedIn   region
	reserveStage int
	blocked      bool
	released     bool
	releasedIn   region
	pos          token.Pos
}

func (c *checker) checkPipe(p *ast.PipeDecl) {
	pc := &pipeChecker{
		c:          c,
		pipe:       p,
		vars:       make(map[string]ast.Type),
		availStage: make(map[string]int),
		mods:       make(map[string]bool),
		locks:      make(map[string]*lockState),
		locals:     newLocalUsage("pipe " + p.Name),
	}
	pc.info = &PipeInfo{
		Decl:         p,
		Vars:         pc.vars,
		VarDefStage:  pc.availStage,
		BarrierStage: -1,
		LockedMems:   make(map[string]bool),
	}
	c.info.Pipes[p.Name] = pc.info
	c.pipeLocals = append(c.pipeLocals, pc.locals)

	for _, m := range p.Mods {
		if c.mems[m] == nil && c.vols[m] == nil && c.pipes[m] == nil {
			c.errorf(p.Pos, "E-UNDEF", "pipe %s connects unknown module %q", p.Name, m)
			continue
		}
		if c.pipes[m] != nil && m == p.Name {
			c.errorf(p.Pos, "E-CONNECT", "pipe %s cannot connect to itself as a sub-pipeline", p.Name)
		}
		pc.mods[m] = true
	}
	for _, prm := range p.Params {
		pc.defineVar(prm.Name, prm.Type, 0, p.Pos)
	}

	bodyStages := ast.SplitStages(p.Body)
	pc.info.BodyStages = len(bodyStages)
	for i, st := range bodyStages {
		pc.stage = i
		if len(st) == 0 && len(bodyStages) > 1 {
			c.errorf(p.Pos, "E-STAGE-EMPTY", "pipe %s: stage %d is empty (stray stage separator?)", p.Name, i)
		}
		pc.stageStmts(st)
	}

	if p.Commit != nil {
		pc.region = regCommit
		commitStages := ast.SplitStages(p.Commit)
		pc.info.CommitStages = len(commitStages)
		for i, st := range commitStages {
			// The first commit stage merges with the last body stage
			// (§3.2), so it continues the body numbering.
			pc.stage = pc.info.BodyStages - 1 + i
			pc.stageStmts(st)
		}
	}

	if p.Except != nil {
		pc.checkExcept()
	}

	// Every reservation must be released somewhere legal. Locks released
	// in the wrong region were already reported (Rule 3 / Rule 1a), so
	// only silently-leaked ones are reported here.
	for _, ls := range pc.locks {
		if !ls.released && ls.reservedIn != regExcept {
			c.errorf(ls.pos, "E-LOCK-UNRELEASED", "lock %s is reserved but never released", ls.key)
		}
	}

	pc.info.UsesSpeculation = pc.specUsed
	if pc.specUsed && !pc.sawBarrier && p.HasExcept() {
		c.errorf(p.Pos, "E-SPEC", "pipe %s uses speculation and exceptions but has no spec_barrier; throws could be speculative", p.Name)
	}
	// Throws may appear textually before the barrier statement is seen,
	// so speculative-throw placement is validated after the full walk.
	if pc.specUsed && pc.sawBarrier {
		for _, th := range pc.throws {
			if th.stage < pc.info.BarrierStage {
				c.errorf(th.pos, "E-SPEC", "throw before spec_barrier: misspeculative instructions cannot raise exceptions (§3.5e)")
			}
		}
	}
}

// stageStmts walks one stage's statement list, flagging statements that
// follow an unconditional throw (they can never take effect: the
// instruction is already marked exceptional and its remaining state
// changes are rolled back).
func (pc *pipeChecker) stageStmts(st []ast.Stmt) {
	thrown := token.Pos{}
	warned := false
	for _, s := range st {
		if thrown.IsValid() && !warned {
			if _, isSkip := s.(*ast.Skip); !isSkip {
				warned = true
				pc.c.diags.Add(diag.Diagnostic{
					Pos: s.StmtPos(), Severity: diag.Warning, Code: "W-UNREACHABLE",
					Message: "statement follows an unconditional throw in the same stage and has no effect",
					Related: []diag.Related{{Pos: thrown, Message: "the instruction becomes exceptional here"}},
				})
			}
		}
		pc.stmt(s)
		if th, ok := s.(*ast.Throw); ok {
			thrown = th.StmtPos()
		}
	}
}

// checkExcept validates the except block in its own environment: pipeline
// parameters, except arguments, constants and module connections are
// visible; transient body state is not (§3.2).
func (pc *pipeChecker) checkExcept() {
	p := pc.pipe
	saved := pc.vars
	savedAvail := pc.availStage
	pc.vars = make(map[string]ast.Type)
	pc.availStage = make(map[string]int)
	for _, prm := range p.Params {
		pc.defineVar(prm.Name, prm.Type, ExceptBase, p.Pos)
	}
	for _, a := range p.ExceptArgs {
		pc.defineVar(a.Name, a.Type, ExceptBase, p.Pos)
	}

	pc.region = regExcept
	stages := ast.SplitStages(p.Except)
	pc.info.ExceptStages = len(stages)
	for i, st := range stages {
		pc.stage = ExceptBase + i
		if len(st) == 0 && len(stages) > 1 {
			pc.c.errorf(p.Pos, "E-STAGE-EMPTY", "pipe %s: except stage %d is empty", p.Name, i)
		}
		pc.stageStmts(st)
	}

	// Rule 1a: write locks acquired in the except block must be released
	// inside it.
	for _, ls := range pc.locks {
		if ls.reservedIn == regExcept && !ls.released {
			pc.c.errorf(ls.pos, "E-R1A", "Rule 1a: lock %s acquired in except block is never released (the except block must be self-contained)", ls.key)
		}
	}

	// Record except-local vars into the shared maps for later phases.
	for name, t := range pc.vars {
		if _, dup := saved[name]; !dup {
			saved[name] = t
			savedAvail[name] = pc.availStage[name]
		}
	}
	pc.vars = saved
	pc.availStage = savedAvail
	pc.info.Vars = saved
	pc.info.VarDefStage = savedAvail
}

func (pc *pipeChecker) defineVar(name string, t ast.Type, avail int, pos token.Pos) {
	if old, exists := pc.vars[name]; exists {
		if !old.Equal(t) {
			pc.c.errorf(pos, "E-TYPE", "%s redefined with type %s (was %s)", name, t, old)
		}
		// Redefinition at a later stage keeps the earliest availability.
		return
	}
	if pc.c.mems[name] != nil || pc.c.vols[name] != nil || pc.c.pipes[name] != nil {
		pc.c.errorf(pos, "E-SHADOW", "%s shadows a module declaration", name)
		return
	}
	if _, isConst := pc.c.info.Consts[name]; isConst {
		pc.c.errorf(pos, "E-SHADOW", "%s shadows a constant", name)
		return
	}
	pc.vars[name] = t
	pc.availStage[name] = avail
}

// defineLocal is defineVar for non-parameter locals: it additionally
// records the definition site for the dead-code pass.
func (pc *pipeChecker) defineLocal(name string, t ast.Type, avail int, latched bool, pos token.Pos) {
	if _, seen := pc.locals.def[name]; !seen {
		pc.locals.def[name] = pos
		pc.locals.latched[name] = latched
		pc.locals.order = append(pc.locals.order, name)
	}
	pc.defineVar(name, t, avail, pos)
}

// lockKey renders the canonical key for a lock target.
func lockKey(mem string, idx ast.Expr) string {
	if idx == nil {
		return mem
	}
	return mem + "[" + ast.ExprString(idx) + "]"
}

// lockNode canonicalizes a lock target into an alias node for the
// lock-order graph. A compile-time-constant index gets its own node
// ("rf[#3]"), so disjoint constant entries never alias; dynamic indices
// and whole-memory locks conservatively collapse to "rf[*]".
func (pc *pipeChecker) lockNode(mem string, idx ast.Expr) string {
	if idx != nil {
		if v, ok := pc.c.constInt(idx); ok {
			return fmt.Sprintf("%s[#%d]", mem, v)
		}
	}
	return mem + "[*]"
}

// stmt checks one statement in the current region/stage.
func (pc *pipeChecker) stmt(s ast.Stmt) {
	c := pc.c
	switch n := s.(type) {
	case *ast.Skip:
		return
	case *ast.Assign:
		pc.checkAssign(n)
	case *ast.MemWrite:
		pc.checkMemWrite(n)
	case *ast.VolWrite:
		// Parser never produces VolWrite (it arrives as Assign and is
		// reclassified below), but translated trees may contain it.
		pc.checkVolWriteRules(n.Vol, n.StmtPos())
		pc.exprType(n.RHS)
	case *ast.If:
		t := pc.exprType(n.Cond)
		if !isBoolish(t) {
			c.errorf(n.StmtPos(), "E-TYPE", "if condition must be bool or uint<1>, got %s", t)
		}
		for _, ts := range n.Then {
			pc.stmt(ts)
		}
		for _, es := range n.Else {
			pc.stmt(es)
		}
	case *ast.Lock:
		pc.checkLock(n)
	case *ast.Throw:
		pc.checkThrow(n)
	case *ast.Call:
		pc.checkCall(n)
	case *ast.SpecCall:
		pc.checkSpecCall(n)
	case *ast.Verify, *ast.Invalidate:
		pc.specUsed = true
		var h ast.Expr
		if v, ok := n.(*ast.Verify); ok {
			h = v.Handle
		} else {
			h = n.(*ast.Invalidate).Handle
		}
		if pc.region != regBody {
			c.errorf(s.StmtPos(), "E-R2", "Rule 2: speculation operations are not allowed in the %s", pc.region)
		}
		if t := pc.exprType(h); t.Kind != ast.THandle {
			c.errorf(s.StmtPos(), "E-SPEC", "verify/invalidate needs a speculation handle, got %s", t)
		}
	case *ast.SpecCheck:
		pc.specUsed = true
		if pc.region != regBody {
			c.errorf(n.StmtPos(), "E-R2", "Rule 2: spec_check is not allowed in the %s", pc.region)
		}
	case *ast.SpecBarrier:
		pc.specUsed = true
		if pc.region != regBody {
			c.errorf(n.StmtPos(), "E-R2", "Rule 2: spec_barrier is not allowed in the %s", pc.region)
		}
		if pc.sawBarrier {
			c.diags.Add(diag.Diagnostic{
				Pos: n.StmtPos(), Severity: diag.Error, Code: "E-SPEC",
				Message: fmt.Sprintf("pipe %s has more than one spec_barrier (first at %s)", pc.pipe.Name, pc.barrierPos),
				Related: []diag.Related{{Pos: pc.barrierPos, Message: "first spec_barrier here"}},
			})
		}
		pc.sawBarrier = true
		pc.barrierPos = n.StmtPos()
		pc.info.BarrierStage = pc.stage
	case *ast.Return:
		if !pc.pipe.HasResult {
			c.errorf(n.StmtPos(), "E-RETURN", "pipe %s does not declare a result type", pc.pipe.Name)
			return
		}
		if pc.region != regBody || pc.stage != pc.info.BodyStages-1 {
			c.errorf(n.StmtPos(), "E-RETURN", "return must be in the last body stage")
		}
		t := pc.exprType(n.Value)
		if !assignable(pc.pipe.Result, t) {
			c.errorf(n.StmtPos(), "E-RETURN", "return value has type %s, pipe declares %s", t, pc.pipe.Result)
		}
	case *ast.StageSep:
		// Handled by SplitStages; unreachable here.
	default:
		c.errorf(s.StmtPos(), "E-INTERNAL", "internal statement %T is not allowed in source programs", s)
	}
}

func (pc *pipeChecker) checkAssign(n *ast.Assign) {
	c := pc.c
	// A latched assignment to a volatile register is a volatile write.
	if pc.c.vols[n.Name] != nil {
		c.usedVols[n.Name] = true
		if !n.Latched {
			c.errorf(n.StmtPos(), "E-VOL-WRITE", "volatile %s must be written with <-", n.Name)
			return
		}
		if !pc.mods[n.Name] {
			c.errorf(n.StmtPos(), "E-CONNECT", "volatile %s is not connected to pipe %s", n.Name, pc.pipe.Name)
			return
		}
		pc.checkVolWriteRules(n.Name, n.StmtPos())
		t := pc.exprType(n.RHS)
		want := pc.c.vols[n.Name].Elem
		if !assignable(want, t) {
			c.errorf(n.StmtPos(), "E-TYPE", "volatile %s holds %s, cannot write %s", n.Name, want, t)
		}
		return
	}

	var t ast.Type
	if n.Latched {
		t = pc.exprTypeAllowSync(n.RHS)
	} else {
		t = pc.exprType(n.RHS)
	}
	if mr, isRead := n.RHS.(*ast.MemRead); isRead {
		m := pc.c.mems[mr.Mem]
		if m != nil && !m.CombRead && !n.Latched {
			c.errorf(n.StmtPos(), "E-SYNC-READ", "memory %s is sync-read; use %s <- %s[...]", mr.Mem, n.Name, mr.Mem)
		}
	}
	avail := pc.stage
	if n.Latched {
		avail = pc.stage + 1
	}
	pc.defineLocal(n.Name, t, avail, n.Latched, n.StmtPos())
	// A redefinition may move availability later only if consistent; we
	// keep the earliest, which is safe for def-use because each textual
	// definition precedes its uses in stage order anyway.
}

func (pc *pipeChecker) checkVolWriteRules(name string, pos token.Pos) {
	if pc.region == regBody {
		pc.c.errorf(pos, "E-VOL-WRITE", "volatile %s may only be written in final blocks (commit/except)", name)
	}
	if pc.region == regCommit {
		// Rule 4 limits commit to releases; volatile acknowledgements
		// belong in the except block (Fig. 8 of the paper).
		pc.c.errorf(pos, "E-R4", "Rule 4: volatile writes are not allowed in the commit block")
	}
}

func (pc *pipeChecker) checkMemWrite(n *ast.MemWrite) {
	c := pc.c
	m := c.mems[n.Mem]
	if m == nil {
		if c.vols[n.Mem] != nil {
			c.usedVols[n.Mem] = true
			c.errorf(n.StmtPos(), "E-VOL-WRITE", "volatile %s is a single register; write it without an index", n.Mem)
			return
		}
		c.errorf(n.StmtPos(), "E-UNDEF", "unknown memory %q", n.Mem)
		return
	}
	c.usedMems[n.Mem] = true
	c.writtenMems[n.Mem] = true
	if !pc.mods[n.Mem] {
		c.errorf(n.StmtPos(), "E-CONNECT", "memory %s is not connected to pipe %s", n.Mem, pc.pipe.Name)
	}
	if pc.region == regCommit {
		c.errorf(n.StmtPos(), "E-R4", "Rule 4: memory writes are not allowed in the commit block")
	}
	pc.exprType(n.Index)
	t := pc.exprType(n.RHS)
	if !assignable(m.Elem, t) {
		c.errorf(n.StmtPos(), "E-TYPE", "memory %s holds %s, cannot write %s", n.Mem, m.Elem, t)
	}
	if m.Lock == ast.LockNone {
		c.errorf(n.StmtPos(), "E-LOCK-NOLOCK", "memory %s has no lock and is read-only from pipelines", n.Mem)
		return
	}
	key := lockKey(n.Mem, n.Index)
	ls := pc.locks[key]
	if ls == nil {
		ls = pc.locks[n.Mem] // whole-memory reservation covers all keys
	}
	if ls == nil || ls.mode != ast.ModeWrite || ls.released || !ls.blocked {
		c.errorf(n.StmtPos(), "E-LOCK-UNOWNED", "write to %s requires an owned write lock (block/acquire %s first)", key, key)
	}
}

func (pc *pipeChecker) checkLock(n *ast.Lock) {
	c := pc.c
	if c.vols[n.Mem] != nil {
		c.usedVols[n.Mem] = true
		c.errorf(n.StmtPos(), "E-VOL-LOCK", "volatile %s cannot be locked (§3.6)", n.Mem)
		return
	}
	m := c.mems[n.Mem]
	if m == nil {
		c.errorf(n.StmtPos(), "E-UNDEF", "unknown memory %q", n.Mem)
		return
	}
	c.usedMems[n.Mem] = true
	if !pc.mods[n.Mem] {
		c.errorf(n.StmtPos(), "E-CONNECT", "memory %s is not connected to pipe %s", n.Mem, pc.pipe.Name)
	}
	if m.Lock == ast.LockNone {
		c.errorf(n.StmtPos(), "E-LOCK-NOLOCK", "memory %s is declared nolock; it cannot be locked", n.Mem)
		return
	}
	if n.Index != nil {
		pc.exprType(n.Index)
	}
	pc.info.LockedMems[n.Mem] = true
	key := lockKey(n.Mem, n.Index)
	c.lockSeq[pc.pipe.Name] = append(c.lockSeq[pc.pipe.Name], lockEvent{
		op: n.Op, key: key, node: pc.lockNode(n.Mem, n.Index),
		mem: n.Mem, reg: pc.region, pos: n.StmtPos(),
	})

	switch n.Op {
	case ast.LockReserve, ast.LockAcquire:
		if pc.region == regCommit {
			c.errorf(n.StmtPos(), "E-R4", "Rule 4: acquiring locks is not allowed in the commit block")
		}
		if old := pc.locks[key]; old != nil && !old.released {
			c.diags.Add(diag.Diagnostic{
				Pos: n.StmtPos(), Severity: diag.Error, Code: "E-LOCK-DOUBLE",
				Message: fmt.Sprintf("lock %s reserved twice without release (first at %s)", key, old.pos),
				Related: []diag.Related{{Pos: old.pos, Message: "first reservation here"}},
			})
		}
		ls := &lockState{
			mem: n.Mem, key: key, mode: n.Mode,
			reservedIn: pc.region, reserveStage: pc.stage,
			blocked: n.Op == ast.LockAcquire, pos: n.StmtPos(),
		}
		pc.locks[key] = ls
		if n.Mode == ast.ModeWrite && pc.region == regBody {
			pc.info.WriteLocks = append(pc.info.WriteLocks, key)
		}
	case ast.LockBlock:
		if pc.region == regCommit {
			c.errorf(n.StmtPos(), "E-R4", "Rule 4: block stalls are not allowed in the commit block")
		}
		ls := pc.locks[key]
		if ls == nil || ls.released {
			c.errorf(n.StmtPos(), "E-LOCK-NORESERVE", "block(%s) without a prior reserve", key)
			return
		}
		ls.blocked = true
	case ast.LockRelease:
		ls := pc.locks[key]
		if ls == nil || ls.released {
			c.errorf(n.StmtPos(), "E-LOCK-NORESERVE", "release(%s) without an active reservation", key)
			return
		}
		if !ls.blocked {
			c.errorf(n.StmtPos(), "E-LOCK-UNOWNED", "release(%s) before the lock was ever blocked/owned", key)
		}
		ls.released = true
		ls.releasedIn = pc.region

		// Rule 3: write locks reserved in the body release in commit.
		if pc.pipe.HasExcept() && ls.mode == ast.ModeWrite && ls.reservedIn == regBody {
			if pc.region == regBody {
				c.errorf(n.StmtPos(), "E-R3", "Rule 3: write lock %s acquired in the pipeline body must be released in the commit block, not in the body", key)
			}
			if pc.region == regExcept {
				c.errorf(n.StmtPos(), "E-R3", "Rule 3: write lock %s from the body cannot be released in the except block (rollback aborts it instead)", key)
			}
		}
		if ls.reservedIn == regExcept && pc.region != regExcept {
			c.errorf(n.StmtPos(), "E-R1A", "lock %s acquired in the except block must be released there (Rule 1a)", key)
		}
	}
}

func (pc *pipeChecker) checkThrow(n *ast.Throw) {
	c := pc.c
	p := pc.pipe
	if !p.HasExcept() {
		c.errorf(n.StmtPos(), "E-THROW", "throw in pipe %s, which has no except block", p.Name)
		return
	}
	if pc.region != regBody {
		c.errorf(n.StmtPos(), "E-THROW", "throw is not allowed in final blocks; exceptions are raised in the pipeline body")
	} else {
		pc.throws = append(pc.throws, throwSite{stage: pc.stage, pos: n.StmtPos()})
	}
	if len(n.Args) != len(p.ExceptArgs) {
		c.errorf(n.StmtPos(), "E-THROW", "throw passes %d arguments, except block declares %d", len(n.Args), len(p.ExceptArgs))
		return
	}
	for i, a := range n.Args {
		t := pc.exprType(a)
		if !assignable(p.ExceptArgs[i].Type, t) {
			c.errorf(n.StmtPos(), "E-TYPE", "throw argument %d has type %s, except declares %s", i, t, p.ExceptArgs[i].Type)
		}
	}
}

func (pc *pipeChecker) checkCall(n *ast.Call) {
	c := pc.c
	target := c.pipes[n.Pipe]
	if target == nil {
		c.errorf(n.StmtPos(), "E-UNDEF", "call to unknown pipe %q", n.Pipe)
		return
	}
	recursive := n.Pipe == pc.pipe.Name
	if !recursive && !pc.mods[n.Pipe] {
		c.errorf(n.StmtPos(), "E-CONNECT", "pipe %s is not connected to pipe %s", n.Pipe, pc.pipe.Name)
	}
	if pc.region == regCommit {
		c.errorf(n.StmtPos(), "E-R4", "Rule 4: spawning instructions is not allowed in the commit block")
	}
	if recursive && pc.region == regExcept && pc.stage != ExceptBase+pc.info.ExceptStages-1 {
		c.errorf(n.StmtPos(), "E-R1C", "Rule 1c: a recursive call in the except block must be in its last stage")
	}
	if len(n.Args) != len(target.Params) {
		c.errorf(n.StmtPos(), "E-CALL", "call %s passes %d arguments, pipe declares %d", n.Pipe, len(n.Args), len(target.Params))
		return
	}
	for i, a := range n.Args {
		t := pc.exprType(a)
		if !assignable(target.Params[i].Type, t) {
			c.errorf(n.StmtPos(), "E-TYPE", "call %s argument %d has type %s, parameter is %s", n.Pipe, i, t, target.Params[i].Type)
		}
	}
	if n.Result != "" {
		if !target.HasResult {
			c.errorf(n.StmtPos(), "E-CALL", "pipe %s returns no result", n.Pipe)
			return
		}
		if recursive {
			c.errorf(n.StmtPos(), "E-CALL", "a recursive call cannot bind a result")
			return
		}
		if pc.region == regExcept && pc.stage == ExceptBase+pc.info.ExceptStages-1 {
			c.errorf(n.StmtPos(), "E-R1B", "Rule 1b: the last except stage cannot read from other pipelines")
		}
		// Blocking sub-pipeline call: result is available next stage.
		pc.defineLocal(n.Result, target.Result, pc.stage+1, true, n.StmtPos())
	}
}

func (pc *pipeChecker) checkSpecCall(n *ast.SpecCall) {
	c := pc.c
	pc.specUsed = true
	if pc.region != regBody {
		c.errorf(n.StmtPos(), "E-R2", "Rule 2: spec_call is not allowed in final blocks")
	}
	// sawBarrier implies the barrier precedes this statement textually,
	// so a same-stage spec_call is also after it.
	if pc.sawBarrier && pc.stage >= pc.info.BarrierStage {
		c.errorf(n.StmtPos(), "E-SPEC", "spec_call after spec_barrier is useless; the next pc is already known")
	}
	if n.Pipe != pc.pipe.Name {
		c.errorf(n.StmtPos(), "E-SPEC", "spec_call targets %q; speculative spawns must target the same pipeline", n.Pipe)
		return
	}
	if len(n.Args) != len(pc.pipe.Params) {
		c.errorf(n.StmtPos(), "E-CALL", "spec_call passes %d arguments, pipe declares %d", len(n.Args), len(pc.pipe.Params))
		return
	}
	for i, a := range n.Args {
		t := pc.exprType(a)
		if !assignable(pc.pipe.Params[i].Type, t) {
			c.errorf(n.StmtPos(), "E-TYPE", "spec_call argument %d has type %s, parameter is %s", i, t, pc.pipe.Params[i].Type)
		}
	}
	pc.defineLocal(n.Handle, ast.HandleType(), pc.stage, false, n.StmtPos())
}

// isBoolish accepts bool and uint<1> as conditions.
func isBoolish(t ast.Type) bool {
	return t.Kind == ast.TBool || (t.Kind == ast.TUInt && t.Width == 1)
}

// isUnsized reports the type of an unsized literal (tree), which adopts
// its width from context.
func isUnsized(t ast.Type) bool { return t.Kind == ast.TUInt && t.Width == 0 }

// assignable reports whether a value of type 'from' can initialize a
// location of type 'to'. Width-0 uints are unsized literals that adopt any
// width.
func assignable(to, from ast.Type) bool {
	if isUnsized(from) {
		return to.Kind == ast.TUInt || to.Kind == ast.TBool
	}
	if to.Kind == ast.TUInt && from.Kind == ast.TBool {
		return to.Width == 1
	}
	if to.Kind == ast.TBool && from.Kind == ast.TUInt {
		return from.Width == 1
	}
	return to.Equal(from)
}

// fmtAvail renders an availability stage for error messages.
func fmtAvail(stage int) string {
	if stage >= ExceptBase {
		return fmt.Sprintf("except stage %d", stage-ExceptBase)
	}
	return fmt.Sprintf("stage %d", stage)
}
