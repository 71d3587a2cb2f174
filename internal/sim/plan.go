package sim

import (
	"fmt"
	"sort"
	"sync"

	"xpdl/internal/check"
	"xpdl/internal/core"
	"xpdl/internal/locks"
	"xpdl/internal/pdl/ast"
	"xpdl/internal/val"
	"xpdl/internal/vm"
)

// Plan is the per-design half of a machine: everything that is a pure
// function of the checked, translated program. Building one walks the
// translated AST once — stage-graph shape, slot layouts and typed
// zeroes, and the identifier, assignment, memory and record-field
// resolution tables — so a machine built from it (Plan.New) only
// allocates mutable state. Memories are named by index here, never by
// lock pointer: the locks belong to each machine.
//
// A Plan is immutable once NewPlan returns, apart from the bytecode
// Program it compiles the first time a vm machine asks for one, and is
// safe for concurrent use. Whoever owns the program owns its plan
// (xpdl.Design.Plan, a bveq target); there is no package-level cache,
// so a plan and its Program die with their design.
type Plan struct {
	info *check.Info

	consts map[string]V
	funcs  map[string]*ast.FuncDecl

	pipes    []*pipePlan // declaration order; indexed by pipePlan.idx
	pipeIdx  map[string]int
	nstages  int // stage nodes over all pipes (global stage ids)
	maxSlots int // widest pipe slot layout (firing scratch size)

	mems      []*memBinding // declaration order
	memByName map[string]*memBinding
	lockNames []string // locked memories, in Machine.memList order
	nplain    int
	vols      map[string]*volatileReg
	volZero   []val.Value // declaration order; each machine's initial volVals

	// Build-time resolution: every Ident node in pipeline code resolves
	// once to a slot, a constant, or a volatile register, so the hot path
	// avoids string hashing.
	identBind  map[*ast.Ident]identBind
	memBind    map[*ast.MemRead]*memBinding
	memWBind   map[ast.Stmt]*memBinding // MemWrite / Lock / Abort nodes
	assignSlot map[ast.Stmt]int         // Assign/SpecCall target slots
	assignVol  map[ast.Stmt]*volatileReg
	fieldIdx   map[*ast.FieldAccess]fieldRef
	// callResult maps each cross-pipe call that names a result variable
	// to that name's index in resultVars: the Str of its spawn effect,
	// for every engine.
	callResult map[*ast.Call]int32
	resultVars []string

	vmOnce sync.Once
	vmProg *vm.Program
}

// pipePlan is one pipeline's shape: its stage graph and slot layout.
type pipePlan struct {
	idx  int // position in declaration order; indexes Machine.pipeList
	name string
	decl *ast.PipeDecl // translated declaration
	res  *core.Result
	// graph is the stage graph in processing order: exception chain
	// (downstream first), commit tail, then body, all downstream first.
	graph                []*nodePlan
	nbody, ncommit, nexc int

	// Variable storage layout: every name the checker recorded for this
	// pipeline gets a fixed slot; instruction state and firing scratch
	// are slot-indexed slices instead of string-keyed maps (hot path).
	slotOf map[string]int
	zeroes []V // per-slot zero of the checked type (undriven reads)
	// recFields holds the sorted field names of each record variable.
	recFields map[string][]string
	// paramW and paramSlot are each declared parameter's bit width and
	// slot, for the enqueue of every spawned instruction.
	paramW, paramSlot []int
	// allSlots lists every slot once: the write-back of the executors
	// that do not track which slots a stage writes walks it.
	allSlots []int32
}

// nodePlan is one stage node's shape.
type nodePlan struct {
	kind  stageKind
	index int // index within its chain
	pos   int // index in the processing order; Observer coordinate
	gid   int // machine-global stage id (FaultInjector coordinate)
	stmts []ast.Stmt
	// nextPos is the processing-order position of the linear successor;
	// -1 means retire.
	nextPos int
	split   *forkPlan // non-nil on the translated final body stage
}

// forkPlan is the translated final body stage's two continuations.
type forkPlan struct {
	commitStage0 []ast.Stmt
	excStage0    []ast.Stmt
	// commitPos and excPos are the processing-order positions of the
	// first commit and exception nodes; -1 means retire.
	commitPos, excPos int
}

// NewPlan resolves a checked, translated program into a machine plan.
// The translations must not change afterwards: the plan's tables point
// into them.
func NewPlan(info *check.Info, trs map[string]*core.Result) (*Plan, error) {
	p := &Plan{
		info:       info,
		consts:     make(map[string]V, len(info.Consts)),
		funcs:      make(map[string]*ast.FuncDecl, len(info.Prog.Funcs)),
		pipeIdx:    make(map[string]int, len(info.Prog.Pipes)),
		memByName:  make(map[string]*memBinding, len(info.Prog.Mems)),
		vols:       make(map[string]*volatileReg, len(info.Prog.Vols)),
		identBind:  make(map[*ast.Ident]identBind),
		memBind:    make(map[*ast.MemRead]*memBinding),
		memWBind:   make(map[ast.Stmt]*memBinding),
		assignSlot: make(map[ast.Stmt]int),
		assignVol:  make(map[ast.Stmt]*volatileReg),
		fieldIdx:   make(map[*ast.FieldAccess]fieldRef),
		callResult: make(map[*ast.Call]int32),
	}
	for name, c := range info.Consts {
		w := c.Width
		if w == 0 {
			w = 64
		}
		if c.IsBool {
			p.consts[name] = Scalar(val.Bool(c.Bool))
		} else {
			p.consts[name] = Scalar(val.New(c.Value, w))
		}
	}
	for _, f := range info.Prog.Funcs {
		p.funcs[f.Name] = f
	}
	for _, md := range info.Prog.Mems {
		b := &memBinding{decl: md, lock: -1, plain: -1}
		if md.Lock == ast.LockNone {
			b.plain = p.nplain
			p.nplain++
		} else {
			b.lock = len(p.lockNames)
			p.lockNames = append(p.lockNames, md.Name)
		}
		p.mems = append(p.mems, b)
		p.memByName[md.Name] = b
	}
	for i, vd := range info.Prog.Vols {
		p.vols[vd.Name] = &volatileReg{decl: vd, idx: i}
		p.volZero = append(p.volZero, val.New(0, vd.Elem.Width))
	}
	for _, pd := range info.Prog.Pipes {
		tr := trs[pd.Name]
		if tr == nil {
			return nil, fmt.Errorf("sim: pipe %q has no translation result", pd.Name)
		}
		pp, err := buildPipe(pd.Name, tr)
		if err != nil {
			return nil, err
		}
		pp.idx = len(p.pipes)
		// Machine-global stage ids, in deterministic pipe/processing
		// order: the StallStage coordinate every executor shares.
		for _, n := range pp.graph {
			n.gid = p.nstages + n.pos
		}
		p.nstages += len(pp.graph)
		p.pipeIdx[pd.Name] = pp.idx
		p.pipes = append(p.pipes, pp)
		p.buildSlots(pp)
	}
	return p, nil
}

// buildPipe constructs a pipeline's stage graph from its translation.
func buildPipe(name string, tr *core.Result) (*pipePlan, error) {
	pp := &pipePlan{name: name, decl: tr.Pipe, res: tr}
	var body, commit, exc []*nodePlan
	for i, st := range ast.SplitStages(tr.Pipe.Body) {
		body = append(body, &nodePlan{kind: kindBody, index: i, stmts: st})
	}
	var fork *forkPlan
	if tr.Translated {
		last := body[len(body)-1]
		guard, ok := last.stmts[0].(*ast.GefGuard)
		if !ok || len(last.stmts) != 1 {
			return nil, fmt.Errorf("sim: pipe %s: translated last stage is malformed", name)
		}
		forkStmt, ok := guard.Body[len(guard.Body)-1].(*ast.LefBranch)
		if !ok {
			return nil, fmt.Errorf("sim: pipe %s: missing LefBranch in final stage", name)
		}
		// The fork is handled structurally: execute a trimmed copy of the
		// guard (the shared translated AST must stay intact for other
		// backends such as the Verilog emitter and the cost model).
		last.stmts = []ast.Stmt{&ast.GefGuard{Body: guard.Body[:len(guard.Body)-1]}}

		commitStages := ast.SplitStages(forkStmt.Commit)
		for i := 1; i < len(commitStages); i++ {
			commit = append(commit, &nodePlan{kind: kindCommit, index: i, stmts: commitStages[i]})
		}
		excStages := ast.SplitStages(forkStmt.Except)
		for i := 1; i < len(excStages); i++ {
			exc = append(exc, &nodePlan{kind: kindExc, index: i, stmts: excStages[i]})
		}
		fork = &forkPlan{commitStage0: commitStages[0], excStage0: excStages[0]}
		last.split = fork
	}

	// Processing order: exception chain (downstream first), commit tail,
	// then body, all downstream first.
	for _, chain := range [][]*nodePlan{exc, commit, body} {
		for i := len(chain) - 1; i >= 0; i-- {
			pp.graph = append(pp.graph, chain[i])
		}
	}
	for i, n := range pp.graph {
		n.pos = i
	}
	for _, chain := range [][]*nodePlan{exc, commit, body} {
		for i, n := range chain {
			n.nextPos = -1
			if i+1 < len(chain) {
				n.nextPos = chain[i+1].pos
			}
		}
	}
	if fork != nil {
		fork.commitPos, fork.excPos = -1, -1
		if len(commit) > 0 {
			fork.commitPos = commit[0].pos
		}
		if len(exc) > 0 {
			fork.excPos = exc[0].pos
		}
	}
	pp.nbody, pp.ncommit, pp.nexc = len(body), len(commit), len(exc)
	return pp, nil
}

// instantiate builds one machine's copy of the stage graph: the same
// shape, with its own occupancy, entry queue and speculation table.
func (pp *pipePlan) instantiate() *pipeState {
	ps := &pipeState{pipePlan: pp, specTab: &specTable{}}
	nodes := make([]stageNode, len(pp.graph))
	ps.nodes = make([]*stageNode, len(pp.graph))
	for i, np := range pp.graph {
		nodes[i] = stageNode{nodePlan: np, pipe: ps, writes: pp.allSlots, txn: true}
		ps.nodes[i] = &nodes[i]
	}
	at := func(pos int) *stageNode {
		if pos < 0 {
			return nil
		}
		return ps.nodes[pos]
	}
	ps.body = make([]*stageNode, pp.nbody)
	ps.commit = make([]*stageNode, pp.ncommit)
	ps.exc = make([]*stageNode, pp.nexc)
	for _, n := range ps.nodes {
		n.next = at(n.nextPos)
		switch n.kind {
		case kindBody:
			ps.body[n.index] = n
		case kindCommit:
			ps.commit[n.index-1] = n
		default:
			ps.exc[n.index-1] = n
		}
		if f := n.split; f != nil {
			n.fork = &forkInfo{forkPlan: f, commitNext: at(f.commitPos), excNext: at(f.excPos)}
		}
	}
	return ps
}

// New builds a machine from the plan. Only mutable state is allocated
// here — the stage graph's occupancy, locks and memories, arenas, and
// the volatile and gef arrays — plus, for the closure engine, the
// stage closures compiled against the plan's tables.
func (p *Plan) New(cfg Config) (*Machine, error) {
	if cfg.RenamingExtra <= 0 {
		cfg.RenamingExtra = 16
	}
	if cfg.EntryCap <= 0 {
		cfg.EntryCap = 8
	}
	engName, err := ParseEngine(cfg.Engine)
	if err != nil {
		return nil, err
	}
	cfg.Engine = engName
	for _, e := range p.info.Prog.Externs {
		if cfg.Externs[e.Name] == nil {
			return nil, fmt.Errorf("sim: extern %q is not bound", e.Name)
		}
	}
	m := &Machine{
		plan:      p,
		cfg:       cfg,
		externs:   cfg.Externs,
		alive:     make(map[uint64]*inst),
		nextIID:   1,
		memList:   make([]locks.Lock, 0, len(p.lockNames)),
		plainList: make([]*locks.Plain, 0, p.nplain),
		volVals:   append([]val.Value(nil), p.volZero...),
		pipeList:  make([]*pipeState, len(p.pipes)),
		gefs:      make([]bool, len(p.pipes)),
	}
	m.env.SpawnCnt = make([]int, len(p.pipes))
	for _, b := range p.mems {
		md := b.decl
		switch md.Lock {
		case ast.LockNone:
			m.plainList = append(m.plainList, locks.NewPlain(md.Depth, md.Elem.Width))
		case ast.LockBasic:
			m.memList = append(m.memList, locks.NewBasic(md.Depth, md.Elem.Width))
		case ast.LockBypass:
			m.memList = append(m.memList, locks.NewBypass(md.Depth, md.Elem.Width))
		case ast.LockRenaming:
			m.memList = append(m.memList, locks.NewRenaming(md.Depth, md.Elem.Width, cfg.RenamingExtra))
		}
	}
	for i, pp := range p.pipes {
		m.pipeList[i] = pp.instantiate()
	}
	n := p.maxSlots
	m.env.Loc, m.env.LocEp = make([]V, n), make([]uint32, n)
	m.env.Pend, m.env.PendEp = make([]V, n), make([]uint32, n)
	m.faults = cfg.Faults
	m.watchdog = cfg.WatchdogCycles
	if m.watchdog == 0 {
		m.watchdog = defaultWatchdog
	}
	m.fr.m = m
	switch engName {
	case "closure":
		m.engine = engClosure
		m.compileAll()
	case "interp":
		m.engine = engInterp
	case "vm":
		m.engine = engVM
		m.vmProg = p.vmProgram()
		m.initVMEnv()
	}
	return m, nil
}

// buildSlots assigns every checker-recorded variable of a pipeline a
// fixed slot, records the per-slot zero value (the typed zero an
// undriven/untaken-path read observes), and resolves every identifier
// and memory reference in the pipeline's code to its binding so the
// simulator's hot path never hashes strings.
func (p *Plan) buildSlots(pp *pipePlan) {
	pi := p.info.Pipes[pp.name]
	names := make([]string, 0, len(pi.Vars))
	for name := range pi.Vars {
		names = append(names, name)
	}
	sort.Strings(names)
	pp.slotOf = make(map[string]int, len(names))
	pp.zeroes = make([]V, len(names))
	pp.recFields = make(map[string][]string)
	pp.allSlots = make([]int32, len(names))
	for i, name := range names {
		t := pi.Vars[name]
		pp.slotOf[name] = i
		pp.allSlots[i] = int32(i)
		pp.zeroes[i] = zeroOfType(t)
		if t.Kind == ast.TRecord {
			fields := make([]string, 0, len(t.Fields))
			for _, f := range t.Fields {
				fields = append(fields, f.Name)
			}
			sort.Strings(fields)
			pp.recFields[name] = fields
		}
	}
	if len(names) > p.maxSlots {
		p.maxSlots = len(names)
	}
	for _, prm := range pp.decl.Params {
		pp.paramW = append(pp.paramW, prm.Type.BitWidth())
		pp.paramSlot = append(pp.paramSlot, pp.slotOf[prm.Name])
	}

	for _, st := range pp.graph {
		p.resolveStmts(pp, st.stmts)
		if st.split != nil {
			p.resolveStmts(pp, st.split.commitStage0)
			p.resolveStmts(pp, st.split.excStage0)
		}
	}
}

func zeroOfType(t ast.Type) V {
	if t.Kind == ast.TRecord {
		rec := make(map[string]val.Value, len(t.Fields))
		for _, f := range t.Fields {
			rec[f.Name] = val.New(0, f.Type.BitWidth())
		}
		return Record(rec)
	}
	return Scalar(val.New(0, t.BitWidth()))
}

func (p *Plan) resolveStmts(pp *pipePlan, stmts []ast.Stmt) {
	for _, s := range stmts {
		p.resolveStmt(pp, s)
	}
}

func (p *Plan) resolveStmt(pp *pipePlan, s ast.Stmt) {
	switch n := s.(type) {
	case *ast.Assign:
		if vol, isVol := p.vols[n.Name]; isVol {
			p.assignVol[s] = vol
		} else if slot, ok := pp.slotOf[n.Name]; ok {
			p.assignSlot[s] = slot
		}
		p.resolveExpr(pp, n.RHS)
	case *ast.MemWrite:
		if b := p.memByName[n.Mem]; b != nil {
			p.memWBind[s] = b
		}
		p.resolveExpr(pp, n.Index)
		p.resolveExpr(pp, n.RHS)
	case *ast.VolWrite:
		p.resolveExpr(pp, n.RHS)
	case *ast.If:
		p.resolveExpr(pp, n.Cond)
		p.resolveStmts(pp, n.Then)
		p.resolveStmts(pp, n.Else)
	case *ast.Lock:
		p.memWBind[s] = p.memByName[n.Mem]
		if n.Index != nil {
			p.resolveExpr(pp, n.Index)
		}
	case *ast.Abort:
		p.memWBind[s] = p.memByName[n.Mem]
	case *ast.Throw:
		for _, a := range n.Args {
			p.resolveExpr(pp, a)
		}
	case *ast.Call:
		if n.Pipe != pp.name && n.Result != "" {
			p.callResult[n] = p.internResult(n.Result)
		}
		for _, a := range n.Args {
			p.resolveExpr(pp, a)
		}
	case *ast.SpecCall:
		if slot, ok := pp.slotOf[n.Handle]; ok {
			p.assignSlot[s] = slot
		}
		for _, a := range n.Args {
			p.resolveExpr(pp, a)
		}
	case *ast.Verify:
		p.resolveExpr(pp, n.Handle)
	case *ast.Invalidate:
		p.resolveExpr(pp, n.Handle)
	case *ast.Return:
		p.resolveExpr(pp, n.Value)
	case *ast.SetEArg:
		p.resolveExpr(pp, n.Value)
	case *ast.GefGuard:
		p.resolveStmts(pp, n.Body)
	case *ast.LefBranch:
		p.resolveStmts(pp, n.Commit)
		p.resolveStmts(pp, n.Except)
	}
}

// internResult returns name's index in resultVars, adding it once.
func (p *Plan) internResult(name string) int32 {
	for i, rv := range p.resultVars {
		if rv == name {
			return int32(i)
		}
	}
	p.resultVars = append(p.resultVars, name)
	return int32(len(p.resultVars) - 1)
}

// resultVar gives a call's index in resultVars, -1 for a same-pipe
// spawn or a call without a result variable.
func (p *Plan) resultVar(n *ast.Call) int32 {
	if i, ok := p.callResult[n]; ok {
		return i
	}
	return -1
}

func (p *Plan) resolveExpr(pp *pipePlan, e ast.Expr) {
	switch n := e.(type) {
	case *ast.Ident:
		if slot, ok := pp.slotOf[n.Name]; ok {
			p.identBind[n] = identBind{kind: 0, slot: slot}
		} else if c, ok := p.consts[n.Name]; ok {
			p.identBind[n] = identBind{kind: 1, con: c}
		} else if vol, ok := p.vols[n.Name]; ok {
			p.identBind[n] = identBind{kind: 2, vol: vol}
		}
		// Unresolvable identifiers (checker rejects them in pipelines)
		// fall back to the slow path at evaluation time.
	case *ast.Unary:
		p.resolveExpr(pp, n.X)
	case *ast.Binary:
		p.resolveExpr(pp, n.L)
		p.resolveExpr(pp, n.R)
	case *ast.Ternary:
		p.resolveExpr(pp, n.Cond)
		p.resolveExpr(pp, n.Then)
		p.resolveExpr(pp, n.Else)
	case *ast.CallExpr:
		for _, a := range n.Args {
			p.resolveExpr(pp, a)
		}
	case *ast.MemRead:
		if b := p.memByName[n.Mem]; b != nil {
			p.memBind[n] = b
		}
		p.resolveExpr(pp, n.Index)
	case *ast.Slice:
		p.resolveExpr(pp, n.X)
		p.resolveExpr(pp, n.Hi)
		p.resolveExpr(pp, n.Lo)
	case *ast.FieldAccess:
		p.fieldIdx[n] = staticFieldIndex(pp, n)
		p.resolveExpr(pp, n.X)
	}
}

// fieldRef is a record access resolved at plan time: the field's index
// in the record type's sorted field names (layout), or -1 and nil when
// the operand's type is unknown.
type fieldRef struct {
	idx    int
	layout []string
}

// staticFieldIndex resolves a record access when the operand's checked
// type is known (an Ident bound to a record variable); otherwise the
// executors fall back to a name scan at run time.
func staticFieldIndex(pp *pipePlan, n *ast.FieldAccess) fieldRef {
	id, ok := n.X.(*ast.Ident)
	if !ok {
		return fieldRef{idx: -1}
	}
	layout := pp.recFields[id.Name]
	for i, name := range layout {
		if name == n.Field {
			return fieldRef{idx: i, layout: layout}
		}
	}
	return fieldRef{idx: -1}
}

// isUnsized reports whether an expression is an unsized literal (or a
// composition of them), whose runtime width adapts to its context.
func (p *Plan) isUnsized(e ast.Expr) bool {
	switch n := e.(type) {
	case *ast.IntLit:
		return n.Width == 0
	case *ast.Ident:
		c, ok := p.info.Consts[n.Name]
		return ok && !c.IsBool && c.Width == 0
	case *ast.Unary:
		return p.isUnsized(n.X)
	case *ast.Binary:
		return p.isUnsized(n.L) && p.isUnsized(n.R)
	}
	return false
}

// externDecl finds an extern's declaration by name.
func (p *Plan) externDecl(name string) *ast.ExternDecl {
	for _, e := range p.info.Prog.Externs {
		if e.Name == name {
			return e
		}
	}
	panic(fmt.Sprintf("sim: extern %q not declared", name))
}
