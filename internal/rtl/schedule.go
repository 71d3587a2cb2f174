package rtl

// Static scheduling of the combinational logic.
//
// Every continuous assign and always @* block is a unit. A scan of each
// unit resolves its names and records what it writes and what it reads
// before it has surely written it (a read of a signal the same block
// has already assigned on every path is internal to the block and not
// a dependency). A writer of a signal then precedes each of its
// readers, and several writers of one signal keep their source order.
// The strongly connected components of that graph, in topological
// order, are the evaluation schedule: an acyclic unit runs once per
// Settle, a component of several units — or one unit that reads what
// it may write later — iterates to a fixpoint. Dependency ids are
// scalar slots, then len(vals)+memory id for memories.

// unitInfo is the scan of one combinational unit.
type unitInfo struct {
	writes []int      // dependency ids written
	reads  []int      // dependency ids read before surely written here
	nodes  []readNode // the scalar reads among those, by expression node
}

// readNode is one scalar read that may observe a value from before the
// unit ran.
type readNode struct {
	e    Expr
	slot int
}

// scanner resolves and validates names and collects a unit's reads and
// writes. defined counts, per slot, how many enclosing scopes have
// surely assigned it so far; stack lists those assignments so a branch
// can be undone.
type scanner struct {
	m       *Model
	funcs   map[string]*Func
	u       *unitInfo
	defined []int32
	stack   []int
	seenW   []int // per dependency id: stamp of the unit that recorded it
	seenR   []int
	stamp   int
	inThen  []int // per slot: stamp marking the then-arm's assignments
	gen     int
}

func newScanner(m *Model, funcs map[string]*Func) *scanner {
	nd := len(m.vals) + len(m.arrs)
	return &scanner{
		m: m, funcs: funcs,
		defined: make([]int32, len(m.vals)),
		seenW:   make([]int, nd),
		seenR:   make([]int, nd),
		inThen:  make([]int, len(m.vals)),
	}
}

// begin starts collecting into u; every unit starts with nothing
// surely written.
func (s *scanner) begin(u *unitInfo) {
	s.u = u
	s.stamp++
	s.undo(0)
}

func (s *scanner) undo(mark int) {
	for _, slot := range s.stack[mark:] {
		s.defined[slot]--
	}
	s.stack = s.stack[:mark]
}

func (s *scanner) define(slot int) {
	s.defined[slot]++
	s.stack = append(s.stack, slot)
}

func (s *scanner) write(id int) {
	if s.seenW[id] != s.stamp {
		s.seenW[id] = s.stamp
		s.u.writes = append(s.u.writes, id)
	}
}

func (s *scanner) read(id int) {
	if s.seenR[id] != s.stamp {
		s.seenR[id] = s.stamp
		s.u.reads = append(s.u.reads, id)
	}
}

func (s *scanner) readScalar(e Expr, slot int) {
	if s.defined[slot] > 0 {
		return
	}
	s.read(slot)
	s.u.nodes = append(s.u.nodes, readNode{e, slot})
}

func (s *scanner) stmts(stmts []Stmt) error {
	mod := s.m.mod.Name
	for _, st := range stmts {
		switch n := st.(type) {
		case *AssignStmt:
			for i := range n.Targets {
				t := &n.Targets[i]
				if s.m.arrs[t.Name] != nil {
					if t.Index == nil {
						return errf(mod, "array %s assigned without index", t.Name)
					}
				} else if _, ok := s.m.slots[t.Name]; ok {
					if t.Index != nil {
						return errf(mod, "bit-select assignment to %s unsupported", t.Name)
					}
				} else {
					return errf(mod, "assignment to undeclared %s", t.Name)
				}
				if t.Index != nil {
					if err := s.expr(t.Index); err != nil {
						return err
					}
				}
			}
			if err := s.expr(n.RHS); err != nil {
				return err
			}
			for _, t := range n.Targets {
				if arr := s.m.arrs[t.Name]; arr != nil {
					s.write(len(s.m.vals) + arr.id)
					continue
				}
				slot := s.m.slots[t.Name]
				s.write(slot)
				if !n.NonBlocking {
					s.define(slot)
				}
			}
		case *IfStmt:
			if err := s.expr(n.Cond); err != nil {
				return err
			}
			// What both arms surely assign is surely assigned after
			// the if; what only one arm assigns is not.
			mark := len(s.stack)
			if err := s.stmts(n.Then); err != nil {
				return err
			}
			s.gen++
			for _, slot := range s.stack[mark:] {
				s.inThen[slot] = s.gen
			}
			s.undo(mark)
			if err := s.stmts(n.Else); err != nil {
				return err
			}
			both := s.stack[mark:]
			k := 0
			for _, slot := range both {
				if s.inThen[slot] == s.gen {
					both[k] = slot
					k++
				}
			}
			both = append([]int(nil), both[:k]...)
			s.undo(mark)
			for _, slot := range both {
				s.define(slot)
			}
		}
	}
	return nil
}

func (s *scanner) expr(e Expr) error {
	mod := s.m.mod.Name
	switch n := e.(type) {
	case *Num:
	case *Ref:
		slot, ok := s.m.slots[n.Name]
		if !ok {
			return errf(mod, "reference to undeclared %s", n.Name)
		}
		s.readScalar(n, slot)
	case *Index:
		if arr := s.m.arrs[n.Name]; arr != nil {
			s.read(len(s.m.vals) + arr.id)
		} else if slot, ok := s.m.slots[n.Name]; ok {
			s.readScalar(n, slot)
		} else {
			return errf(mod, "index of undeclared %s", n.Name)
		}
		return s.expr(n.I)
	case *PartSel:
		slot, ok := s.m.slots[n.Name]
		if !ok {
			return errf(mod, "part select of undeclared %s", n.Name)
		}
		if n.Hi < n.Lo || n.Lo < 0 || n.Hi >= s.m.width[slot] {
			return errf(mod, "part select %s[%d:%d] out of range", n.Name, n.Hi, n.Lo)
		}
		s.readScalar(n, slot)
	case *Concat:
		for _, p := range n.Parts {
			if err := s.expr(p); err != nil {
				return err
			}
		}
	case *Repl:
		return s.expr(n.X)
	case *Unary:
		return s.expr(n.X)
	case *Binary:
		if err := s.expr(n.L); err != nil {
			return err
		}
		return s.expr(n.R)
	case *Ternary:
		if err := s.expr(n.Cond); err != nil {
			return err
		}
		if err := s.expr(n.Then); err != nil {
			return err
		}
		return s.expr(n.Else)
	case *CallExpr:
		fn := s.funcs[n.Name]
		if fn == nil {
			return errf(mod, "call of unbound function %s", n.Name)
		}
		if len(n.Args) != len(fn.Params) {
			return errf(mod, "%s: %d args, want %d", n.Name, len(n.Args), len(fn.Params))
		}
		for _, a := range n.Args {
			if err := s.expr(a); err != nil {
				return err
			}
		}
	case *Signed:
		return s.expr(n.X)
	}
	return nil
}

// scan resolves and validates every name in the module and returns the
// scan of each combinational unit: the continuous assigns, then the
// always @* blocks. The posedge blocks are scanned for validation only.
func (m *Model) scan(funcs map[string]*Func) ([]unitInfo, error) {
	mod := m.mod
	na := len(mod.Assigns)
	units := make([]unitInfo, na+len(mod.Combs))
	sc := newScanner(m, funcs)
	for i := range mod.Assigns {
		a := &mod.Assigns[i]
		slot, ok := m.slots[a.LHS]
		if !ok {
			return nil, errf(mod.Name, "assign to undeclared signal %s", a.LHS)
		}
		sc.begin(&units[i])
		if err := sc.expr(a.RHS); err != nil {
			return nil, err
		}
		sc.write(slot)
	}
	for j, b := range mod.Combs {
		sc.begin(&units[na+j])
		if err := sc.stmts(b.Stmts); err != nil {
			return nil, err
		}
	}
	for _, b := range mod.Seqs {
		sc.begin(&unitInfo{})
		if err := sc.stmts(b.Stmts); err != nil {
			return nil, err
		}
	}
	return units, nil
}

// feedbackReads picks, in every cyclic component, the reads of signals
// the component itself writes that may precede the write: the reads the
// fixpoint test must watch. feedback marks the signals they read.
func feedbackReads(order []component, units []unitInfo, nslots int) (tracked map[Expr]bool, feedback []bool) {
	tracked, feedback = map[Expr]bool{}, make([]bool, nslots)
	for _, comp := range order {
		if !comp.cyclic {
			continue
		}
		writes := map[int]bool{}
		for _, u := range comp.units {
			for _, d := range units[u].writes {
				writes[d] = true
			}
		}
		for _, u := range comp.units {
			for _, rn := range units[u].nodes {
				if writes[rn.slot] {
					tracked[rn.e] = true
					feedback[rn.slot] = true
				}
			}
		}
	}
	return tracked, feedback
}

// component is one strongly connected set of units, members ascending.
type component struct {
	units  []int
	cyclic bool
}

// levelize orders the units: writers before readers, several writers
// of one id in unit order, strongly connected sets kept together. Among
// components that are ready at the same time the one holding the
// lowest unit index goes first, so the schedule is deterministic and
// follows source order wherever the dependencies allow.
func levelize(units []unitInfo, ndeps int) []component {
	n := len(units)
	writers := make([][]int, ndeps)
	for u := range units {
		for _, d := range units[u].writes {
			writers[d] = append(writers[d], u)
		}
	}
	succ := make([][]int, n)
	self := make([]bool, n)
	for u := range units {
		for _, d := range units[u].reads {
			for _, w := range writers[d] {
				if w == u {
					self[u] = true
				} else {
					succ[w] = append(succ[w], u)
				}
			}
		}
	}
	for _, ws := range writers {
		for i := 1; i < len(ws); i++ {
			succ[ws[i-1]] = append(succ[ws[i-1]], ws[i])
		}
	}

	comp, ncomp := tarjan(succ)
	comps := make([]component, ncomp)
	for u := 0; u < n; u++ {
		c := &comps[comp[u]]
		c.units = append(c.units, u)
	}
	indeg := make([]int, ncomp)
	for u := range succ {
		for _, v := range succ[u] {
			if comp[u] != comp[v] {
				indeg[comp[v]]++
			}
		}
	}
	var ready []int
	for c := range comps {
		comps[c].cyclic = len(comps[c].units) > 1 || self[comps[c].units[0]]
		if indeg[c] == 0 {
			ready = append(ready, c)
		}
	}
	order := make([]component, 0, ncomp)
	for len(ready) > 0 {
		best := 0
		for i := range ready {
			if comps[ready[i]].units[0] < comps[ready[best]].units[0] {
				best = i
			}
		}
		c := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		order = append(order, comps[c])
		for _, u := range comps[c].units {
			for _, v := range succ[u] {
				if cv := comp[v]; cv != c {
					if indeg[cv]--; indeg[cv] == 0 {
						ready = append(ready, cv)
					}
				}
			}
		}
	}
	return order
}

// tarjan labels the strongly connected components of a directed graph
// given by successor lists.
func tarjan(succ [][]int) (comp []int, ncomp int) {
	n := len(succ)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	comp = make([]int, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	next := 0
	var visit func(u int)
	visit = func(u int) {
		index[u], low[u] = next, next
		next++
		stack = append(stack, u)
		onStack[u] = true
		for _, v := range succ[u] {
			switch {
			case index[v] < 0:
				visit(v)
				low[u] = min(low[u], low[v])
			case onStack[v]:
				low[u] = min(low[u], index[v])
			}
		}
		if low[u] == index[u] {
			for {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[v] = false
				comp[v] = ncomp
				if v == u {
					break
				}
			}
			ncomp++
		}
	}
	for u := 0; u < n; u++ {
		if index[u] < 0 {
			visit(u)
		}
	}
	return comp, ncomp
}
