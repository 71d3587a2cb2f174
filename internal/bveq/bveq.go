// Package bveq is the bounded exhaustive equivalence gate: a static
// analysis pass that *proves* a compiled design precise within explicit
// bounds instead of stress-testing it. For a reduced-width micro-ISA
// projection of the design's instruction set it enumerates every
// program up to length K, crossed with every exception site and every
// interrupt-arrival cycle inside a bounded window (pulse timing is pure
// data — internal/fault.Schedule), runs each point through the
// translated IR, and requires the retirement trace and the final
// architectural state to match the sequential specification bit for
// bit. A clean sweep earns the design a machine-checkable
// "bounded-verified" badge; a mismatch becomes a first-class
// counterexample that is shrunk and rendered through internal/diag as
// an E-BVEQ-* error.
//
// Each point costs a machine reset plus its own run and check. Points
// of one design share one compiled plan; a target that implements
// Releaser pools the machines it builds and resets one per point
// instead of building it. Verify runs the points of each chunk on
// every core: a worker claims the next point and builds its machine,
// runs it, checks it against the specification and hands the machine
// back. The interpreter cross-checks a sampled subset of points
// against the primary engine, so the gate also guards the engines
// against each other.
//
// Everything is deterministic: enumeration order is fixed, primary
// machines are built in point order, results are collected in point
// order regardless of worker scheduling, and the report's canonical
// JSON is byte-identical across runs, engines and core counts.
package bveq

import (
	"fmt"
	"runtime"
	"sync"

	"xpdl/internal/sim"
)

// Inst is one letter of a target's projected alphabet: a fixed
// instruction word with its human-readable spelling.
type Inst struct {
	Word uint32
	Asm  string
}

// Target adapts one compiled design to the gate. A target is built
// once per design and owns that design's machine plan (compile and
// resolve once, build many machines — every point shares the plan and
// its vm Program), and must be safe for concurrent Build/Check calls
// from Verify's workers.
type Target interface {
	// Name identifies the design in reports and diagnostics.
	Name() string
	// Alphabet is the projection's safe letters; ExcLetters are the
	// letters that can raise an exception (empty on designs without
	// exception machinery). The two sets must be disjoint.
	Alphabet() []Inst
	ExcLetters() []Inst
	// IntrCapable reports whether the design takes external interrupts,
	// enabling the interrupt-arrival axis.
	IntrCapable() bool
	// Neutral is a no-effect-preferred word the shrinker may substitute
	// for letters (it need not be a true no-op; candidates are re-run).
	Neutral() uint32
	// Build constructs a booted machine for one enumeration point:
	// prog are the slot words, intr the interrupt-arrival cycle (-1 =
	// none), engine the executor.
	Build(prog []uint32, intr int, engine string) (*sim.Machine, error)
	// Check replays the sequential specification against the machine
	// after its run. runErr is the run's terminal error (nil when the
	// budget elapsed without incident). It returns nil when the point
	// agrees with the specification.
	Check(prog []uint32, intr int, m *sim.Machine, runErr error) *Mismatch
}

// Releaser is an optional Target extension. The gate calls Release
// with every machine it is done with — a point's primary machine after
// the point's verdict and spot diff, a spot or CheckPoint machine after
// its check — so the target can reset the machine and hand it out
// again from Build instead of building a new one. Machines whose run
// returned an error are never released.
type Releaser interface {
	Release(m *sim.Machine)
}

// Mismatch is one point's disagreement with the sequential
// specification.
type Mismatch struct {
	// Stage classifies the divergence: "run" (the machine died —
	// deadlock, internal error), "trace" (retirement sequence differs),
	// "state" (final architectural state differs), "drain" (one side
	// finished and the other did not).
	Stage  string
	Detail string
	// Index/Cycle locate the first diverging retirement (-1 when the
	// divergence is not trace-positional).
	Index int
	Cycle int
}

func (mm *Mismatch) String() string {
	return fmt.Sprintf("%s: %s", mm.Stage, mm.Detail)
}

// Bounds parameterizes a sweep. The zero value selects every default.
type Bounds struct {
	K      int // max program length in slots (default 3)
	Width  int // immediate-domain width of the projection (default 2)
	Window int // interrupt-arrival window in cycles (default 12)
	Budget int // per-point cycle budget (default 384)
	// Engine is the primary executor (default "vm"); SpotEvery samples
	// every Nth point onto the spot engine — the interpreter, unless it
	// is already primary — as a cross-engine oracle (default 16, <0
	// disables).
	Engine    string
	SpotEvery int
	// MaxCE caps recorded counterexamples (default 5). Lanes is the
	// chunk size (default 64): Verify runs a chunk's points in parallel
	// and tests the early stop (MaxCE reached, a build failed) between
	// chunks.
	MaxCE int
	Lanes int
}

func (b Bounds) withDefaults() Bounds {
	if b.K <= 0 {
		b.K = 3
	}
	if b.Width <= 0 {
		b.Width = 2
	}
	if b.Window <= 0 {
		b.Window = 12
	}
	if b.Budget <= 0 {
		b.Budget = 384
	}
	if b.Engine == "" {
		b.Engine = "vm"
	}
	if b.SpotEvery == 0 {
		b.SpotEvery = 16
	}
	if b.MaxCE <= 0 {
		b.MaxCE = 5
	}
	if b.Lanes <= 0 {
		b.Lanes = 64
	}
	return b
}

// spotEngine is the cross-check executor for a primary engine.
func spotEngine(primary string) string {
	if primary == "interp" {
		return "vm"
	}
	return "interp"
}

// Verify sweeps every enumeration point of the target within the
// bounds and returns the report. The error return is reserved for
// infrastructure failures (a machine that cannot even be built);
// behavioural disagreements are counterexamples in the report.
func Verify(t Target, bounds Bounds) (*Report, error) {
	b := bounds.withDefaults()
	rep := &Report{
		Design: t.Name(), K: b.K, Width: b.Width, Window: b.Window,
		Alphabet: len(t.Alphabet()), ExcLetters: len(t.ExcLetters()),
		Interrupts: t.IntrCapable(),
	}

	var chunk []PointDesc
	var infraErr error
	flush := func() {
		if len(chunk) == 0 || infraErr != nil {
			return
		}
		res, err := runChunk(t, b, chunk)
		if err != nil {
			infraErr = err
			return
		}
		// Collect in point order: the report is independent of worker
		// interleaving.
		for i, pd := range chunk {
			if len(rep.Counterexamples) >= b.MaxCE {
				break
			}
			r := &res[i]
			if r.mm != nil {
				rep.Counterexamples = append(rep.Counterexamples, newCounterexample(t, pd, r.mm))
				continue
			}
			if r.spotted {
				rep.SpotChecks++
				if r.spot != nil {
					rep.Counterexamples = append(rep.Counterexamples, newCounterexample(t, pd, r.spot))
				}
			}
		}
		chunk = chunk[:0]
	}

	rep.Programs, rep.Points = Enumerate(t, b, func(pd PointDesc) bool {
		chunk = append(chunk, pd)
		if len(chunk) == b.Lanes {
			flush()
		}
		return infraErr == nil && len(rep.Counterexamples) < b.MaxCE
	})
	flush()
	if infraErr != nil {
		return nil, infraErr
	}
	rep.Verified = len(rep.Counterexamples) == 0
	return rep, nil
}

// pointResult is one point's outcome: its verdict and, when the point
// was sampled, the spot check's.
type pointResult struct {
	mm      *Mismatch
	spotted bool
	spot    *Mismatch
}

// runChunk runs a chunk's points on GOMAXPROCS workers. A worker claims
// the next point and builds its machine under one lock, so the n-th
// primary Build is the n-th point; then it advances the machine through
// the budget, checks it, spot-checks it when sampled and releases it.
// Results land at their point's index. A failed build stops further
// claims, so the error returned is the first in point order.
func runChunk(t Target, b Bounds, chunk []PointDesc) ([]pointResult, error) {
	res := make([]pointResult, len(chunk))
	var (
		mu       sync.Mutex
		next     int
		buildErr error
	)
	claim := func() (int, *sim.Machine) {
		mu.Lock()
		defer mu.Unlock()
		if next == len(chunk) || buildErr != nil {
			return -1, nil
		}
		i := next
		next++
		m, err := t.Build(chunk[i].Prog, chunk[i].Intr, b.Engine)
		if err != nil {
			buildErr = fmt.Errorf("bveq: build point %d: %w", chunk[i].Index, err)
			return -1, nil
		}
		return i, m
	}
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(chunk)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, m := claim(); m != nil; i, m = claim() {
				pd := chunk[i]
				runErr := m.Advance(b.Budget)
				r := &res[i]
				r.mm = t.Check(pd.Prog, pd.Intr, m, runErr)
				if r.mm == nil && b.SpotEvery > 0 && pd.Index%b.SpotEvery == 0 {
					r.spotted = true
					r.spot = spotCheck(t, pd, b, m)
				}
				release(t, m, runErr)
			}
		}()
	}
	wg.Wait()
	return res, buildErr
}

// spotCheck reruns one point on the spot engine and requires both the
// sequential specification and the primary engine's observable run to
// agree with it.
func spotCheck(t Target, pd PointDesc, b Bounds, primary *sim.Machine) *Mismatch {
	m, runErr := runPoint(t, pd.Prog, pd.Intr, spotEngine(b.Engine), b.Budget)
	if m == nil {
		return &Mismatch{Stage: "engine", Detail: "spot engine machine build failed: " + runErr.Error(), Index: -1, Cycle: -1}
	}
	defer release(t, m, runErr)
	if mm := t.Check(pd.Prog, pd.Intr, m, runErr); mm != nil {
		mm.Stage = "engine"
		mm.Detail = spotEngine(b.Engine) + " spot check: " + mm.Detail
		return mm
	}
	if msg, idx, cyc := diffRuns(primary, m); msg != "" {
		return &Mismatch{Stage: "engine",
			Detail: fmt.Sprintf("%s vs %s: %s", b.Engine, spotEngine(b.Engine), msg),
			Index:  idx, Cycle: cyc}
	}
	return nil
}

// diffRuns compares two engines' observable runs of the same point:
// retirement-for-retirement (pc, exceptionality, throw arguments, cycle
// stamp) plus the drain status.
func diffRuns(a, b *sim.Machine) (msg string, index, cycle int) {
	ra, rb := a.Retired(), b.Retired()
	n := len(ra)
	if len(rb) < n {
		n = len(rb)
	}
	for i := 0; i < n; i++ {
		x, y := ra[i], rb[i]
		same := x.Pipe == y.Pipe && x.Exceptional == y.Exceptional &&
			x.Cycle == y.Cycle && len(x.Args) == len(y.Args) && len(x.EArgs) == len(y.EArgs)
		if same {
			for j := range x.Args {
				if x.Args[j].Uint() != y.Args[j].Uint() {
					same = false
				}
			}
			for j := range x.EArgs {
				if x.EArgs[j].Uint() != y.EArgs[j].Uint() {
					same = false
				}
			}
		}
		if !same {
			return fmt.Sprintf("retirement %d differs (cycle %d vs %d)", i, x.Cycle, y.Cycle), i, x.Cycle
		}
	}
	if len(ra) != len(rb) {
		return fmt.Sprintf("trace lengths %d vs %d", len(ra), len(rb)), n, -1
	}
	if (a.InFlight() == 0) != (b.InFlight() == 0) {
		return fmt.Sprintf("drain status differs (%d vs %d in flight)", a.InFlight(), b.InFlight()), -1, -1
	}
	return "", -1, -1
}

// runPoint builds one point's machine and advances it through the full
// budget (Advance, not Run: Verify's workers drive devices past drain,
// and solo reruns must observe the identical device semantics).
func runPoint(t Target, prog []uint32, intr int, engine string, budget int) (*sim.Machine, error) {
	m, err := t.Build(prog, intr, engine)
	if err != nil {
		return nil, err
	}
	return m, m.Advance(budget)
}

// CheckPoint runs a single enumeration point solo and returns its
// mismatch (nil when the point agrees). It is the shrinker's property
// and the CLI's recheck primitive; it observes exactly the semantics of
// a point in Verify.
func CheckPoint(t Target, prog []uint32, intr int, engine string, budget int) *Mismatch {
	m, runErr := runPoint(t, prog, intr, engine, budget)
	if m == nil {
		return &Mismatch{Stage: "run", Detail: "build: " + runErr.Error(), Index: -1, Cycle: -1}
	}
	defer release(t, m, runErr)
	return t.Check(prog, intr, m, runErr)
}

// release hands a machine the gate is done with back to a pooling
// target. A machine whose run failed is dropped: its state after a
// deadlock or an internal error is not worth trusting to Reset.
func release(t Target, m *sim.Machine, runErr error) {
	if r, ok := t.(Releaser); ok && runErr == nil {
		r.Release(m)
	}
}
