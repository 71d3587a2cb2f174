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
// The sweep rides the lockstep batch driver (internal/vm.Batch): points
// of one design are independent lanes over a single compiled program,
// so the bytecode image stays shared and hot while thousands of lanes
// advance in parallel. The interpreter cross-checks a sampled subset of
// points against the primary engine, so the gate also guards the
// engines against each other.
//
// Everything is deterministic: enumeration order is fixed, lane results
// are collected in point order regardless of worker scheduling, and the
// report's canonical JSON is byte-identical across runs and across
// engines.
package bveq

import (
	"fmt"

	"xpdl/internal/sim"
	"xpdl/internal/vm"
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
// from batch workers.
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
	// MaxCE caps recorded counterexamples (default 5); Lanes is the
	// batch width (default 64).
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
		machines := make([]*sim.Machine, len(chunk))
		lanes := make([]vm.Stepper, len(chunk))
		for i, pd := range chunk {
			m, err := t.Build(pd.Prog, pd.Intr, b.Engine)
			if err != nil {
				infraErr = fmt.Errorf("bveq: build point %d: %w", pd.Index, err)
				return
			}
			machines[i] = m
			lanes[i] = m
		}
		batch := vm.NewBatch(lanes)
		batch.Run(b.Budget)
		// Collect in point order: the report is independent of worker
		// interleaving.
		for i, pd := range chunk {
			if len(rep.Counterexamples) >= b.MaxCE {
				break
			}
			if mm := t.Check(pd.Prog, pd.Intr, machines[i], batch.Err(i)); mm != nil {
				rep.Counterexamples = append(rep.Counterexamples, newCounterexample(t, pd, mm))
				continue
			}
			if b.SpotEvery > 0 && pd.Index%b.SpotEvery == 0 {
				rep.SpotChecks++
				if mm := spotCheck(t, pd, b, machines[i]); mm != nil {
					rep.Counterexamples = append(rep.Counterexamples, newCounterexample(t, pd, mm))
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

// spotCheck reruns one point on the spot engine and requires both the
// sequential specification and the primary engine's observable run to
// agree with it.
func spotCheck(t Target, pd PointDesc, b Bounds, primary *sim.Machine) *Mismatch {
	m, runErr := runPoint(t, pd.Prog, pd.Intr, spotEngine(b.Engine), b.Budget)
	if m == nil {
		return &Mismatch{Stage: "engine", Detail: "spot engine machine build failed: " + runErr.Error(), Index: -1, Cycle: -1}
	}
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
// budget (Advance, not Run: the batch path drives devices past drain,
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
// a batch lane.
func CheckPoint(t Target, prog []uint32, intr int, engine string, budget int) *Mismatch {
	m, runErr := runPoint(t, prog, intr, engine, budget)
	if m == nil {
		return &Mismatch{Stage: "run", Detail: "build: " + runErr.Error(), Index: -1, Cycle: -1}
	}
	return t.Check(prog, intr, m, runErr)
}
