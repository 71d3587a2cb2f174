// Package fault is a deterministic, seed-driven timing-fault injector
// for the XPDL pipeline simulator.
//
// The injector answers the simulator's chaos hook points (see
// sim.FaultInjector): may this stage fire this cycle, is this extern
// call's result "still in flight", may the first body stage pull from
// the entry queue. Every answer is a pure function of the seed and the
// queried coordinates — no internal state, no clock — so a run with a
// given seed is exactly reproducible, resumable, and identical across
// the compiled and interpreter executors (which visit the same
// coordinates on the same cycles by construction).
//
// All injected faults are *timing-only*: they delay work, they never
// change a value, drop a write, or skip a required operation. The
// paper's precise-exception claim is therefore a metamorphic invariant
// under injection — the retirement trace and all architectural state
// must match the unperturbed run exactly (see the chaos differential
// suite in internal/sim).
package fault

// Config tunes the injector. Probabilities are percentages in [0,100];
// a zero percentage disables that fault class.
type Config struct {
	// Seed drives every decision; two injectors with equal configs make
	// identical decisions.
	Seed uint64
	// StallPct is the per-stage, per-cycle probability of a spurious
	// stall (the stage holds its instruction without attempting to fire,
	// as a structural hazard would).
	StallPct int
	// ExternPct is the per-call, per-cycle probability that an extern
	// function's result is not ready yet, stalling the firing; retries
	// re-roll each cycle, so injected extern latency is geometric.
	ExternPct int
	// EntryPct is the per-pipe, per-cycle probability that the first
	// body stage refuses to pull from the entry queue (backpressure).
	EntryPct int
	// StormPct is the per-cycle probability that an interrupt line is
	// pulsed (see Storm); meaningful only when a storm device is
	// attached, e.g. designs.AttachStorm.
	StormPct int
}

// Default is a moderate chaos mix: roughly every third cycle perturbs
// something, heavy enough to reorder all transient pipeline timing but
// far too light to ever trip a sanely-configured hang watchdog (the
// probability of W consecutive all-idle cycles is < StallPct^W).
func Default(seed uint64) Config {
	return Config{Seed: seed, StallPct: 20, ExternPct: 25, EntryPct: 30, StormPct: 10}
}

// Injector implements sim.FaultInjector. The zero value injects
// nothing; use New.
type Injector struct {
	cfg Config
}

// New builds an injector for a configuration.
func New(cfg Config) *Injector { return &Injector{cfg: cfg} }

// Seed reports the driving seed (for diagnostics and reports).
func (j *Injector) Seed() uint64 { return j.cfg.Seed }

// Domain separators keep the decision streams of the hook points
// independent even when their coordinates collide.
const (
	domStall uint64 = 0x5354414c4c   // "STALL"
	domExt   uint64 = 0x45585445524e // "EXTERN"
	domEntry uint64 = 0x454e545259   // "ENTRY"
	domStorm uint64 = 0x53544f524d   // "STORM"
)

// mix is splitmix64 over the seed and three coordinates — a stateless
// PRNG draw addressed by (domain, a, b, c).
func (j *Injector) mix(dom, a, b, c uint64) uint64 {
	x := j.cfg.Seed ^ dom
	x ^= a + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x ^= b + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= c + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (j *Injector) roll(dom, a, b, c uint64, pct int) bool {
	if pct <= 0 {
		return false
	}
	return j.mix(dom, a, b, c)%100 < uint64(pct)
}

// StallStage reports whether stage (a machine-global stage id) must
// spuriously stall this cycle.
func (j *Injector) StallStage(cycle, stage int) bool {
	return j.roll(domStall, uint64(cycle), uint64(stage), 0, j.cfg.StallPct)
}

// DelayExtern reports whether instruction iid's extern call at site is
// still "computing" this cycle (the firing stalls and retries).
func (j *Injector) DelayExtern(cycle int, iid uint64, site uint64) bool {
	return j.roll(domExt, uint64(cycle), iid, site, j.cfg.ExternPct)
}

// HoldEntry reports whether pipe's first body stage must skip pulling
// from the entry queue this cycle.
func (j *Injector) HoldEntry(cycle, pipe int) bool {
	return j.roll(domEntry, uint64(cycle), uint64(pipe), 0, j.cfg.EntryPct)
}

// Storm picks an interrupt line to pulse this cycle, or ok=false for a
// quiet cycle. lines is the number of distinct interrupt sources the
// caller can drive; the selection is uniform over them.
func (j *Injector) Storm(cycle, lines int) (line int, ok bool) {
	if lines <= 0 || !j.roll(domStorm, uint64(cycle), 0, 0, j.cfg.StormPct) {
		return 0, false
	}
	return int(j.mix(domStorm, uint64(cycle), 1, 1) % uint64(lines)), true
}
