package sim

import (
	"testing"

	"xpdl/internal/val"
)

// throughputSrc is a self-sustaining three-stage pipeline that keeps an
// instruction in every stage forever (each instruction spawns its
// successor), exercising the executor's hot paths: renaming-lock
// reserve/block/release, an unlocked table read, an extern returning a
// record (field accesses), an in-language function call, slices,
// and ternaries.
const throughputSrc = `
memory rf: uint<32>[32] with renaming, comb_read;
memory tab: uint<32>[64] with nolock, comb_read;
extern func mix(t: uint<32>) -> (lo: uint<32>, hi: uint<32>);
func clampf(x: uint<32>) -> uint<32> {
    y = x & 1023;
    return y > 512 ? y - 256 : y;
}
pipe p(i: uint<32>)[rf, tab] {
    call p(i + 1);
    a = i[4:0];
    reserve(rf[ext(a, 5)], W);
    ---
    t = tab[i[5:0]];
    r = mix(t);
    v = clampf(r.lo ^ r.hi);
    block(rf[ext(a, 5)]);
    rf[ext(a, 5)] <- v + (i[0:0] == 1 ? 3 : 1);
    ---
    release(rf[ext(a, 5)]);
}
`

// mixExtern returns a record per distinct table value, memoized so the
// steady-state loop performs no allocations inside the extern either.
func mixExtern() ExternFunc {
	cache := make(map[uint64]V)
	return func(args []val.Value) V {
		k := args[0].Uint()
		if v, ok := cache[k]; ok {
			return v
		}
		v := Record(map[string]val.Value{
			"lo": val.New(k*2654435761, 32),
			"hi": val.New(k^0x9e3779b9, 32),
		})
		cache[k] = v
		return v
	}
}

// buildThroughput constructs one warmed steady-state machine on the
// saturated kernel.
func buildThroughput(b *testing.B, engine string) *Machine {
	b.Helper()
	m := build(b, throughputSrc, Config{
		Engine:   engine,
		MaxTrace: 1,
		Externs:  map[string]ExternFunc{"mix": mixExtern()},
	})
	for i := 0; i < 64; i++ {
		m.MemPoke("tab", uint64(i), val.New(uint64(i)*0x51f15, 32))
	}
	if err := m.Start("p", val.New(0, 32)); err != nil {
		b.Fatal(err)
	}
	// Warm up into steady state (fills the pipeline, the entry queue,
	// and every reusable arena) before measuring.
	for i := 0; i < 64; i++ {
		if err := m.Step(); err != nil {
			b.Fatal(err)
		}
	}
	return m
}

func runHot(b *testing.B, engine string) {
	m := buildThroughput(b, engine)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
	if m.Firings() == 0 {
		b.Fatal("pipeline made no progress")
	}
}

// pacedPeriod is the device period of the headline benchmark: one
// instruction injected every 256 cycles, the bursty shape of a
// device- or timer-paced design (§3.6) where most cycles are quiet.
const pacedPeriod = 256

// buildPaced constructs a machine whose wake-predicting device starts
// one instruction every pacedPeriod cycles, forever. Between bursts the
// machine is fully drained, so the vm engine may fast-forward while
// the closure and interp engines tick every cycle.
func buildPaced(b *testing.B, engine string) *Machine {
	b.Helper()
	m := build(b, pacedSrc, Config{Engine: engine, MaxTrace: 1})
	started := 0
	m.OnCycleWake(func(m *Machine) {
		if m.Cycle()%pacedPeriod == 0 {
			if err := m.Start("p", val.New(uint64(started&0xffff), 32)); err != nil {
				b.Errorf("device start %d: %v", started, err)
			}
			started++
		}
	}, func(cycle int) int {
		if r := cycle % pacedPeriod; r != 0 {
			return cycle + pacedPeriod - r
		}
		return cycle
	})
	return m
}

func runPaced(b *testing.B, engine string) {
	m := buildPaced(b, engine)
	b.ReportAllocs()
	b.ResetTimer()
	if err := m.Advance(b.N); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
	if b.N > pacedPeriod && m.Firings() == 0 {
		b.Fatal("pipeline made no progress")
	}
}

// BenchmarkSimThroughput reports cycles/sec for the three executors.
//
// The headline series (compiled, interp, vm) runs a device-paced design
// via Advance: work arrives in short bursts every pacedPeriod cycles
// and the machine drains in between, so the vm engine's quiescent
// fast-forward skips the quiet stretches in O(1) while the others tick
// them one by one. Every engine simulates exactly b.N machine-cycles
// with identical observables (fastforward_test.go pins this).
//
// The -hot series runs the saturated kernel — an instruction in every
// stage every cycle, no quiet cycles to skip — and so isolates raw
// dispatch cost; there the three engines are within ~2x of each other.
// Stage evaluation, not scheduling or lock machinery, dominates: a vm
// CPU profile of every variant running every kernel, one fresh machine
// per run, puts the bytecode dispatch loop (vm.(*Env).runSeg) at ~37%
// of the time flat, its record-layout test for field access at ~3%,
// the per-firing write-back of the stage's written slots in
// Machine.fire at ~3%, effect application at ~8%, the renaming lock at ~8%, and the
// retirement trace regrowing from empty on each fresh machine
// (Machine.retire) at ~8%. Run with -benchmem: compiled and vm cycle
// loops must stay at ~0 allocs/op in both shapes.
func BenchmarkSimThroughput(b *testing.B) {
	b.Run("compiled", func(b *testing.B) { runPaced(b, "closure") })
	b.Run("interp", func(b *testing.B) { runPaced(b, "interp") })
	b.Run("vm", func(b *testing.B) { runPaced(b, "vm") })
	b.Run("compiled-hot", func(b *testing.B) { runHot(b, "closure") })
	b.Run("interp-hot", func(b *testing.B) { runHot(b, "interp") })
	b.Run("vm-hot", func(b *testing.B) { runHot(b, "vm") })
}
