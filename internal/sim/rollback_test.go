package sim

import (
	"reflect"
	"testing"

	"xpdl/internal/val"
)

// stallSrc makes each instruction's second stage write its slots and
// then block on a lock the next older instruction holds until its last
// stage, four stages on: a younger instruction's second stage stalls
// several times in a row after its writes. The stage writes x twice
// with =, y with <- (which its own later read of y must not see), and
// u with <- before = (the latched write must win).
const stallSrc = `
memory m: uint<32>[4] with basic, comb_read;
memory out: uint<32>[8] with basic, comb_read;
pipe p(i: uint<32>)[m, out] {
    if (i < 5) { call p(i + 1); }
    x = i + 1;
    y = i + 2;
    u = i + 3;
    reserve(m[2'd0], W);
    ---
    x = x + 10;
    x = x * 3;
    y <- x + 7;
    w = y + 100;
    u <- x + 5;
    u = 32'd9;
    block(m[2'd0]);
    ---
    k2 = x + 1;
    ---
    k3 = x + 2;
    ---
    k4 = x + 3;
    ---
    k5 = x + 4;
    ---
    acquire(out, W);
    out[i[2:0]] <- x + y * 256 + w * 65536 + u * 16777216;
    release(out);
    release(m[2'd0]);
}
`

// TestStallRollsBackSlotWrites pins the atomicity of a stalled firing
// on every engine: after each attempt of the second stage that stalled
// on the lock, the instruction's slots read exactly what they held
// before the attempt. The final memory must hold the values the
// sequential semantics give, and every engine's retirement trace and
// memory must equal the interpreter's.
func TestStallRollsBackSlotWrites(t *testing.T) {
	const n = 6
	want := make([]uint64, n)
	for i := uint64(0); i < n; i++ {
		x := (i + 1 + 10) * 3
		y := x + 7       // latched: visible from the third stage on
		w := i + 2 + 100 // reads y as the first stage left it
		u := x + 5       // the latched write wins over u = 9
		want[i] = x + y<<8 + w<<16 + u<<24
	}
	type result struct {
		retired []Retirement
		out     []uint64
		cycles  int
	}
	results := map[string]result{}
	for _, engine := range Engines() {
		t.Run(engine, func(t *testing.T) {
			m := build(t, stallSrc, Config{Engine: engine})
			if err := m.Start("p", val.New(0, 32)); err != nil {
				t.Fatal(err)
			}
			p, _ := m.Pipe("p")
			ps := m.pipe("p")
			stage1 := ps.body[1]
			var slots []int
			for _, name := range []string{"x", "y", "w", "u"} {
				s, ok := m.SlotIndex("p", name)
				if !ok {
					t.Fatalf("no slot %s", name)
				}
				slots = append(slots, s)
			}
			type slotRead struct {
				v  V
				ok bool
			}
			stalls := 0
			for m.cycle < 200 && (m.cycle == 0 || m.InFlight() > 0) {
				in := stage1.cur
				attempt := in != nil && stage1.next.cur == nil
				var before []slotRead
				if attempt {
					for _, s := range slots {
						v, ok := p.StageSlot(stage1.pos, s)
						before = append(before, slotRead{v, ok})
					}
				}
				if err := m.Step(); err != nil {
					t.Fatal(err)
				}
				if !attempt || stage1.cur != in {
					continue // no attempt, or it fired
				}
				stalls++
				for k, s := range slots {
					v, ok := p.StageSlot(stage1.pos, s)
					if (slotRead{v, ok}) != before[k] {
						t.Errorf("cycle %d iid %d: slot %d reads %v (set %v) after a stalled attempt, want %v (set %v)",
							m.cycle, in.iid, s, v.Val, ok, before[k].v.Val, before[k].ok)
					}
				}
			}
			if m.InFlight() != 0 {
				t.Fatalf("did not drain: %d in flight at cycle %d", m.InFlight(), m.cycle)
			}
			if stalls < 2*(n-1) {
				t.Fatalf("%d stalled attempts after the stage's writes, want at least %d", stalls, 2*(n-1))
			}
			r := result{retired: m.Retired(), cycles: m.cycle}
			for i := 0; i < n; i++ {
				got := m.MemPeek("out", uint64(i)).Uint()
				if got != want[i] {
					t.Errorf("out[%d] = %#x, want %#x", i, got, want[i])
				}
				r.out = append(r.out, got)
			}
			results[engine] = r
		})
	}
	oracle, ok := results["interp"]
	if !ok {
		t.Fatal("no interp result")
	}
	for engine, r := range results {
		if !reflect.DeepEqual(r, oracle) {
			t.Errorf("%s: %d cycles, %d retired, out %#x; interp: %d cycles, %d retired, out %#x",
				engine, r.cycles, len(r.retired), r.out, oracle.cycles, len(oracle.retired), oracle.out)
		}
	}
}
