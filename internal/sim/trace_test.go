package sim

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"xpdl/internal/val"
)

// trapLoopSrc retires 1501 instructions, one pc argument each; every
// 512th, from the third, throws, and its handler resumes after it, so
// exceptional retirements with throw arguments are spread through the
// trace.
const trapLoopSrc = `
pipe cpu(i: uint<32>)[] {
    if (i < 1500) { call cpu(i + 1); }
    ---
    if (i[8:0] == 9'd2) { throw(i[4:0]); }
commit:
    skip;
except(code: uint<5>):
    call cpu(i + 1);
}
`

func runTrapLoop(t *testing.T, cfg Config) *Machine {
	t.Helper()
	m := build(t, trapLoopSrc, cfg)
	if err := m.Start("cpu", val.New(0, 32)); err != nil {
		t.Fatal(err)
	}
	run(t, m, 20000)
	return m
}

// copyRetirement deep-copies a retirement's argument slices.
func copyRetirement(r Retirement) Retirement {
	r.Args = append([]val.Value(nil), r.Args...)
	if r.EArgs != nil {
		r.EArgs = append([]val.Value(nil), r.EArgs...)
	}
	return r
}

// An early retirement's Args and EArgs stay as they were, in place,
// after the trace and the argument arena have grown through several
// blocks.
func TestEarlyRetirementSurvivesGrowth(t *testing.T) {
	m := build(t, trapLoopSrc, Config{})
	if err := m.Start("cpu", val.New(0, 32)); err != nil {
		t.Fatal(err)
	}
	for len(m.Retired()) < 8 {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	early := append([]Retirement(nil), m.Retired()...)
	want := make([]Retirement, len(early))
	for i, r := range early {
		want[i] = copyRetirement(r)
	}
	if !want[2].Exceptional || len(want[2].EArgs) == 0 {
		t.Fatalf("retirement 2 = %+v, want the first exceptional one", want[2])
	}
	first := &early[0].Args[0]
	run(t, m, 20000)

	rs := m.Retired()
	if len(rs) != 1501 {
		t.Fatalf("retired %d, want 1501", len(rs))
	}
	if n := len(m.retArgs.blocks); n < 4 {
		t.Fatalf("argument arena has %d blocks, want the trace to cross at least 4", n)
	}
	for i := range want {
		if !reflect.DeepEqual(rs[i], want[i]) {
			t.Errorf("retirement %d = %+v, want %+v", i, rs[i], want[i])
		}
		if !reflect.DeepEqual(early[i], want[i]) {
			t.Errorf("retirement %d read before growth became %+v, want %+v", i, early[i], want[i])
		}
	}
	if &rs[0].Args[0] != first {
		t.Error("retirement 0's Args moved while the trace grew")
	}
	if exc := rs[514].EArgs; len(exc) != 1 || exc[0].Uint() != 514&31 {
		t.Errorf("retirement 514's EArgs = %v, want [%d]", exc, 514&31)
	}
}

// The trace grows by doubling, never past MaxTrace.
func TestTraceGrowthCapped(t *testing.T) {
	for _, limit := range []int{1, 100, 1000, 4096} {
		m := runTrapLoop(t, Config{MaxTrace: limit})
		rs := m.Retired()
		if want := min(limit, 1501); len(rs) != want {
			t.Errorf("MaxTrace %d: stored %d, want %d", limit, len(rs), want)
		}
		if c := cap(rs); c > limit || c < len(rs) || c > max(2*len(rs), traceMin) {
			t.Errorf("MaxTrace %d: trace capacity %d for %d entries", limit, c, len(rs))
		}
		if got := m.RetiredCount("cpu"); got != len(rs) {
			t.Errorf("MaxTrace %d: RetiredCount %d, want %d", limit, got, len(rs))
		}
	}
}

// Restore refuses a trace longer than the machine's MaxTrace, and sizes
// the trace once for one that fits.
func TestRestoreTraceBound(t *testing.T) {
	src := runTrapLoop(t, Config{})
	b, err := src.SaveBytes()
	if err != nil {
		t.Fatal(err)
	}
	n := len(src.Retired())

	short := build(t, trapLoopSrc, Config{MaxTrace: n - 1})
	err = short.Restore(bytes.NewReader(b))
	if err == nil || !strings.Contains(err.Error(), "trace holds 1501 retirements, this machine stores at most 1500") {
		t.Fatalf("Restore into MaxTrace %d: %v, want a refusal", n-1, err)
	}

	for _, limit := range []int{n, 0} {
		m := build(t, trapLoopSrc, Config{MaxTrace: limit})
		if err := m.Restore(bytes.NewReader(b)); err != nil {
			t.Fatalf("Restore into MaxTrace %d: %v", limit, err)
		}
		rs := m.Retired()
		if len(rs) != n || cap(rs) != n {
			t.Errorf("MaxTrace %d: restored trace len %d cap %d, want both %d", limit, len(rs), cap(rs), n)
		}
		if got := m.RetiredCount("cpu"); got != n {
			t.Errorf("MaxTrace %d: restored RetiredCount %d, want %d", limit, got, n)
		}
		if !reflect.DeepEqual(rs, src.Retired()) {
			t.Errorf("MaxTrace %d: restored trace differs", limit)
		}
	}
}
