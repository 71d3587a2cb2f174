package bveq

import (
	"testing"

	"xpdl/internal/designs"
	"xpdl/internal/sim"
	"xpdl/internal/val"
)

// rv32Bounds is the tier-1 sweep: K=2 with a modest interrupt window
// keeps the full five-variant gate in CI time while still crossing
// every exception letter with every arrival cycle.
func rv32Bounds() Bounds {
	return Bounds{K: 2, Window: 4}
}

// TestRV32VariantsBoundedVerified: every hand-written variant earns the
// bounded-verified badge — zero mismatches over the whole K=2 space.
func TestRV32VariantsBoundedVerified(t *testing.T) {
	for _, v := range designs.Variants() {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			t.Parallel()
			tgt, err := NewVariantTarget(v, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Verify(tgt, rv32Bounds())
			if err != nil {
				t.Fatal(err)
			}
			for _, ce := range rep.Counterexamples {
				t.Errorf("counterexample (%s): %s\n  prog=%v intr=%d", ce.Stage, ce.Detail, ce.Asm, ce.IntrCycle)
			}
			if !rep.Verified {
				t.Fatalf("%s not bounded-verified (%d points)", v, rep.Points)
			}
			wantProgs, wantPoints := Cardinality(rv32Bounds(), rep.Alphabet, rep.ExcLetters, rep.Interrupts)
			if rep.Programs != wantProgs || rep.Points != wantPoints {
				t.Fatalf("swept %d programs / %d points, closed form %d / %d",
					rep.Programs, rep.Points, wantProgs, wantPoints)
			}
			t.Logf("%s: %d programs, %d points, %d spot checks", v, rep.Programs, rep.Points, rep.SpotChecks)
		})
	}
}

// TestRV32LettersDisjoint: the safe alphabet and the exception letters
// must not overlap (the enumerator's cardinality argument relies on it),
// and each letter must be a distinct word.
func TestRV32LettersDisjoint(t *testing.T) {
	for _, v := range designs.Variants() {
		tgt, err := NewVariantTarget(v, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[uint32]string{}
		for _, in := range append(append([]Inst(nil), tgt.Alphabet()...), tgt.ExcLetters()...) {
			if prev, dup := seen[in.Word]; dup {
				t.Errorf("%s: letter %q and %q share word %#x", v, prev, in.Asm, in.Word)
			}
			seen[in.Word] = in.Asm
		}
		if tgt.Neutral() == 0 {
			t.Errorf("%s: neutral word is zero", v)
		}
	}
}

// TestRV32StateMismatchDetail: a final state that differs from the
// golden model's is reported at the lowest differing register, data
// word or CSR, in the detail format counterexamples and E-BVEQ
// diagnostics carry.
func TestRV32StateMismatchDetail(t *testing.T) {
	tgt, err := NewVariantTarget(designs.All, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	prog := []uint32{tgt.Alphabet()[0].Word}
	for _, tc := range []struct {
		name   string
		poke   func(m *sim.Machine)
		detail string
	}{
		{"rf", func(m *sim.Machine) {
			m.MemPoke("rf", 9, val.New(0x1234, 32))
			m.MemPoke("rf", 5, val.New(0xbeef, 32))
		}, "x5 = 0xbeef, golden 0x0"},
		{"dmem", func(m *sim.Machine) {
			m.MemPoke("dmem", 1023, val.New(1, 32))
			m.MemPoke("dmem", 7, val.New(0xdead, 32))
		}, "dmem[7] = 0xdead, golden 0x0"},
		{"csr", func(m *sim.Machine) { m.VolPoke("mscratch", val.New(0x42, 32)) }, "mscratch = 0x42, golden 0x0"},
	} {
		m, err := tgt.Build(prog, -1, "vm")
		if err != nil {
			t.Fatal(err)
		}
		runErr := m.Advance(384)
		if runErr != nil {
			t.Fatal(runErr)
		}
		if mm := tgt.Check(prog, -1, m, runErr); mm != nil {
			t.Fatalf("%s: clean point mismatched: %s", tc.name, mm)
		}
		tc.poke(m)
		mm := tgt.Check(prog, -1, m, runErr)
		if mm == nil || mm.Stage != "state" || mm.Detail != tc.detail {
			t.Errorf("%s: mismatch %v, want state: %s", tc.name, mm, tc.detail)
		}
		tgt.Release(m)
	}
}
