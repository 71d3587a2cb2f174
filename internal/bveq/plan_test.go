package bveq

import (
	"testing"

	"xpdl"
	"xpdl/internal/core"
	"xpdl/internal/designs"
)

// TestStripAbortsSameInfoDistinctPlans: the clean and the abort-stripped
// translations of one *check.Info are two programs, so they get two
// plans and two vm Programs. A Program cache keyed by the checked
// program alone would hand the stripped target the clean bytecode, and
// the seeded bug would go unseen.
func TestStripAbortsSameInfoDistinctPlans(t *testing.T) {
	// vm only: an interpreter spot check would catch the stripped aborts
	// through the other engine and mask a shared bytecode Program.
	bounds := Bounds{K: 2, Window: 4, SpotEvery: -1}
	clean, err := NewVariantTarget(designs.All, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Verify the clean target first, so its vm Program exists before the
	// stripped target builds any machine.
	rep, err := Verify(clean, bounds)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified {
		t.Fatalf("clean %s not bounded-verified", clean.Name())
	}

	// A second target over the same check.Info: each target owns its
	// machine pool, so only the plan could carry the clean program over.
	d := clean.design
	trs := core.TranslateProgram(d.Info)
	StripAborts(trs)
	stripped, err := NewVariantTarget(designs.All, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	stripped.design = &xpdl.Design{Source: d.Source, Prog: d.Prog, Info: d.Info, Translations: trs}
	rep, err = Verify(stripped, bounds)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verified {
		t.Fatalf("abort-strip translation of the same check.Info verified clean (%d points)", rep.Points)
	}

	cp, err := clean.design.Plan()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := stripped.design.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if cp == sp {
		t.Fatal("clean and stripped translations share one plan")
	}
	// The stripped translation is a separate tree: the clean target is
	// still precise.
	if rep, err := Verify(clean, bounds); err != nil || !rep.Verified {
		t.Fatalf("clean target no longer verifies after stripping a second translation: %v", err)
	}
}

// maxBuildAllocs pins the allocations of one point's machine build on a
// warm plan (vm engine, booted, interrupt device attached): measured at
// 52, plus a margin. Resolving the translated AST per machine instead
// costs about 250, so per-point resolution cannot creep back unseen.
const maxBuildAllocs = 64

// TestBuildAllocsWarmPlan guards the per-point cost of a warm-plan
// VariantTarget.Build.
func TestBuildAllocsWarmPlan(t *testing.T) {
	tgt, err := NewVariantTarget(designs.All, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	prog := []uint32{tgt.Alphabet()[0].Word, tgt.ExcLetters()[0].Word}
	if _, err := tgt.Build(prog, 3, "vm"); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := tgt.Build(prog, 3, "vm"); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm-plan Build: %.0f allocations", allocs)
	if allocs > maxBuildAllocs {
		t.Errorf("warm-plan Build makes %.0f allocations, guard is %d", allocs, maxBuildAllocs)
	}
}

// maxPooledBuildAllocs pins the allocations of one point's Build plus
// Release once the target's pool is warm: the machine is reset, not
// built, and the interrupt device is shared, so it measures 0; the
// guard keeps a margin of 4.
const maxPooledBuildAllocs = 4

// TestBuildReleaseAllocsWarmPool guards the per-point cost of a pooled
// VariantTarget.Build.
func TestBuildReleaseAllocsWarmPool(t *testing.T) {
	tgt, err := NewVariantTarget(designs.All, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	prog := []uint32{tgt.Alphabet()[0].Word, tgt.ExcLetters()[0].Word}
	point := func() {
		m, err := tgt.Build(prog, 3, "vm")
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Advance(64); err != nil {
			t.Fatal(err)
		}
		tgt.Release(m)
	}
	point()
	allocs := testing.AllocsPerRun(20, func() {
		m, err := tgt.Build(prog, 3, "vm")
		if err != nil {
			t.Fatal(err)
		}
		tgt.Release(m)
	})
	t.Logf("warm-pool Build+Release: %.0f allocations", allocs)
	if allocs > maxPooledBuildAllocs {
		t.Errorf("warm-pool Build+Release makes %.0f allocations, guard is %d", allocs, maxPooledBuildAllocs)
	}
}

// maxPointAllocs pins the allocations of one whole point on a warm
// pool — Build, Advance through the budget, Check, Release — for a
// point whose illegal instruction traps, so the rollback stage aborts
// the renaming register file: measured at 8, plus a margin of 4. The
// trapping instruction's except arguments are what is left; an
// exception rollback that allocates (a fresh snapshot, map and free
// list per Abort), a per-point interrupt device or a per-word state
// compare would pass it by far. A race-detector build adds allocations
// of its own (8 to 13 measured), so there the point still runs but its
// count is not compared.
const maxPointAllocs = 12

// TestPointAllocsWarmPool guards the per-point cost of a sweep once the
// target's machine and check pools are warm.
func TestPointAllocsWarmPool(t *testing.T) {
	tgt, err := NewVariantTarget(designs.All, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	var illegal Inst
	for _, in := range tgt.ExcLetters() {
		if in.Asm == ".word 0xFFFFFFFF" {
			illegal = in
		}
	}
	if illegal.Word == 0 {
		t.Fatal("the All variant has no illegal-instruction letter")
	}
	prog := []uint32{tgt.Alphabet()[0].Word, illegal.Word, tgt.Alphabet()[1].Word}
	const intr, budget = 3, 384
	point := func() {
		m, err := tgt.Build(prog, intr, "vm")
		if err != nil {
			t.Fatal(err)
		}
		runErr := m.Advance(budget)
		if runErr != nil {
			t.Fatal(runErr)
		}
		trapped := false
		for _, r := range m.Retired() {
			trapped = trapped || r.Exceptional
		}
		if !trapped {
			t.Fatal("the point took no exception")
		}
		if mm := tgt.Check(prog, intr, m, runErr); mm != nil {
			t.Fatal(mm)
		}
		tgt.Release(m)
	}
	point()
	allocs := testing.AllocsPerRun(20, point)
	t.Logf("warm-pool point: %.0f allocations", allocs)
	if !raceEnabled && allocs > maxPointAllocs {
		t.Errorf("warm-pool point makes %.0f allocations, guard is %d", allocs, maxPointAllocs)
	}
}
