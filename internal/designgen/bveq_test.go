package designgen

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"xpdl/internal/bveq"
)

// fixtureBounds is the static-gate configuration the fixture is pinned
// at: K=2 is already enough to catch the seeded bug.
func fixtureBounds() bveq.Bounds { return bveq.Bounds{K: 2, Window: 6} }

func loadFixtureSpec(t *testing.T) *DesignSpec {
	t.Helper()
	raw, err := os.ReadFile("testdata/bveq-abort-strip.json")
	if err != nil {
		t.Fatal(err)
	}
	var d DesignSpec
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	d.Normalize()
	return &d
}

// TestBveqFixtureCaughtStatically regression-pins the PR 7 seeded
// abort-strip translation bug as a *static* catch: no fuzzing, no
// random programs — the bounded exhaustive sweep at K=2 must reject the
// corrupted translation of the pinned design, and the shrinker must
// bring the counterexample down to a single instruction.
func TestBveqFixtureCaughtStatically(t *testing.T) {
	d := loadFixtureSpec(t)

	rep, err := BoundedVerify(d, fixtureBounds(), bveq.StripAborts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verified {
		t.Fatalf("abort-strip corruption not caught on %s at K=%d (%d points swept)",
			d.Name(), rep.K, rep.Points)
	}
	ce := rep.Counterexamples[0]
	t.Logf("caught: %s: %s (prog=%v, intr=%d)", ce.Stage, ce.Detail, ce.Asm, ce.IntrCycle)

	tgt, err := BveqTarget(d, rep.Width, bveq.StripAborts)
	if err != nil {
		t.Fatal(err)
	}
	sc := bveq.ShrinkPoint(tgt, fixtureBounds(), ce)
	if !sc.Shrunk {
		t.Error("shrinker did not run")
	}
	if len(sc.Prog) > 2 {
		t.Errorf("shrunk counterexample has %d words, want <= 2: %v", len(sc.Prog), sc.Asm)
	}
	if bveq.CheckPoint(tgt, sc.Prog, sc.IntrCycle, "vm", 384) == nil {
		t.Error("shrunk counterexample no longer diverges (monotonicity violated)")
	}

	// The diagnostic rendering must carry the program and the timing.
	dg := sc.Diagnostic()
	if !strings.HasPrefix(dg.Code, "E-BVEQ-") {
		t.Errorf("diagnostic code %q is not an E-BVEQ code", dg.Code)
	}
	if len(dg.Notes) == 0 {
		t.Error("diagnostic has no notes")
	}
}

// TestBveqFixtureCleanVerified: the uncorrupted translation of the very
// same design earns the badge under identical bounds — the catch is the
// seeded bug, not a latent divergence.
func TestBveqFixtureCleanVerified(t *testing.T) {
	d := loadFixtureSpec(t)
	rep, err := BoundedVerify(d, fixtureBounds(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ce := range rep.Counterexamples {
		t.Errorf("clean fixture diverges: %s: %s (prog=%v, intr=%d)", ce.Stage, ce.Detail, ce.Asm, ce.IntrCycle)
	}
	if !rep.Verified {
		t.Fatalf("clean fixture not bounded-verified (%d points)", rep.Points)
	}
}

// TestCampaignBveqGate: a clean campaign with the gate on sweeps every
// surviving design and finds nothing.
func TestCampaignBveqGate(t *testing.T) {
	sum := RunCampaign(CampaignOpts{N: 4, Seed: 11, Bveq: true, BveqLen: 2})
	if sum.Bveq == 0 {
		t.Fatal("no designs were bveq-gated")
	}
	for _, f := range sum.Findings {
		t.Errorf("clean campaign finding: %s %s: %s", f.Kind, f.Stage, f.Detail)
	}
}

// TestBveqFixtureEarlyStop: on the corrupted fixture the sweep stops at
// the end of the chunk holding its MaxCE-th counterexample, and the
// counterexamples are the first MaxCE failing points in enumeration
// order — the same for one worker or several — and the first shrinks
// to a single instruction.
func TestBveqFixtureEarlyStop(t *testing.T) {
	d := loadFixtureSpec(t)
	b := fixtureBounds()
	b.MaxCE, b.Lanes = 3, 16
	tgt, err := BveqTarget(d, 2, bveq.StripAborts)
	if err != nil {
		t.Fatal(err)
	}

	// The reference: every point checked alone, in order.
	var want []int
	_, total := bveq.Enumerate(tgt, b, func(pd bveq.PointDesc) bool {
		if len(want) < b.MaxCE && bveq.CheckPoint(tgt, pd.Prog, pd.Intr, "vm", 384) != nil {
			want = append(want, pd.Index)
		}
		return true
	})
	if len(want) < b.MaxCE {
		t.Fatalf("fixture has only %d failing points, want at least %d", len(want), b.MaxCE)
	}
	stop := (want[len(want)-1]/b.Lanes + 1) * b.Lanes
	if stop > total {
		stop = total
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var ref []byte
	for _, procs := range []int{1, runtime.NumCPU(), 4} {
		runtime.GOMAXPROCS(procs)
		rep, err := bveq.Verify(tgt, b)
		if err != nil {
			t.Fatal(err)
		}
		var got []int
		for _, ce := range rep.Counterexamples {
			got = append(got, ce.Point)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("GOMAXPROCS=%d: counterexamples at points %v, want %v", procs, got, want)
		}
		if rep.Points != stop {
			t.Errorf("GOMAXPROCS=%d: swept %d points, want a stop at %d", procs, rep.Points, stop)
		}
		raw, err := rep.Canon()
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = raw
		} else if !bytes.Equal(ref, raw) {
			t.Errorf("GOMAXPROCS=%d: report differs from GOMAXPROCS=1", procs)
		}
		if procs == 1 {
			if sc := bveq.ShrinkPoint(tgt, b, rep.Counterexamples[0]); len(sc.Prog) != 1 {
				t.Errorf("first counterexample shrinks to %d instructions, want 1: %v", len(sc.Prog), sc.Asm)
			}
		}
	}
}
