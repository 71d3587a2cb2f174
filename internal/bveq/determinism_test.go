package bveq

import (
	"bytes"
	"runtime"
	"testing"

	"xpdl/internal/core"
	"xpdl/internal/designs"
)

// sweepCanon runs one sweep and returns the canonical report bytes.
func sweepCanon(t *testing.T, v designs.Variant, corrupt func(map[string]*core.Result), engine string) []byte {
	t.Helper()
	tgt, err := NewVariantTarget(v, 2, corrupt)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(tgt, Bounds{K: 2, Window: 4, Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := rep.Canon()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestReportDeterminism: same target, same bounds — byte-identical
// canonical JSON across repeated runs, across all three engines and
// across worker counts, with and without counterexamples. This is the
// guard that keeps the badge a pure function of (design, bounds): wall
// time, engine identity, and worker scheduling are excluded by
// construction.
func TestReportDeterminism(t *testing.T) {
	cases := []struct {
		name    string
		v       designs.Variant
		corrupt func(map[string]*core.Result)
	}{
		{name: "clean-trap", v: designs.Trap},
		{name: "corrupt-all", v: designs.All, corrupt: StripAborts},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ref := sweepCanon(t, tc.v, tc.corrupt, "vm")
			if again := sweepCanon(t, tc.v, tc.corrupt, "vm"); !bytes.Equal(ref, again) {
				t.Errorf("vm report differs across identical runs:\n--- run1\n%s\n--- run2\n%s", ref, again)
			}
			for _, engine := range []string{"closure", "interp"} {
				if got := sweepCanon(t, tc.v, tc.corrupt, engine); !bytes.Equal(ref, got) {
					t.Errorf("report differs between vm and %s:\n--- vm\n%s\n--- %s\n%s", engine, ref, engine, got)
				}
			}
			// Subtests run serially: GOMAXPROCS is process-wide.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				if got := sweepCanon(t, tc.v, tc.corrupt, "vm"); !bytes.Equal(ref, got) {
					t.Errorf("report differs with GOMAXPROCS=%d:\n--- default\n%s\n--- %d\n%s", procs, ref, procs, got)
				}
			}
		})
	}
}
