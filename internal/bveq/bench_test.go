package bveq

import (
	"testing"

	"xpdl/internal/designs"
)

// BenchmarkBveqSweep is the K=2 sweep of all five variants, the gate
// `make bveq-smoke` runs, at the benchmark's default window: one op is
// one Verify per variant on targets whose plans and machine pools are
// already warm. It reports enumeration points per second; allocs/op
// counts every point of the sweep.
func BenchmarkBveqSweep(b *testing.B) {
	bounds := Bounds{K: 2, Width: 2, Window: 12, Budget: 384, Engine: "vm"}
	var targets []*VariantTarget
	for _, v := range designs.Variants() {
		t, err := NewVariantTarget(v, bounds.Width, nil)
		if err != nil {
			b.Fatal(err)
		}
		targets = append(targets, t)
	}
	sweep := func() int {
		points := 0
		for _, t := range targets {
			rep, err := Verify(t, bounds)
			if err != nil {
				b.Fatal(err)
			}
			if !rep.Verified {
				b.Fatalf("%s not bounded-verified", t.Name())
			}
			points += rep.Points
		}
		return points
	}
	sweep()
	b.ReportAllocs()
	b.ResetTimer()
	points := 0
	for i := 0; i < b.N; i++ {
		points += sweep()
	}
	b.ReportMetric(float64(points)/b.Elapsed().Seconds(), "points/s")
}
