package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false},
		{20, 50, true},   // rank 10, ten beyond
		{40, 75, true},   // rank 30, ten beyond
		{100, 90, true},  // rank 90, ten beyond
		{199, 90, true},  // p95 is rank 190, nine beyond
		{200, 95, true},  // rank 190, ten beyond
		{999, 98, true},  // p99 is rank 990, nine beyond
		{1000, 99, true}, // rank 990, ten beyond
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = p%g, %v; want p%g, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	if n := samplesFor(99); n != 1000 {
		t.Errorf("samplesFor(99) = %d, want 1000", n)
	}
	if n := samplesFor(50); n != 20 {
		t.Errorf("samplesFor(50) = %d, want 20", n)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, reversed
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990", got)
	}
	beyond := 0
	for _, x := range xs {
		if x > 990 {
			beyond++
		}
	}
	if beyond != minBeyond {
		t.Errorf("%d samples beyond p99, want %d", beyond, minBeyond)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %g, want 2.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 1..3 = %g, want 2", got)
	}
}

// TestMedianSum checks the piecewise rate base: each piece counts at
// the median of its rounds, so one slow round of a piece does not move
// the sum.
func TestMedianSum(t *testing.T) {
	ms := time.Millisecond
	byKey := map[int][]time.Duration{
		0: {10 * ms, 11 * ms, 90 * ms}, // one slow round
		1: {5 * ms, 5 * ms, 6 * ms},
		2: {2 * ms, 4 * ms}, // two rounds: their mean
	}
	if got, want := medianSum(byKey), 11*ms+5*ms+3*ms; got != want {
		t.Errorf("medianSum = %v, want %v", got, want)
	}
	if got := medianSum(map[int][]time.Duration{}); got != 0 {
		t.Errorf("medianSum of nothing = %v, want 0", got)
	}
}

func TestRatioWithBase(t *testing.T) {
	for _, c := range []struct {
		r    ratio
		val  float64
		text string
	}{
		{ratio{577, 727}, 577.0 / 727, "0.7937 (577/727)"},
		{ratio{0, 1035}, 0, "0.0000 (0/1035)"},
		{ratio{1, 2}, 0.5, "0.5000 (1/2)"},
		{ratio{0, 0}, 0, "n/a (0/0)"},
	} {
		if got := c.r.value(); got != c.val {
			t.Errorf("%v.value() = %g, want %g", c.r, got, c.val)
		}
		if got := c.r.String(); got != c.text {
			t.Errorf("%v.String() = %q, want %q", c.r, got, c.text)
		}
	}
}

// TestBenchmarkJSON keeps the metric lists in BENCHMARK.json in step
// with what the program prints.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []metricDef                   `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range benches {
		have = append(have, w.name)
	}
	if !equalJSON(names, have) {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", names, have)
	}
	ms := map[string]metric{}
	endToEnd(ms, &pass{ops: 1, opTime: time.Second, cycleTime: time.Second}, 1)
	if len(ms) != len(spec.EndToEnd) {
		t.Errorf("program prints %d end-to-end metrics, BENCHMARK.json lists %d", len(ms), len(spec.EndToEnd))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := ms[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s [%s]: program prints %+v", m.Name, m.Unit, got)
		}
	}
	if defs := perLayerDefs(); !equalJSON(defs, spec.PerLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from perLayerDefs()")
	}
	pl := map[string]metric{}
	perLayerMetrics(pl, newPass(), nil)
	pl["trace.overhead_pct"] = metric{}
	if len(pl) != len(spec.PerLayer) {
		t.Errorf("traced run prints %d per-layer metrics, BENCHMARK.json lists %d", len(pl), len(spec.PerLayer))
	}
}

func equalJSON(a, b any) bool {
	x, _ := json.Marshal(a)
	y, _ := json.Marshal(b)
	return bytes.Equal(x, y)
}
