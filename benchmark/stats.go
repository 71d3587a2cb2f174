package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile
// for it to mean anything: a p99 over 200 samples is the second-worst
// sample, not a tail estimate.
const minBeyond = 10

// percentileLadder lists the percentiles a tail is reported at, highest
// first.
var percentileLadder = []float64{99.9, 99, 98, 95, 90, 75, 50}

// rank is the nearest-rank position (1-based) of percentile p among n
// sorted samples.
func rank(p float64, n int) int {
	// The epsilon keeps float error (0.999*10000 = 9990.000000000002)
	// from pushing an exact rank up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentile returns the highest percentile of the ladder that has
// at least minBeyond samples beyond it among n samples; ok is false
// when not even the median qualifies.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range percentileLadder {
		if n-rank(p, n) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// samplesFor is the smallest sample count at which percentile p has
// minBeyond samples beyond it.
func samplesFor(p float64) int {
	n := 1
	for n-rank(p, n) < minBeyond {
		n++
	}
	return n
}

// percentile returns the nearest-rank percentile p of xs (0 for none).
// xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(p, len(xs))-1]
}

// median returns the middle of xs, averaging the two middle samples of
// an even count. xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// medianDuration is the median of ds.
func medianDuration(ds []time.Duration) time.Duration {
	return time.Duration(median(durations(ds, time.Nanosecond)))
}

// medianSum returns the sum over keys of each key's median time. When a
// key names the same piece of work in every round, the sum is the time
// one round takes with every piece at its typical pace.
func medianSum[K comparable](byKey map[K][]time.Duration) time.Duration {
	var sum time.Duration
	for _, ds := range byKey {
		sum += medianDuration(ds)
	}
	return sum
}

// durations converts durations to float64s in the given unit.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// ratio is a share reported together with its base, so a reader can
// tell 1 of 2 from 500 of 1000.
type ratio struct {
	num, base float64
}

// value is num/base, 0 when there is no base.
func (r ratio) value() float64 {
	if r.base == 0 {
		return 0
	}
	return r.num / r.base
}

func (r ratio) String() string {
	if r.base == 0 {
		return "n/a (0/0)"
	}
	return fmt.Sprintf("%.4f (%g/%g)", r.value(), r.num, r.base)
}
