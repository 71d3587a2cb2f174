package fault

import "math"

// Schedule is a deterministic pulse schedule: the ascending cycles at
// which an external line fires. It is device timing as pure data — the
// generalization of PR 7's interrupt-storm pacing — so every engine
// and a restored machine see identical pulses, and a bounded sweep can
// enumerate arrival cycles as plain integers.
type Schedule []int

// Pulses derives a storm schedule from the injector's storm stream:
// cycles the stream picks within maxCycles, at most budget of them, at
// least spacing cycles apart. Pure in the injector's seed.
func (j *Injector) Pulses(maxCycles, budget, spacing int) Schedule {
	var out Schedule
	last := -spacing
	for c := 0; c < maxCycles && len(out) < budget; c++ {
		if c-last < spacing {
			continue
		}
		if _, ok := j.Storm(c, 1); ok {
			out = append(out, c)
			last = c
		}
	}
	return out
}

// Cursor walks a schedule under a monotonically non-decreasing cycle
// counter — the state a per-cycle device hook keeps. Fire consumes
// pulses; Next is the wake predictor quiescent fast-forward needs
// (sim.Machine.OnCycleWake).
type Cursor struct {
	s Schedule
	i int
}

// Cursor returns a fresh cursor over the schedule.
func (s Schedule) Cursor() *Cursor { return &Cursor{s: s} }

// Fire reports whether a pulse is scheduled exactly at cycle, consuming
// it (and silently skipping any pulses the caller jumped over).
func (c *Cursor) Fire(cycle int) bool {
	for c.i < len(c.s) && c.s[c.i] < cycle {
		c.i++
	}
	if c.i < len(c.s) && c.s[c.i] == cycle {
		c.i++
		return true
	}
	return false
}

// Next returns the earliest scheduled cycle >= cycle that has not fired
// yet, or math.MaxInt when the schedule is exhausted — exactly the
// contract of an OnCycleWake predictor.
func (c *Cursor) Next(cycle int) int {
	i := c.i
	for i < len(c.s) && c.s[i] < cycle {
		i++
	}
	if i < len(c.s) {
		return c.s[i]
	}
	return math.MaxInt
}
