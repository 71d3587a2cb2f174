//go:build race

package bveq

// raceEnabled reports a race-detector build, under which the serial
// exhaustive sweeps are skipped and allocation counts go unchecked.
const raceEnabled = true
