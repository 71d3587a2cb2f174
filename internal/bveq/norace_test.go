//go:build !race

package bveq

const raceEnabled = false
