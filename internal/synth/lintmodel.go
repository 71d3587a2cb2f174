package synth

import (
	"maps"

	"xpdl/internal/check"
)

// LintCostModel derives the checker's stage-cost lint model from this
// package's technology constants, so xpdlvet and the synthesis report
// agree on what an operation costs. (check cannot import synth — the
// dependency runs synth -> ir -> check — hence the copy here.)
func LintCostModel(t Tech) *check.CostModel {
	m := &check.CostModel{
		ClockOverheadNS: t.ClockOverhead,
		OpNS:            maps.Clone(t.DelayPerClass),
		ExternNS:        make(map[string]float64, len(t.ExternDelay)),
	}
	var maxExtern float64
	for name, d := range t.ExternDelay {
		m.ExternNS[name] = d
		if d > maxExtern {
			maxExtern = d
		}
	}
	// An extern the tables do not know is assumed as slow as the slowest
	// known one; underestimating would silence the lint exactly where the
	// designer has the least visibility.
	m.DefaultExternNS = maxExtern
	return m
}
