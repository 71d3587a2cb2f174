package designgen

import (
	"errors"
	"strings"

	"xpdl"
	"xpdl/internal/cosim"
	"xpdl/internal/sim"
)

// checkCosim executes the generated design's emitted Verilog in RTL
// lockstep with the simulator (cosim recomputes every datapath value,
// staged write and volatile update under Verilog semantics and diffs
// them each clock edge). Designs outside the synthesizable subset and
// runs that exhaust the cycle budget (a storm-livelocked program —
// every cycle up to the budget was still diffed) are skips, not
// findings.
func checkCosim(d *DesignSpec, src string, prog []uint32, chaosSeed uint64, maxCycles int) *Divergence {
	des, err := xpdl.Compile(src)
	if err != nil {
		return &Divergence{Stage: "cosim", Detail: "recompile: " + err.Error()}
	}
	var schedule []int
	if d.Interrupts && chaosSeed != 0 {
		schedule = stormSchedule(chaosSeed, maxCycles)
	}
	_, err = cosim.Run(cosim.Options{
		Design:        des,
		Externs:       externs(d),
		IMem:          prog,
		ChaosSeed:     chaosSeed,
		MaxCycles:     maxCycles,
		StormSchedule: schedule,
		StormVol:      "ipend",
	})
	var cb *sim.CycleBudgetError
	if errors.As(err, &cb) {
		return nil
	}
	if err != nil {
		msg := err.Error()
		if strings.Contains(msg, "synthesizable subset") {
			return nil
		}
		return &Divergence{Stage: "cosim", Detail: msg}
	}
	return nil
}
