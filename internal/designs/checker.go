package designs

import (
	"fmt"
	"sync"

	"xpdl/internal/golden"
	"xpdl/internal/riscv"
	"xpdl/internal/sim"
)

// The OIAT checker: one comparison of a processor run against the
// one-instruction-at-a-time reading of its program (internal/golden),
// shared by every RV32 golden cross-check — bveq's variant target,
// cosim, the daemon, xpdlsim and the tests. The pipeline chooses every
// interrupt boundary; the golden model takes the same interrupt at the
// same retirement.

// Mismatch is one disagreement between a run and the golden model.
type Mismatch struct {
	// Stage classifies it: "trace" (a retirement's pc, trap or cause
	// differs), "drain" (one side finished and the other did not),
	// "state" (final architectural state differs) or "firmware" (a
	// preset names no CSR).
	Stage  string
	Detail string
	// Index and Cycle locate the first diverging cpu retirement (-1
	// when the mismatch is not positional).
	Index int
	Cycle int
}

func (mm *Mismatch) Error() string { return mm.Stage + ": " + mm.Detail }

// OIAT is the sequential side of one check: the program the machine
// was loaded with and what its devices could do to it.
type OIAT struct {
	Variant Variant
	// Text and Data are the instruction and data images.
	Text, Data []uint32
	// Firmware holds CSR values written before boot, by CSR name.
	Firmware map[string]uint32
	// Lines are the mip bits the caller's devices can raise. An
	// interrupt retirement raises its line in the golden model just
	// before the step it replaces, but only when the line is in Lines.
	Lines uint32
	// Raised are the lines the devices did raise during the run. One
	// that no interrupt retirement claimed (it arrived after the last
	// instruction passed the interrupt check, or while interrupts were
	// off) stays pending on both sides, so the golden model's mip gets
	// it too before the CSRs are compared.
	Raised uint32
}

// Checker runs OIAT checks. The zero Checker is ready and safe for
// concurrent use; it pools its golden models and, per machine plan,
// the resolved registers it compares, so a warm check allocates
// nothing.
type Checker struct {
	states sync.Pool
}

// checkState is one check's reusable state.
type checkState struct {
	g *golden.Machine
	// plan is the machine plan the indices below were resolved on.
	plan               *sim.Plan
	csrs               []csrVol
	faultcode, faultpc int
}

// csrVol pairs a CSR the design implements as a volatile register with
// its golden CSR-file index.
type csrVol struct {
	name string
	vol  int
	gidx int
}

// resolve looks up, once per plan, the CSR and fault-record volatiles
// of m's design.
func (st *checkState) resolve(m *sim.Machine) {
	if st.plan == m.Plan() {
		return
	}
	st.plan, st.csrs = m.Plan(), st.csrs[:0]
	for i, c := range riscv.CSRs {
		if vol, ok := m.VolIndex(c.Name); ok {
			st.csrs = append(st.csrs, csrVol{name: c.Name, vol: vol, gidx: i})
		}
	}
	st.faultcode, _ = m.VolIndex("faultcode")
	st.faultpc, _ = m.VolIndex("faultpc")
}

// Check compares m's run with the golden model. It walks the machine's
// cpu retirements, stepping the golden model once for each and
// comparing pc, trap and cause, then compares x1–x31, data memory and
// the variant's CSRs. A Fatal variant's fatal retirement ends the
// replay: the fault record, registers and data memory must agree. A run
// still in flight passes once its retirement prefix agrees. A trace
// capped by Config.MaxTrace is compared up to the cap; the golden model
// then runs to halt with no further interrupts before the final state
// is compared.
func (c *Checker) Check(m *sim.Machine, o *OIAT) *Mismatch {
	st, _ := c.states.Get().(*checkState)
	if st == nil {
		st = &checkState{g: golden.New(o.Text, o.Data, DMemWords)}
	} else {
		st.g.Reset(o.Text, o.Data)
	}
	defer c.states.Put(st)
	st.resolve(m)
	g := st.g
	for name, v := range o.Firmware {
		addr, ok := riscv.CSRAddr(name)
		if !ok {
			return &Mismatch{Stage: "firmware", Detail: "CSR " + name + " has no RISC-V address", Index: -1, Cycle: -1}
		}
		idx, _ := riscv.CSRIndex(addr)
		g.CSR[idx] = v
	}

	drained := m.InFlight() == 0
	rs := m.Retired()
	n := 0 // cpu retirements compared
	var claimed uint32
	for i := range rs {
		r := &rs[i]
		if r.Pipe != "cpu" {
			continue
		}
		idx := n
		n++
		pc := uint32(r.Args[0].Uint())
		kind, cause := -1, uint32(0)
		if r.Exceptional {
			kind, cause = int(r.EArgs[0].Uint()), uint32(r.EArgs[2].Uint())
		}
		if g.Halted {
			return traceMismatch(idx, r.Cycle, "retirement %d at pc=%#x after the golden model halted", idx, pc)
		}
		if kind == KInt {
			if line := uint32(1) << (cause & 31); o.Lines&line != 0 {
				g.RaiseInterrupt(line)
				claimed |= line
			}
		}
		g.Trace = g.Trace[:0]
		if err := g.Step(); err != nil {
			return traceMismatch(idx, r.Cycle, "golden model: %v", err)
		}
		gev := g.Trace[0]
		if pc != gev.PC {
			return traceMismatch(idx, r.Cycle, "retirement %d: pipeline pc %#x, golden pc %#x", idx, pc, gev.PC)
		}
		if gev.Trap != (kind == KTrap || kind == KInt || kind == KFatal) {
			return traceMismatch(idx, r.Cycle, "retirement %d (pc %#x): pipeline kind %d, golden trap=%v (cause %d)",
				idx, pc, kind, gev.Trap, gev.Cause)
		}
		if gev.Trap && cause != gev.Cause {
			return traceMismatch(idx, r.Cycle, "retirement %d: pipeline cause %#x, golden %#x", idx, cause, gev.Cause)
		}
		if o.Variant == Fatal && kind == KFatal {
			// Fatal halts the core; the golden model has trapped toward
			// mtvec. Stop the replay here: the fault record and the
			// untouched architectural state are what must agree.
			if last := idx + cpuRetirements(rs[i+1:]); idx != last {
				return traceMismatch(idx, r.Cycle, "retirement after a fatal exception (%d of %d)", idx, last)
			}
			if !drained {
				return &Mismatch{Stage: "drain", Index: idx, Cycle: r.Cycle,
					Detail: "pipeline still in flight after a fatal exception"}
			}
			if fc := uint32(m.VolPeekAt(st.faultcode).Uint()); fc != gev.Cause {
				return stateMismatch(fmt.Sprintf("faultcode = %d, golden cause %d", fc, gev.Cause))
			}
			if fp := uint32(m.VolPeekAt(st.faultpc).Uint()); fp != gev.PC {
				return stateMismatch(fmt.Sprintf("faultpc = %#x, golden %#x", fp, gev.PC))
			}
			return st.archDiff(m, 0, true)
		}
	}

	if !drained {
		// Budget elapsed with work in flight: the prefix agreed, which
		// is all a bounded run can claim. (A stuck machine is the
		// watchdog's to report, not this path's.)
		return nil
	}
	if !g.Halted && m.TraceFull() {
		// The trace stopped at its cap: run out the rest of the program,
		// bounded by the retirements the run could have made (at most
		// two a cycle, one per commit tail).
		for steps := 2 * m.Cycle(); !g.Halted && steps > 0; steps-- {
			g.Trace = g.Trace[:0]
			if err := g.Step(); err != nil {
				return &Mismatch{Stage: "drain", Index: n, Cycle: -1, Detail: "golden model: " + err.Error()}
			}
		}
	}
	if !g.Halted {
		return &Mismatch{Stage: "drain", Index: n, Cycle: -1,
			Detail: fmt.Sprintf("pipeline drained after %d retirements but the golden model has not halted (pc=%#x)", n, g.PC)}
	}
	return st.archDiff(m, o.Raised&^claimed, false)
}

// cpuRetirements counts the cpu pipeline's retirements in rs.
func cpuRetirements(rs []sim.Retirement) int {
	n := 0
	for i := range rs {
		if rs[i].Pipe == "cpu" {
			n++
		}
	}
	return n
}

func traceMismatch(index, cycle int, format string, args ...any) *Mismatch {
	return &Mismatch{Stage: "trace", Detail: fmt.Sprintf(format, args...), Index: index, Cycle: cycle}
}

func stateMismatch(detail string) *Mismatch {
	return &Mismatch{Stage: "state", Detail: detail, Index: -1, Cycle: -1}
}

// archDiff compares final architectural state, reporting the lowest
// differing register, data word or CSR: x1–x31, data memory, then the
// variant's CSRs in riscv.CSRs order. unclaimed are device-raised lines
// still pending on the pipeline, mirrored into the golden model's mip
// first. After a fatal exception the golden trap wrote CSRs the Fatal
// design does not have, so registers and data memory are the claim.
func (st *checkState) archDiff(m *sim.Machine, unclaimed uint32, fatal bool) *Mismatch {
	g := st.g
	rf, dmem := m.Mem("rf"), m.Mem("dmem")
	if i := rf.FirstDiff(1, g.Regs[1:]); i >= 0 {
		return stateMismatch(fmt.Sprintf("x%d = %#x, golden %#x", i, uint32(rf.Peek(uint64(i)).Uint()), g.Regs[i]))
	}
	if i := dmem.FirstDiff(0, g.DMem[:DMemWords]); i >= 0 {
		return stateMismatch(fmt.Sprintf("dmem[%d] = %#x, golden %#x", i, uint32(dmem.Peek(uint64(i)).Uint()), g.DMem[i]))
	}
	if fatal {
		return nil
	}
	if unclaimed != 0 {
		g.RaiseInterrupt(unclaimed)
	}
	for _, c := range st.csrs {
		if got, want := uint32(m.VolPeekAt(c.vol).Uint()), g.CSR[c.gidx]; got != want {
			return stateMismatch(fmt.Sprintf("%s = %#x, golden %#x", c.name, got, want))
		}
	}
	return nil
}
