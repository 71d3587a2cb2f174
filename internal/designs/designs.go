package designs

import (
	"bytes"
	"context"
	"fmt"

	"xpdl"
	"xpdl/internal/asm"
	"xpdl/internal/sim"
	"xpdl/internal/val"
)

// Processor is a compiled, simulatable processor variant.
type Processor struct {
	Variant Variant
	Design  *xpdl.Design
	M       *sim.Machine
}

// Build compiles a variant and constructs its simulator with the
// default configuration (compiled stage executor, fresh externs).
func Build(v Variant) (*Processor, error) {
	return BuildCfg(v, sim.Config{})
}

// BuildCfg compiles a variant and constructs its simulator with an
// explicit configuration (e.g. Engine "interp" for the AST-interpreter
// oracle). cfg.Externs defaults to Externs() when unset.
func BuildCfg(v Variant, cfg sim.Config) (*Processor, error) {
	d, err := xpdl.Compile(Source(v))
	if err != nil {
		return nil, fmt.Errorf("designs: compile %s: %w", v, err)
	}
	if cfg.Externs == nil {
		cfg.Externs = Externs()
	}
	m, err := d.NewMachine(cfg)
	if err != nil {
		return nil, fmt.Errorf("designs: machine %s: %w", v, err)
	}
	return &Processor{Variant: v, Design: d, M: m}, nil
}

// Load installs an assembled program: text into imem, data into dmem.
func (p *Processor) Load(prog *asm.Program) error {
	if len(prog.Text) > IMemWords {
		return fmt.Errorf("designs: text of %d words exceeds imem", len(prog.Text))
	}
	if len(prog.Data) > DMemWords {
		return fmt.Errorf("designs: data of %d words exceeds dmem", len(prog.Data))
	}
	for i, w := range prog.Text {
		p.M.MemPoke("imem", uint64(i), val.New(uint64(w), 32))
	}
	for i, w := range prog.Data {
		p.M.MemPoke("dmem", uint64(i), val.New(uint64(w), 32))
	}
	return nil
}

// Boot injects the initial instruction at pc 0.
func (p *Processor) Boot() error { return p.M.Start("cpu", val.New(0, 32)) }

// Run advances up to maxCycles; it stops when the pipeline drains (the
// workload executed ebreak and the last instruction retired).
func (p *Processor) Run(maxCycles int) (int, error) { return p.M.Run(maxCycles) }

// RunCtx is Run with cancellation at cycle granularity; see
// sim.Machine.RunCtx.
func (p *Processor) RunCtx(ctx context.Context, maxCycles int) (int, error) {
	return p.M.RunCtx(ctx, maxCycles)
}

// Cycle reports the machine's cycle, counted from reset.
func (p *Processor) Cycle() int { return p.M.Cycle() }

// SaveBytes snapshots the machine; see sim.Machine.SaveBytes.
func (p *Processor) SaveBytes() ([]byte, error) { return p.M.SaveBytes() }

// Restore loads a SaveBytes snapshot in place of Boot.
func (p *Processor) Restore(b []byte) error { return p.M.Restore(bytes.NewReader(b)) }

// Reg reads architectural register x[i].
func (p *Processor) Reg(i uint32) uint32 {
	return uint32(p.M.MemPeek("rf", uint64(i)).Uint())
}

// DMemWord reads data-memory word i.
func (p *Processor) DMemWord(i uint32) uint32 {
	return uint32(p.M.MemPeek("dmem", uint64(i)).Uint())
}

// HasCSR reports whether the variant implements a named CSR register.
func (p *Processor) HasCSR(name string) bool {
	return p.Design.Prog.Vol(name) != nil
}

// CSR reads a named CSR volatile (mstatus, mie, mtvec, ...).
func (p *Processor) CSR(name string) uint32 {
	return uint32(p.M.VolPeek(name).Uint())
}

// SetCSR writes a named CSR volatile, as firmware initialization would.
func (p *Processor) SetCSR(name string, v uint32) {
	p.M.VolPoke(name, val.New(uint64(v), 32))
}

// RaiseInterrupt sets pending bits in mip, as an external device would.
func (p *Processor) RaiseInterrupt(bits uint32) {
	p.SetCSR("mip", p.CSR("mip")|bits)
}

// Retired returns the cpu pipeline's stored retirement trace. When
// every stored retirement is the cpu pipeline's, as on every variant,
// it is the machine's own trace, capped so an append copies it: it is
// read-only, and valid until the next Reset or Restore. Otherwise it is
// one filtered copy. Like sim.Machine.Retired, it stops at
// Config.MaxTrace.
func (p *Processor) Retired() []sim.Retirement {
	rs, n := p.M.Retired(), p.RetiredCount()
	switch {
	case n == 0:
		return nil
	case n == len(rs):
		return rs[:n:n]
	}
	out := make([]sim.Retirement, 0, n)
	for _, r := range rs {
		if r.Pipe == "cpu" {
			out = append(out, r)
		}
	}
	return out
}

// RetiredCount reports the cpu pipeline's stored retirements,
// len(Retired()), from the machine's per-pipe count.
func (p *Processor) RetiredCount() int { return p.M.RetiredCount("cpu") }

// CPI reports cycles per retired instruction for the run so far.
func (p *Processor) CPI() float64 {
	n := p.RetiredCount()
	if n == 0 {
		return 0
	}
	return float64(p.M.Cycle()) / float64(n)
}
