// Package xpdl is a Go implementation of XPDL — the hardware description
// language of "Sequential Specifications for Precise Hardware Exceptions"
// (ASPLOS 2026) — together with the compiler, static checker, exception
// translation, cycle-accurate simulator and synthesis cost model used to
// reproduce the paper's evaluation.
//
// The typical flow is:
//
//	design, err := xpdl.Compile(src)            // parse + check + translate
//	m, err := design.NewMachine(sim.Config{...}) // bind externs, build simulator
//	m.Start("cpu", val.New(0, 32))
//	m.Run(100000)
//
// See the examples directory for complete programs.
package xpdl

import (
	"sync"

	"xpdl/internal/check"
	"xpdl/internal/core"
	"xpdl/internal/pdl/ast"
	"xpdl/internal/pdl/parser"
	"xpdl/internal/sim"
)

// Design is a compiled XPDL program: parsed, statically checked, and with
// every pipeline's exception logic translated into base-PDL form. A
// Design owns its machine plan (see Plan), so it must not be copied, and
// its Translations must not change once a machine has been built.
type Design struct {
	// Source is the original program text.
	Source string
	// Prog is the parsed syntax tree.
	Prog *ast.Program
	// Info carries the checker's analysis results.
	Info *check.Info
	// Translations maps each pipeline to its exception translation.
	Translations map[string]*core.Result

	planOnce sync.Once
	plan     *sim.Plan
	planErr  error
}

// Compile parses, checks and translates an XPDL program.
func Compile(src string) (*Design, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	info, err := check.Check(prog)
	if err != nil {
		return nil, err
	}
	return &Design{
		Source:       src,
		Prog:         prog,
		Info:         info,
		Translations: core.TranslateProgram(info),
	}, nil
}

// Plan returns the design's machine plan — the per-design half of every
// machine, resolved once — building it on first use. It is safe for
// concurrent use, and the plan lives exactly as long as the design.
func (d *Design) Plan() (*sim.Plan, error) {
	d.planOnce.Do(func() { d.plan, d.planErr = sim.NewPlan(d.Info, d.Translations) })
	return d.plan, d.planErr
}

// NewMachine builds a cycle-accurate simulator for the design from its
// plan.
func (d *Design) NewMachine(cfg sim.Config) (*sim.Machine, error) {
	p, err := d.Plan()
	if err != nil {
		return nil, err
	}
	return p.New(cfg)
}
