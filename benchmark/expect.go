package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc64"

	"xpdl"
	"xpdl/internal/asm"
	"xpdl/internal/bveq"
	"xpdl/internal/check"
	"xpdl/internal/core"
	"xpdl/internal/cosim"
	"xpdl/internal/designs"
	"xpdl/internal/fault"
	"xpdl/internal/golden"
	"xpdl/internal/pdl/parser"
	"xpdl/internal/sim"
	"xpdl/internal/workloads"
	"xpdl/internal/xpdld"
)

// The daemon's spec defaults, which the expected reports must mirror.
const (
	jobMaxCycles  = 1_000_000
	jobMaxTrace   = 4096
	jobBveqWidth  = 2
	jobBveqWindow = 4
)

// expected is a job's spec-pure result: the canonical report bytes the
// daemon must return, and the simulated cycles they record.
type expected struct {
	report []byte
	cycles int
}

// oracle computes expected reports by calling the library directly —
// front end, machine, golden model, cosim, bveq — never through the
// daemon. Results are memoized per spec for the whole process, so of
// the run's set-ups only the first computes them: they check the
// daemon's output and are no part of setting it up.
type oracle struct {
	tr   *tracer
	memo map[string]*expected
}

var expectMemo = map[string]*expected{}

func newOracle(tr *tracer) *oracle { return &oracle{tr: tr, memo: expectMemo} }

func variantSource(name string) string {
	v, _ := xpdld.VariantByName(name)
	return designs.Source(v)
}

func (o *oracle) expect(sp xpdld.Spec) (*expected, error) {
	key, err := json.Marshal(sp)
	if err != nil {
		return nil, err
	}
	if e, ok := o.memo[string(key)]; ok {
		return e, nil
	}
	e, err := o.compute(sp)
	if err != nil {
		return nil, err
	}
	o.memo[string(key)] = e
	return e, nil
}

func (o *oracle) compute(sp xpdld.Spec) (*expected, error) {
	src := sp.Source
	if src == "" {
		src = variantSource(sp.Design)
	}
	rep := &xpdld.Report{Kind: sp.Kind, Design: sp.Design, DesignHash: xpdld.DesignHash(src)}
	switch sp.Kind {
	case xpdld.KindCompile:
		d, err := o.compile(src)
		if err != nil {
			return nil, err
		}
		rep.Pipes = len(d.Translations)
	case xpdld.KindSimulate, xpdld.KindChaos:
		if err := o.simulate(sp, src, rep); err != nil {
			return nil, err
		}
	case xpdld.KindCosim:
		v, _ := xpdld.VariantByName(sp.Design)
		prog, err := kernelProgram(sp.Workload)
		if err != nil {
			return nil, err
		}
		res, err := cosim.Run(cosim.Options{Variant: v, Program: prog, MaxCycles: jobMaxCycles, ChaosSeed: sp.Seed})
		if err != nil {
			return nil, err
		}
		rep.Workload, rep.ProgHash, rep.Engine, rep.Seed = sp.Workload, progHash(prog), "closure", sp.Seed
		rep.Cycles, rep.Retired, rep.GoldenOK = res.Cycles, res.Retired, true
	case xpdld.KindBveq:
		v, _ := xpdld.VariantByName(sp.Design)
		t, err := bveq.NewVariantTarget(v, jobBveqWidth, nil)
		if err != nil {
			return nil, err
		}
		r, err := bveq.Verify(t, bveq.Bounds{K: sp.BveqLen, Width: jobBveqWidth, Window: jobBveqWindow})
		if err != nil {
			return nil, err
		}
		if !r.Verified {
			return nil, fmt.Errorf("bveq %s len %d does not verify", sp.Design, sp.BveqLen)
		}
		if rep.Bveq, err = r.Canon(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown kind %q", sp.Kind)
	}
	b, err := rep.Canon()
	if err != nil {
		return nil, err
	}
	return &expected{report: b, cycles: rep.Cycles}, nil
}

// compile runs the front end phase by phase, so a traced set-up times
// the generated designs the daemon will compile on a cache miss.
func (o *oracle) compile(src string) (*xpdl.Design, error) {
	h := o.tr.begin("parser.Parse", 0, -1)
	prog, err := parser.Parse(src)
	o.tr.end(h)
	if err != nil {
		return nil, err
	}
	h = o.tr.begin("check.Check", 0, -1)
	info, err := check.Check(prog)
	o.tr.end(h)
	if err != nil {
		return nil, err
	}
	h = o.tr.begin("core.TranslateProgram", 0, -1)
	trs := core.TranslateProgram(info)
	o.tr.end(h)
	return &xpdl.Design{Source: src, Prog: prog, Info: info, Translations: trs}, nil
}

// simulate runs a simulate or chaos job's program straight through and
// fills the run fields of its report.
func (o *oracle) simulate(sp xpdld.Spec, src string, rep *xpdld.Report) error {
	v, _ := xpdld.VariantByName(sp.Design)
	d, err := xpdl.Compile(src)
	if err != nil {
		return err
	}
	prog, err := kernelProgram(sp.Workload)
	if err != nil {
		return err
	}
	cfg := sim.Config{Externs: designs.Externs(), MaxTrace: jobMaxTrace}
	if sp.Kind == xpdld.KindChaos {
		cfg.Faults = fault.New(fault.Default(sp.Seed))
	}
	m, err := d.NewMachine(cfg)
	if err != nil {
		return err
	}
	p := &designs.Processor{Variant: v, Design: d, M: m}
	if err := p.Load(prog); err != nil {
		return err
	}
	if err := p.Boot(); err != nil {
		return err
	}
	if _, err := p.Run(jobMaxCycles); err != nil {
		return err
	}
	g := golden.New(prog.Text, prog.Data, designs.DMemWords)
	if err := g.Run(jobMaxCycles); err != nil {
		return err
	}
	for i := uint32(1); i < 32; i++ {
		if p.Reg(i) != g.Regs[i] {
			return fmt.Errorf("%s %s: x%d differs from the golden model", sp.Design, sp.Workload, i)
		}
	}
	rep.Workload, rep.ProgHash, rep.Engine, rep.Seed = sp.Workload, progHash(prog), "closure", sp.Seed
	rep.Cycles, rep.Retired = m.Cycle(), len(p.Retired())
	rep.Checksum = fmt.Sprintf("%#x", p.DMemWord(0))
	rep.StateCRC = stateCRC(p)
	rep.GoldenOK = true
	return nil
}

func kernelProgram(name string) (*asm.Program, error) {
	w, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	return w.Assemble()
}

var crcTable = crc64.MakeTable(crc64.ECMA)

// progHash is the report's content address of a program image: CRC-64
// of the little-endian text words, a 0xff separator, then the data.
func progHash(p *asm.Program) string {
	h := crc64.New(crcTable)
	for _, w := range p.Text {
		h.Write(binary.LittleEndian.AppendUint32(nil, w))
	}
	h.Write([]byte{0xff})
	for _, w := range p.Data {
		h.Write(binary.LittleEndian.AppendUint32(nil, w))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// stateCRC is the report's digest of architectural state: CRC-64 of the
// 32 registers then every data-memory word, little-endian.
func stateCRC(p *designs.Processor) string {
	h := crc64.New(crcTable)
	for i := uint32(0); i < 32; i++ {
		h.Write(binary.LittleEndian.AppendUint32(nil, p.Reg(i)))
	}
	for i := uint32(0); i < designs.DMemWords; i++ {
		h.Write(binary.LittleEndian.AppendUint32(nil, p.DMemWord(i)))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
