// Command xpdlsim runs an RV32IM assembly program on one of the XPDL
// processor variants and (by default) cross-checks the run against the
// sequential golden model — the one-instruction-at-a-time specification.
//
// Usage:
//
//	xpdlsim [-design all] [-cycles N] [-trace] [-pipetrace] [-no-golden]
//	        [-exec engine] [-chaos] [-seed N] [-watchdog N] [-cosim]
//	        [-checkpoint f] [-checkpoint-every N] [-resume f] [-timeout d]
//	        [-cpuprofile f] [-memprofile f] prog.s
//
// -exec selects the stage executor: closure (the compile-once default),
// interp (the AST-interpreter oracle), or vm (the bytecode VM with
// quiescent-cycle fast-forward). Every mode below, -cosim included,
// runs on any of the three.
//
// -chaos enables deterministic timing-fault injection (spurious stage
// stalls, extern latency jitter, entry backpressure) seeded by -seed;
// the run must still match the golden model, demonstrating that timing
// perturbation cannot leak into architectural state.
//
// -cosim executes the design's emitted Verilog in lockstep with the
// pipeline simulator: the simulator's schedule is replayed into the
// RTL's strobe inputs and all architectural state (stage registers,
// register file, memory, CSRs, entry queue, retirement ports) is
// compared at every clock edge, then the final state is diffed against
// the golden model. Composes with -exec and -chaos.
//
// -checkpoint names a snapshot file; with -checkpoint-every N the run
// writes it (atomically, via rename) every N cycles, and a run stopped
// by -timeout or Ctrl-C writes its final state there too. -resume
// restores such a snapshot and continues the run instead of booting
// from reset; the resuming invocation must repeat the original
// -design/-chaos/-seed/-cosim flags (the snapshot refuses to load into
// a different machine). All four compose with -chaos, -cosim and
// -exec.
//
// Exit codes: 0 success, 1 generic failure (including golden-model
// mismatch), 2 usage, 3 cycle budget exhausted, 4 deadlock caught by
// the hang watchdog, 5 simulator internal error, 6 RTL cosimulation
// divergence, 7 run canceled by -timeout or Ctrl-C (a resumable
// snapshot was written when -checkpoint is set).
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"

	"xpdl/internal/asm"
	"xpdl/internal/cosim"
	"xpdl/internal/designs"
	"xpdl/internal/fault"
	"xpdl/internal/riscv"
	"xpdl/internal/sim"
)

const (
	exitGeneric    = 1
	exitUsage      = 2
	exitBudget     = 3
	exitDeadlock   = 4
	exitInternal   = 5
	exitDivergence = 6
	exitCanceled   = 7
)

func main() {
	design := flag.String("design", "all", "processor variant (base|fatal|trap|csr|all)")
	cycles := flag.Int("cycles", 1_000_000, "cycle budget")
	trace := flag.Bool("trace", false, "print the retirement trace")
	pipetrace := flag.Bool("pipetrace", false, "stream per-cycle stage occupancy (textual waveform)")
	noGolden := flag.Bool("no-golden", false, "skip the golden-model cross-check")
	execFlag := flag.String("exec", "", "stage executor: "+strings.Join(sim.Engines(), "|")+" (default closure)")
	chaos := flag.Bool("chaos", false, "inject deterministic timing faults (stalls, extern jitter, entry backpressure)")
	seed := flag.Uint64("seed", 1, "fault-injection seed for -chaos")
	watchdog := flag.Int("watchdog", 0, "hang-watchdog patience in idle cycles (0 = default 200, negative = disabled)")
	cosimFlag := flag.Bool("cosim", false, "execute the emitted Verilog in lockstep with the simulator and diff every cycle")
	checkpoint := flag.String("checkpoint", "", "snapshot `file` written every -checkpoint-every cycles and on cancellation")
	checkpointEvery := flag.Int("checkpoint-every", 0, "write -checkpoint every N cycles (0 = only on cancellation)")
	resume := flag.String("resume", "", "restore a snapshot `file` and continue instead of booting from reset")
	timeout := flag.Duration("timeout", 0, "cancel the run after this duration (exit code 7)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to `file`")
	memprofile := flag.String("memprofile", "", "write an allocation profile of the run to `file`")
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(exitUsage)
	}
	if *checkpointEvery > 0 && *checkpoint == "" {
		fmt.Fprintln(os.Stderr, "xpdlsim: -checkpoint-every requires -checkpoint")
		os.Exit(exitUsage)
	}
	engine, err := sim.ParseEngine(*execFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xpdlsim:", err)
		os.Exit(exitUsage)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var resumeData []byte
	if *resume != "" {
		var err error
		if resumeData, err = os.ReadFile(*resume); err != nil {
			fatal(err)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	prog, err := asm.Assemble(string(data))
	if err != nil {
		fatal(err)
	}

	var variant designs.Variant
	found := false
	for _, v := range designs.Variants() {
		if v.String() == *design {
			variant, found = v, true
		}
	}
	if !found {
		fatal(fmt.Errorf("unknown design %q", *design))
	}

	if *cosimFlag {
		opts := cosim.Options{
			Variant:    variant,
			Program:    prog,
			MaxCycles:  *cycles,
			Engine:     engine,
			SkipGolden: *noGolden,
			Ctx:        ctx,
			Resume:     resumeData,
		}
		if *checkpointEvery > 0 {
			opts.CheckpointEvery = *checkpointEvery
			opts.Checkpoint = func(_ int, b []byte) error { return writeSnapshot(*checkpoint, b) }
		}
		if *chaos {
			opts.ChaosSeed = *seed
			fmt.Printf("chaos: timing-fault injection enabled (seed %#x)\n", *seed)
		}
		if resumeData != nil {
			fmt.Printf("resuming cosimulation from %s\n", *resume)
		}
		res, err := cosim.Run(opts)
		if err != nil {
			var div *cosim.DivergenceError
			if errors.As(err, &div) {
				fmt.Fprintln(os.Stderr, "xpdlsim:", err)
				os.Exit(exitDivergence)
			}
			var ce *cosim.CanceledError
			if errors.As(err, &ce) {
				canceled(*checkpoint, ce.Snapshot, err)
			}
			fatal(err)
		}
		fmt.Printf("design %s: RTL cosimulation identical for %d cycles (%d instructions retired)\n",
			variant, res.Cycles, res.Retired)
		return
	}

	cfg := sim.Config{Engine: engine, WatchdogCycles: *watchdog}
	if *chaos {
		// Timing faults only: interrupt storms write mip directly, which
		// the golden model cannot mirror, so the CLI leaves them to the
		// chaos test suite.
		cfg.Faults = fault.New(fault.Default(*seed))
	}
	p, err := designs.BuildCfg(variant, cfg)
	if err != nil {
		fatal(err)
	}
	if err := p.Load(prog); err != nil {
		fatal(err)
	}
	if resumeData != nil {
		if err := p.M.Restore(bytes.NewReader(resumeData)); err != nil {
			fatal(fmt.Errorf("resume %s: %w", *resume, err))
		}
		fmt.Printf("resumed from %s at cycle %d\n", *resume, p.M.Cycle())
	} else if err := p.Boot(); err != nil {
		fatal(err)
	}
	if *pipetrace {
		p.M.PipeTrace(os.Stdout)
	}
	if *chaos {
		fmt.Printf("chaos: timing-fault injection enabled (seed %#x)\n", *seed)
	}
	n, err := runSim(ctx, p, *cycles, *checkpoint, *checkpointEvery)
	if err != nil {
		var ce *sim.CanceledError
		if errors.As(err, &ce) {
			canceled(*checkpoint, ce.Snapshot, err)
		}
		fatal(err)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}
	fmt.Printf("design %s: %d instructions in %d cycles (CPI %.3f)\n",
		variant, p.RetiredCount(), n, p.CPI())
	if *trace {
		for _, r := range p.Retired() {
			mark := " "
			if r.Exceptional {
				mark = "!"
			}
			raw := uint32(p.M.MemPeek("imem", r.Args[0].Uint()>>2).Uint())
			fmt.Printf("%s pc=%08x  %-28s cycle=%d\n", mark, uint32(r.Args[0].Uint()),
				riscv.Decode(raw), r.Cycle)
		}
	}
	fmt.Printf("dmem[0] (checksum convention) = %#x\n", p.DMemWord(0))

	if !*noGolden {
		o := designs.OIAT{Variant: variant, Text: prog.Text, Data: prog.Data}
		if mm := new(designs.Checker).Check(p.M, &o); mm != nil {
			fatal(fmt.Errorf("golden model cross-check: %w", mm))
		}
		fmt.Println("golden model cross-check: architectural state identical")
	}
}

// runSim advances the machine under ctx. With checkpointing enabled it
// runs in -checkpoint-every sized chunks, persisting a snapshot at each
// chunk boundary, so a later kill loses at most one interval of work.
func runSim(ctx context.Context, p *designs.Processor, cycles int, path string, every int) (int, error) {
	if every <= 0 {
		return p.RunCtx(ctx, cycles)
	}
	total := 0
	for {
		n, err := p.RunCtx(ctx, min(every, cycles-total))
		total += n
		var cb *sim.CycleBudgetError
		if err == nil || !errors.As(err, &cb) || total >= cycles {
			return total, err
		}
		b, err := p.M.SaveBytes()
		if err != nil {
			return total, err
		}
		if err := writeSnapshot(path, b); err != nil {
			return total, err
		}
	}
}

// writeSnapshot persists a snapshot atomically (write-then-rename), so
// a kill mid-write can never leave a torn checkpoint file behind.
func writeSnapshot(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// canceled reports a run stopped by -timeout or Ctrl-C, persists its
// final snapshot when -checkpoint names a file, and exits 7.
func canceled(path string, snapshot []byte, err error) {
	fmt.Fprintln(os.Stderr, "xpdlsim:", err)
	if path != "" && snapshot != nil {
		if werr := writeSnapshot(path, snapshot); werr != nil {
			fmt.Fprintln(os.Stderr, "xpdlsim: write checkpoint:", werr)
			os.Exit(exitGeneric)
		}
		fmt.Fprintf(os.Stderr, "xpdlsim: resumable snapshot written to %s\n", path)
	}
	os.Exit(exitCanceled)
}

// fatal reports err and exits with a code identifying the failure
// class, so scripts and CI can tell a hung design (4) from a too-small
// cycle budget (3) from a simulator bug (5).
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xpdlsim:", err)
	var (
		cb *sim.CycleBudgetError
		dl *sim.DeadlockError
		ie *sim.InternalError
	)
	switch {
	case errors.As(err, &cb):
		os.Exit(exitBudget)
	case errors.As(err, &dl):
		os.Exit(exitDeadlock)
	case errors.As(err, &ie):
		os.Exit(exitInternal)
	}
	os.Exit(exitGeneric)
}
