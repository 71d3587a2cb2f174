// Command benchmark is the repository's end-to-end benchmark. It treats
// the XPDL toolchain as a black box and times calls into each layer's
// public functions under one of three workloads:
//
//	kernels  every variant × every workloads.All() kernel through the
//	         xpdlsim path: front end, machine build on the default
//	         engine, run to halt, golden cross-check
//	verify   bveq at K=3 over all five variants, cosim of fib and spmv
//	         on every variant, and the synth → rtl path they rest on
//	service  an in-process xpdld behind a loopback HTTP server, driven
//	         by two closed-loop tenants over all five job kinds
//
// Usage (from the repository root; run.sh builds and starts it):
//
//	benchmark --workload kernels --seed 1 --seconds 25 --trace 0
//
// Every output is checked; a check that fails counts in "failed". The
// last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end ones, measured untraced. With --trace 1 the run
// makes an untraced pass and a traced pass of half the length each,
// reports the per-layer metrics from the traced pass and the gap
// between the two as trace.overhead_pct, and writes the spans as Chrome
// trace-event JSON under .bench_build/traces. See README.md for the
// workload shapes and which layer should move which metric.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

const (
	// setupReps is how often set-up runs; setup_s is the median. A
	// set-up takes milliseconds, so the host's noise needs many.
	setupReps = 11
	// minOps is the sample floor for the p99 latency: at 1000 samples
	// ten lie beyond it.
	minOps = 1000
	// maxMeasure caps how far a pass may stretch past --seconds to reach
	// minOps, so a run always ends well inside its time limit.
	maxMeasure = 90 * time.Second
	// workDir holds everything a run writes (state dirs, traces); it is
	// the build directory run.sh uses, inside the checkout.
	workDir = ".bench_build"
)

// pass accumulates one measured pass.
type pass struct {
	attempted, failed int
	failures          []string

	ops       int             // completed operations (the workload's unit)
	opTime    time.Duration   // host time the operations took (ops_per_s base)
	latencies []time.Duration // one per operation
	cycles    int64           // simulated cycles of checked runs
	cycleTime time.Duration   // host time those cycles took

	// samples are derived per-layer timings, already in their metric's
	// unit; values are exact per-unit layer figures.
	samples map[string][]float64
	values  map[string]float64
}

func newPass() *pass {
	return &pass{samples: map[string][]float64{}, values: map[string]float64{}}
}

// check counts one checked output; a non-nil err is a failure.
func (p *pass) check(err error) {
	p.attempted++
	if err != nil {
		p.failed++
		if len(p.failures) < 10 {
			p.failures = append(p.failures, err.Error())
		}
	}
}

// add merges q's checks and operations into p.
func (p *pass) add(q *pass) {
	p.attempted += q.attempted
	p.failed += q.failed
	p.failures = append(p.failures, q.failures...)
	p.ops += q.ops
	p.latencies = append(p.latencies, q.latencies...)
	p.cycles += q.cycles
}

// bench is one workload after set-up.
type bench interface {
	// measure runs whole units of work for about the given duration, and
	// until at least floor operations completed (0: no floor).
	measure(p *pass, tr *tracer, d time.Duration, floor int)
	close()
}

type workload struct {
	name string
	// setup prepares a bench for runs of about d; tr is non-nil in
	// traced runs.
	setup func(seed uint64, d time.Duration, tr *tracer) (bench, error)
}

var benches = []workload{
	{"kernels", setupKernels},
	{"verify", setupVerify},
	{"service", setupService},
}

// loopUnits runs unit until d has elapsed, floor operations are done
// and at least minUnits units ran, and returns the wall time of each
// unit.
func loopUnits(p *pass, d time.Duration, floor, minUnits int, unit func()) []time.Duration {
	start := time.Now()
	var times []time.Duration
	for {
		t0 := time.Now()
		unit()
		times = append(times, time.Since(t0))
		el := time.Since(start)
		if (el >= d && p.ops >= floor && len(times) >= minUnits) || el >= maxMeasure {
			return times
		}
	}
}

// medianTime is n times the median of times: the time n units take at
// the typical unit's pace. The host's short slow spells, which hit a
// few units hard, then do not move a rate.
func medianTime(times []time.Duration) time.Duration {
	xs := durations(times, time.Nanosecond)
	return time.Duration(float64(len(times)) * median(xs))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: kernels|verify|service")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	var wl *workload
	for i := range benches {
		if benches[i].name == *name {
			wl = &benches[i]
		}
	}
	if wl == nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*wl, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(wl workload, seed uint64, d time.Duration, traced bool) error {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var b bench
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if b != nil {
			b.close()
		}
		t0 := time.Now()
		var err error
		if b, err = wl.setup(seed, d, tr); err != nil {
			return fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer b.close()

	out := newPass()
	ms := map[string]metric{}
	if !traced {
		p := newPass()
		b.measure(p, nil, d, minOps)
		out.add(p)
		endToEnd(ms, p, median(setups))
		printEndToEnd(wl.name, p)
	} else {
		plain, tp := newPass(), newPass()
		b.measure(plain, nil, d/2, 0)
		b.measure(tp, tr, d/2, 0)
		out.add(plain)
		out.add(tp)
		spans := tr.snapshot()
		perLayerMetrics(ms, tp, spans)
		overhead := 0.0
		if r0, r1 := opsRate(plain), opsRate(tp); r0 > 0 && r1 > 0 {
			overhead = (r0/r1 - 1) * 100
		}
		ms["trace.overhead_pct"] = metric{overhead, "%"}
		path, err := writeTrace(wl.name, seed, spans)
		if err != nil {
			return err
		}
		fmt.Printf("trace: %d spans written to %s; tracing overhead %.2f%% (untraced %.4g ops/s, traced %.4g ops/s)\n",
			len(spans), path, overhead, opsRate(plain), opsRate(tp))
	}
	for _, f := range out.failures {
		fmt.Println("FAILED:", f)
	}
	fmt.Printf("failure_ratio %s\n", ratio{float64(out.failed), float64(out.attempted)})
	for _, n := range sortedKeys(ms) {
		fmt.Printf("%-40s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: max(out.attempted, 1),
		Failed:    out.failed,
		Metrics:   ms,
	}
	if out.attempted == 0 {
		res.Failed = 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func opsRate(p *pass) float64 {
	if p.opTime <= 0 {
		return 0
	}
	return float64(p.ops) / p.opTime.Seconds()
}

// endToEnd fills the end-to-end metrics of an untraced pass.
func endToEnd(ms map[string]metric, p *pass, setup float64) {
	lat := durations(p.latencies, time.Millisecond)
	ms["setup_s"] = metric{setup, "s"}
	ms["peak_rss_mb"] = metric{peakRSSMiB(), "MiB"}
	ms["ops_per_s"] = metric{opsRate(p), "1/s"}
	ms["sim_cycles_per_s"] = metric{float64(p.cycles) / p.cycleTime.Seconds(), "cycles/s"}
	ms["op_latency_p50_ms"] = metric{median(lat), "ms"}
	ms["op_latency_p99_ms"] = metric{percentile(lat, 99), "ms"}
}

// printEndToEnd states the sample counts behind the end-to-end figures
// and the name each carries in the workload's own terms.
func printEndToEnd(name string, p *pass) {
	alias := map[string][3]string{
		"kernels": {"kernel runs", "sim_cycles_per_s", "kernel run"},
		"verify":  {"bveq_points_per_s", "cosim_cycles_per_s", "bveq point (build to verdict)"},
		"service": {"jobs_per_s", "sim cycles of simulate/chaos/cosim jobs", "job_latency (submit to report bytes)"},
	}[name]
	fmt.Printf("ops_per_s = %s: %d ops in %.3fs\n", alias[0], p.ops, p.opTime.Seconds())
	fmt.Printf("sim_cycles_per_s = %s: %d cycles in %.3fs\n", alias[1], p.cycles, p.cycleTime.Seconds())
	n := len(p.latencies)
	tp, ok := tailPercentile(n)
	fmt.Printf("op_latency = %s: n=%d; highest percentile with >=%d samples beyond: p%g (ok=%v)\n",
		alias[2], n, minBeyond, tp, ok)
	if n < samplesFor(99) {
		fmt.Printf("WARNING: op_latency_p99_ms rests on %d samples, fewer than %d beyond it\n", n, minBeyond)
	}
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func heapInuseMiB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / (1 << 20)
}

func writeTrace(name string, seed uint64, spans []span) (string, error) {
	dir := filepath.Join(workDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	if err := writeChrome(w, spans); err != nil {
		f.Close()
		return "", err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
