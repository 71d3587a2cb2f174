package designs

import (
	"testing"

	"xpdl"
	"xpdl/internal/sim"
	"xpdl/internal/val"
	"xpdl/internal/workloads"
)

// recount counts the stored retirements of each pipe by walking the
// trace.
func recount(rs []sim.Retirement) map[string]int {
	n := map[string]int{}
	for _, r := range rs {
		n[r.Pipe]++
	}
	return n
}

// checkCounts requires the machine's per-pipe stored counts to equal a
// recount of its trace, and Processor.Retired and RetiredCount to agree
// with them: the machine's own trace when only the cpu pipe retired, an
// exact-size filtered copy otherwise.
func checkCounts(t *testing.T, when string, p *Processor) {
	t.Helper()
	rs := p.M.Retired()
	want := recount(rs)
	for _, pd := range p.Design.Prog.Pipes {
		if got := p.M.RetiredCount(pd.Name); got != want[pd.Name] {
			t.Errorf("%s: RetiredCount(%s) = %d, recount %d", when, pd.Name, got, want[pd.Name])
		}
	}
	cpu := p.Retired()
	if len(cpu) != want["cpu"] || cap(cpu) != len(cpu) || p.RetiredCount() != len(cpu) {
		t.Fatalf("%s: Processor.Retired len %d cap %d, RetiredCount %d, recount %d",
			when, len(cpu), cap(cpu), p.RetiredCount(), want["cpu"])
	}
	j := 0
	for i := range rs {
		if rs[i].Pipe != "cpu" {
			continue
		}
		if cpu[j].IID != rs[i].IID {
			t.Fatalf("%s: cpu retirement %d is iid %d, trace has iid %d", when, j, cpu[j].IID, rs[i].IID)
		}
		j++
	}
	if inPlace := len(cpu) > 0 && &cpu[0] == &rs[0]; inPlace != (len(cpu) == len(rs) && len(rs) > 0) {
		t.Errorf("%s: Processor.Retired in place = %v with %d of %d retirements on cpu", when, inPlace, len(cpu), len(rs))
	}
}

// checkRunResetRestore runs p, then checks the counts after the run,
// after restoring the run's snapshot into restored (a fresh machine of
// the same design and configuration), and after resetting p.
func checkRunResetRestore(t *testing.T, p, restored *Processor, cycles int) {
	t.Helper()
	if _, err := p.Run(cycles); err != nil {
		t.Fatal(err)
	}
	checkCounts(t, "run", p)
	b, err := p.SaveBytes()
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(b); err != nil {
		t.Fatal(err)
	}
	checkCounts(t, "restore", restored)
	if len(restored.M.Retired()) != len(p.M.Retired()) {
		t.Errorf("restore: %d retirements, snapshot of %d", len(restored.M.Retired()), len(p.M.Retired()))
	}
	p.M.Reset()
	checkCounts(t, "reset", p)
	if len(p.M.Retired()) != 0 {
		t.Errorf("reset: %d retirements stored", len(p.M.Retired()))
	}
}

// The per-pipe stored counts equal a recount of the trace after Run,
// Restore and Reset, on every variant and kernel, with the trace capped
// at one entry, at the daemon's 4096 and at the default.
func TestRetiredCountsMatchTrace(t *testing.T) {
	ws := workloads.All()
	for _, v := range Variants() {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			t.Parallel()
			d, err := xpdl.Compile(Source(v))
			if err != nil {
				t.Fatal(err)
			}
			for _, limit := range []int{1, 4096, 0} {
				newProc := func() *Processor {
					m, err := d.NewMachine(sim.Config{Externs: Externs(), MaxTrace: limit})
					if err != nil {
						t.Fatal(err)
					}
					return &Processor{Variant: v, Design: d, M: m}
				}
				for _, w := range ws {
					prog, err := w.Assemble()
					if err != nil {
						t.Fatal(err)
					}
					p := newProc()
					if err := p.Load(prog); err != nil {
						t.Fatal(err)
					}
					if err := p.Boot(); err != nil {
						t.Fatal(err)
					}
					checkRunResetRestore(t, p, newProc(), 10*w.MaxSteps)
					if t.Failed() {
						t.Fatalf("%s at MaxTrace %d", w.Name, limit)
					}
				}
			}
		})
	}
}

// cpuDividerSrc is a cpu pipe calling a divider pipe: both retire, so
// Processor.Retired must filter the trace.
const cpuDividerSrc = `
memory out: uint<32>[16] with basic, comb_read;

pipe divider(n: uint<32>, d: uint<32>) -> uint<32> [] {
    q = (d == 0) ? 32'hFFFFFFFF : (n / d);
    ---
    return q;
}

pipe cpu(i: uint<32>)[divider, out] {
    if (i < 40) { call cpu(i + 1); }
    r <- call divider(i + 10, i % 3);
    ---
    a = i[3:0];
    acquire(out[a], W);
    out[a] <- r;
    release(out[a]);
}
`

func TestRetiredCountsMultiPipe(t *testing.T) {
	d, err := xpdl.Compile(cpuDividerSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{1, 30, 0} {
		newProc := func() *Processor {
			m, err := d.NewMachine(sim.Config{MaxTrace: limit})
			if err != nil {
				t.Fatal(err)
			}
			return &Processor{Design: d, M: m}
		}
		p, restored := newProc(), newProc()
		if err := p.M.Start("cpu", val.New(0, 32)); err != nil {
			t.Fatal(err)
		}
		checkRunResetRestore(t, p, restored, 2000)
		cpu, div := restored.RetiredCount(), restored.M.RetiredCount("divider")
		if want := min(limit, 82); limit > 0 && cpu+div != want || limit == 0 && (cpu != 41 || div != 41) {
			t.Errorf("MaxTrace %d: cpu stored %d, divider %d", limit, cpu, div)
		}
	}
}

// Reading the trace and its count allocates nothing on a variant.
func TestRetiredAllocs(t *testing.T) {
	p, err := Build(Base)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloads.ByName("crc")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := w.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	runOn(t, p, prog, 10*w.MaxSteps, nil)
	var n int
	if a := testing.AllocsPerRun(100, func() { n += len(p.Retired()) }); a != 0 {
		t.Errorf("Processor.Retired: %v allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { n += p.RetiredCount() }); a != 0 {
		t.Errorf("Processor.RetiredCount: %v allocs/op, want 0", a)
	}
	if n == 0 {
		t.Error("crc retired nothing")
	}
}
