package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xpdl/internal/designgen"
	"xpdl/internal/faultfs"
	"xpdl/internal/workloads"
	"xpdl/internal/xpdld"
)

// No traffic has been measured on the daemon, so the job mix is
// uniform: every block holds kindJobs jobs of each of the five kinds,
// and within a kind every choice the spec offers is spread evenly —
// each simulate and chaos block runs every workloads.All() kernel on
// every variant once, compiles alternate between variant hits and
// generated misses, bveq jobs between length 1 and 2. Every block is
// then the same work, and the seed picks only the order, the chaos
// seeds and the generated sources.
const (
	// kindJobs is one job per (kernel, variant) pair.
	kindJobs  = 45
	blockJobs = kindJobs * 5 // kinds
	// A run's plan is one block per secondsPerBlock of the run and at
	// least minBlocks: enough for ten jobs to lie beyond the p99 of the
	// whole plan, in blocks whose median pace is the run's jobs/s.
	minBlocks       = (minOps + blockJobs - 1) / blockJobs
	secondsPerBlock = 5
	// tenants shape the closed loop: each tenant keeps as many jobs
	// outstanding as the daemon has workers, and waits for them in
	// submission order over one connection.
	tenants = 2
	// snapshotsPerRun is how many checkpoints a simulate or chaos job
	// writes: its checkpoint_every is the kernel's recorded cycle count
	// over this.
	snapshotsPerRun = 4
)

// cosimEvery is the cosim jobs' checkpoint interval (fib runs 800-1150
// cycles under cosim, so about four snapshots).
const cosimEvery = 256

type plannedJob struct {
	spec xpdld.Spec
	want *expected
}

type serviceBench struct {
	dir     string
	fs      *timedFS
	srv     *xpdld.Server
	hs      *http.Server
	served  chan error
	window  int // jobs each tenant keeps outstanding: the daemon's workers
	clients []*xpdld.Client
	// observer watches each job's own event stream in traced passes, so
	// a job's turnaround ends when the job does, not when its tenant
	// gets to it. It has connections of its own.
	observer *xpdld.Client
	watchers sync.WaitGroup
	plan     [][][]plannedJob // per block, per tenant
	cursor   int              // next block
	next     atomic.Int64     // operation id; tenants draw concurrently
}

// setupService boots the daemon on a fresh state directory behind a
// loopback listener, warms the five variant designs with compile jobs,
// draws the seeded job plan and computes every planned job's expected
// report bytes through the library directly.
func setupService(seed uint64, d time.Duration, tr *tracer) (bench, error) {
	dir, err := os.MkdirTemp(workDir, "state-")
	if err != nil {
		return nil, err
	}
	b := &serviceBench{dir: dir, fs: newTimedFS(faultfs.OS()), served: make(chan error, 1), window: runtime.NumCPU()}
	b.srv, err = xpdld.New(xpdld.Config{
		StateDir: filepath.Join(dir, "state"),
		Workers:  b.window,
		FS:       b.fs,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	b.hs = &http.Server{Handler: b.srv}
	go func() { b.served <- b.hs.Serve(ln) }()
	for t := 0; t < tenants; t++ {
		c := xpdld.NewClient("http://" + ln.Addr().String())
		c.HTTP = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
		b.clients = append(b.clients, c)
	}
	b.observer = xpdld.NewClient("http://" + ln.Addr().String())
	b.observer.HTTP = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * tenants * b.window}}

	oracle := newOracle(tr)
	for _, v := range variantNames {
		sp := xpdld.Spec{Kind: xpdld.KindCompile, Tenant: "warm", Design: v}
		want, err := oracle.expect(sp)
		if err == nil {
			err = b.runJob(b.clients[0], sp, want)
		}
		if err != nil {
			b.close()
			return nil, fmt.Errorf("warm %s: %w", v, err)
		}
	}
	blocks := max(minBlocks, int(d/(secondsPerBlock*time.Second)))
	if err := b.draw(seed, blocks, oracle); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// draw generates the job plan from the seed, block by block, dealing
// each block's jobs to the tenants in turn.
func (b *serviceBench) draw(seed uint64, blocks int, o *oracle) error {
	rng := rand.New(rand.NewPCG(seed, 0x73657276696365))
	seen := map[string]bool{}
	for _, v := range variantNames {
		seen[xpdld.DesignHash(variantSource(v))] = true
	}
	kernels := workloads.All()
	if len(kernels)*len(variantNames) != kindJobs {
		return fmt.Errorf("%d kernels × %d variants: kindJobs must be their product", len(kernels), len(variantNames))
	}
	for blk := 0; blk < blocks; blk++ {
		var specs []xpdld.Spec
		for _, kind := range jobKinds {
			for i := 0; i < kindJobs; i++ {
				sp := xpdld.Spec{Kind: kind, Design: variantNames[i%len(variantNames)]}
				switch kind {
				case xpdld.KindCompile:
					if i%2 == 0 {
						break
					}
					// A generated design the cache has not seen: a compile miss.
					for {
						src := designgen.Generate(rng.Uint64()).Source()
						if h := xpdld.DesignHash(src); !seen[h] {
							seen[h] = true
							sp.Design, sp.Source = "", src
							break
						}
					}
				case xpdld.KindSimulate, xpdld.KindChaos:
					k := kernels[i/len(variantNames)%len(kernels)].Name
					sp.Workload, sp.CheckpointEvery = k, max(1, kernelCycles[k].cycles/snapshotsPerRun)
					if kind == xpdld.KindChaos {
						sp.Seed = rng.Uint64()
					}
				case xpdld.KindCosim:
					sp.Workload, sp.CheckpointEvery = "fib", cosimEvery
				case xpdld.KindBveq:
					sp.BveqLen = 1 + i%2
				}
				specs = append(specs, sp)
			}
		}
		rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
		plan := make([][]plannedJob, tenants)
		for i, sp := range specs {
			want, err := o.expect(sp)
			if err != nil {
				return fmt.Errorf("expected report for %s job: %w", sp.Kind, err)
			}
			t := i % tenants
			sp.Tenant = fmt.Sprintf("tenant%d", t)
			plan[t] = append(plan[t], plannedJob{sp, want})
		}
		b.plan = append(b.plan, plan)
	}
	return nil
}

func (b *serviceBench) close() {
	if b.hs != nil {
		b.hs.Close()
		<-b.served
	}
	for _, c := range b.clients {
		c.HTTP.CloseIdleConnections()
	}
	if b.observer != nil {
		b.observer.HTTP.CloseIdleConnections()
	}
	if b.srv != nil {
		b.srv.Close()
	}
	os.RemoveAll(b.dir)
}

// metrics scrapes /metrics into series → value.
func (b *serviceBench) metrics() (map[string]float64, error) {
	text, err := b.clients[0].Metrics()
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// measure runs the next blocks of the plan: all of them in an
// untraced run, about half per pass in a traced one. The plan has a
// fixed length, so the daemon's counters repeat exactly for a seed.
func (b *serviceBench) measure(p *pass, tr *tracer, d time.Duration, floor int) {
	n := len(b.plan)
	if floor == 0 && b.cursor == 0 {
		n /= 2
	}
	todo := b.plan[b.cursor:min(b.cursor+n, len(b.plan))]
	b.cursor += len(todo)

	before, err := b.metrics()
	if err != nil {
		p.check(err)
		return
	}
	ops0, bytes0 := b.fs.ops.Load(), b.fs.bytes.Load()
	b.fs.trace(tr)
	defer b.fs.trace(nil)

	var times []time.Duration
	for _, blk := range todo {
		var mu sync.Mutex
		var wg sync.WaitGroup
		start := time.Now()
		for t := range blk {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				q := newPass()
				b.tenant(q, tr, b.clients[t], blk[t])
				mu.Lock()
				p.add(q)
				mu.Unlock()
			}(t)
		}
		wg.Wait()
		times = append(times, time.Since(start))
	}
	b.watchers.Wait()
	p.opTime = medianTime(times)
	// Only the daemon's workers see a job's run time, so the cycle rate
	// shares the jobs' base: every block carries nearly the same cycles,
	// which makes it a scaled copy of jobs/s here.
	p.cycleTime = p.opTime

	after, err := b.metrics()
	if err != nil {
		p.check(err)
		return
	}
	delta := func(s string) float64 { return after[s] - before[s] }
	hits, misses := delta("xpdld_compile_cache_hits_total"), delta("xpdld_compile_cache_misses_total")
	p.values["xpdld.cache_hit_ratio"] = ratio{hits, hits + misses}.value()
	p.values["xpdld.cache_lookups"] = hits + misses
	p.values["xpdld.compiles_total"] = delta("xpdld_compiles_total")
	p.values["xpdld.checkpoints_written_total"] = delta("xpdld_checkpoints_written_total")
	p.values["xpdld.designs_cached"] = after["xpdld_designs_cached"]
	p.values["xpdld.quota_denied"] = delta("xpdld_quota_denied_total")
	p.values["xpdld.overload_denied"] = delta("xpdld_overload_denied_total")
	p.values["faultfs.ops"] = float64(b.fs.ops.Load() - ops0)
	p.values["faultfs.bytes_written"] = float64(b.fs.bytes.Load() - bytes0)
	fmt.Printf("xpdld.cache_hit_ratio %s\n", ratio{hits, hits + misses})
}

// tenant is one closed-loop client: it keeps b.window jobs
// outstanding, waits for the oldest, fetches and checks its report, and
// submits the next.
func (b *serviceBench) tenant(p *pass, tr *tracer, c *xpdld.Client, jobs []plannedJob) {
	type inflight struct {
		job  plannedJob
		id   string
		t0   time.Time
		opID int64
		root int
		wait int
	}
	var out []inflight
	next := 0
	for next < len(jobs) || len(out) > 0 {
		for len(out) < b.window && next < len(jobs) {
			j := jobs[next]
			next++
			f := inflight{job: j, t0: time.Now(), opID: b.next.Add(1)}
			f.root = tr.begin("op.job."+j.spec.Kind, f.opID, -1)
			h := tr.begin("Client.Submit", f.opID, f.root)
			st, err := c.Submit(j.spec)
			tr.end(h)
			if err != nil {
				tr.end(f.root)
				p.check(fmt.Errorf("submit %s: %w", j.spec.Kind, err))
				continue
			}
			f.id = st.ID
			// Store I/O the daemon does for the job nests in its
			// turnaround, so the turnaround's self time is queueing and
			// compute.
			f.wait = tr.begin("xpdld.turnaround."+j.spec.Kind, f.opID, f.root)
			b.fs.adopt(st.ID, jobSpan{f.opID, f.wait})
			b.watch(tr, st.ID, f.wait)
			out = append(out, f)
		}
		if len(out) == 0 {
			continue
		}
		f := out[0]
		out = out[1:]
		err := b.finish(c, tr, f.job, f.id, f.opID, f.root)
		tr.end(f.root)
		p.check(err)
		if err == nil {
			p.ops++
			p.cycles += int64(f.job.want.cycles)
			p.latencies = append(p.latencies, time.Since(f.t0))
		}
	}
}

// watch ends the turnaround span h when the observer sees job id
// terminal on the job's own event stream. It does nothing untraced.
func (b *serviceBench) watch(tr *tracer, id string, h int) {
	if tr == nil {
		return
	}
	b.watchers.Add(1)
	go func() {
		defer b.watchers.Done()
		b.observer.Wait(context.Background(), id)
		tr.end(h)
	}()
}

// finish waits for a submitted job, then fetches its report and checks
// it byte for byte.
func (b *serviceBench) finish(c *xpdld.Client, tr *tracer, j plannedJob, id string, opID int64, root int) error {
	st, err := c.Wait(context.Background(), id)
	if err != nil {
		return fmt.Errorf("wait %s %s: %w", j.spec.Kind, id, err)
	}
	if st.State != xpdld.StateDone {
		return fmt.Errorf("%s job %s ended %s: %v", j.spec.Kind, id, st.State, st.Error)
	}
	h := tr.begin("Client.Report", opID, root)
	got, err := c.Report(id)
	tr.end(h)
	if err != nil {
		return fmt.Errorf("report %s: %w", id, err)
	}
	if string(got) != string(j.want.report) {
		return fmt.Errorf("%s job %s: report differs from the expected bytes:\n%s\nwant:\n%s", j.spec.Kind, id, got, j.want.report)
	}
	return nil
}

// runJob submits one job and checks it to completion (set-up's warm
// compiles).
func (b *serviceBench) runJob(c *xpdld.Client, sp xpdld.Spec, want *expected) error {
	st, err := c.Submit(sp)
	if err != nil {
		return err
	}
	return b.finish(c, nil, plannedJob{sp, want}, st.ID, 0, -1)
}
