package xpdld

// The in-process API suite: every job kind end-to-end over httptest,
// the compile-cache sweep guarantee, quota admission, typed
// cycle-budget errors in status JSON, and the events stream.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"xpdl/internal/sim"
)

// newTestServer starts a Server over httptest and returns it with a
// client. The server's state dir is fresh unless cfg names one.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	if cfg.StateDir == "" {
		cfg.StateDir = t.TempDir()
	}
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hs := httptest.NewServer(s)
	t.Cleanup(func() {
		hs.Close()
		_ = s.Close()
	})
	return s, NewClient(hs.URL)
}

// testCtx returns a context bounded well inside the test deadline.
func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	return ctx
}

// waitDone blocks until the job reaches want, failing the test on any
// other terminal state.
func waitState(t *testing.T, c *Client, id string, want State) Status {
	t.Helper()
	st, err := c.Wait(testCtx(t), id)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	if st.State != want {
		t.Fatalf("job %s: state %s (error %+v), want %s", id, st.State, st.Error, want)
	}
	return st
}

// loopAsm is the long-running workload used across the daemon tests: a
// dependent add loop that stores its checksum and halts.
func loopAsm(iters int) string {
	return fmt.Sprintf(`        li   t0, 0
        li   t1, 0
        li   t2, %d
loop:   add  t1, t1, t0
        addi t0, t0, 1
        bne  t0, t2, loop
        sw   t1, 0(zero)
        ebreak
`, iters)
}

// metricValue parses one series out of /metrics text.
func metricValue(t *testing.T, text, series string) uint64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseUint(rest, 10, 64)
			if err != nil {
				t.Fatalf("metric %s: bad value %q", series, rest)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", series, text)
	return 0
}

func fetchReport(t *testing.T, c *Client, id string) Report {
	t.Helper()
	b, err := c.Report(id)
	if err != nil {
		t.Fatalf("report %s: %v", id, err)
	}
	var rep Report
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("report %s: bad JSON: %v\n%s", id, err, b)
	}
	return rep
}

// TestJobKindsEndToEnd drives one job of every kind through the HTTP
// API to done and sanity-checks each report.
func TestJobKindsEndToEnd(t *testing.T) {
	_, c := newTestServer(t, Config{})

	// compile
	st, err := c.Submit(Spec{Kind: KindCompile, Design: "base"})
	if err != nil {
		t.Fatalf("submit compile: %v", err)
	}
	waitState(t, c, st.ID, StateDone)
	rep := fetchReport(t, c, st.ID)
	if rep.Kind != KindCompile || rep.DesignHash == "" || rep.Pipes == 0 {
		t.Fatalf("compile report: %+v", rep)
	}

	// simulate
	st, err = c.Submit(Spec{Kind: KindSimulate, Design: "base", Workload: "fib", Engine: "vm"})
	if err != nil {
		t.Fatalf("submit simulate: %v", err)
	}
	waitState(t, c, st.ID, StateDone)
	rep = fetchReport(t, c, st.ID)
	if !rep.GoldenOK || rep.Cycles == 0 || rep.Retired == 0 || rep.Checksum == "" || rep.StateCRC == "" {
		t.Fatalf("simulate report: %+v", rep)
	}

	// chaos
	st, err = c.Submit(Spec{Kind: KindChaos, Design: "all", Workload: "fib", Seed: 7})
	if err != nil {
		t.Fatalf("submit chaos: %v", err)
	}
	waitState(t, c, st.ID, StateDone)
	rep = fetchReport(t, c, st.ID)
	if !rep.GoldenOK || rep.Seed != 7 {
		t.Fatalf("chaos report: %+v", rep)
	}

	// cosim
	st, err = c.Submit(Spec{Kind: KindCosim, Design: "base", Workload: "fib"})
	if err != nil {
		t.Fatalf("submit cosim: %v", err)
	}
	waitState(t, c, st.ID, StateDone)
	rep = fetchReport(t, c, st.ID)
	if rep.Kind != KindCosim || rep.Cycles == 0 || rep.Retired == 0 {
		t.Fatalf("cosim report: %+v", rep)
	}

	// bveq
	st, err = c.Submit(Spec{Kind: KindBveq, Design: "base", BveqLen: 1})
	if err != nil {
		t.Fatalf("submit bveq: %v", err)
	}
	waitState(t, c, st.ID, StateDone)
	rep = fetchReport(t, c, st.ID)
	if rep.Kind != KindBveq || len(rep.Bveq) == 0 {
		t.Fatalf("bveq report: %+v", rep)
	}
	var inner struct {
		Verified bool `json:"verified"`
		Points   int  `json:"points"`
	}
	if err := json.Unmarshal(rep.Bveq, &inner); err != nil || !inner.Verified || inner.Points == 0 {
		t.Fatalf("bveq inner report: %+v err %v\n%s", inner, err, rep.Bveq)
	}
}

// TestCompileCacheSweep pins the tentpole cache guarantee: a 100-run
// sweep of one design performs front-end compilation exactly once,
// observable through the /metrics cache counters.
func TestCompileCacheSweep(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 8, Quota: Quota{MaxActive: 256}})
	const runs = 100
	ids := make([]string, 0, runs)
	for i := 0; i < runs; i++ {
		st, err := c.Submit(Spec{Kind: KindSimulate, Design: "base", Asm: loopAsm(200), Engine: "vm"})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		waitState(t, c, id, StateDone)
	}
	text, err := c.Metrics()
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if got := metricValue(t, text, "xpdld_compiles_total"); got != 1 {
		t.Errorf("front-end ran %d times for a %d-run sweep, want exactly 1", got, runs)
	}
	if got := metricValue(t, text, "xpdld_compile_cache_misses_total"); got != 1 {
		t.Errorf("cache misses = %d, want 1", got)
	}
	if got := metricValue(t, text, "xpdld_compile_cache_hits_total"); got != runs-1 {
		t.Errorf("cache hits = %d, want %d", got, runs-1)
	}
	if got := metricValue(t, text, `xpdld_jobs{state="done"}`); got != runs {
		t.Errorf("done jobs = %d, want %d", got, runs)
	}

	// All 100 reports are identical bytes: same spec, same result.
	first, err := c.Report(ids[0])
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	for _, id := range ids[1:] {
		b, err := c.Report(id)
		if err != nil {
			t.Fatalf("report %s: %v", id, err)
		}
		if string(b) != string(first) {
			t.Fatalf("sweep reports diverge:\n%s\nvs\n%s", first, b)
		}
	}
}

// TestQuotaAdmission pins per-tenant admission control and its metrics.
func TestQuotaAdmission(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2, Quota: Quota{MaxActive: 2}})
	long := loopAsm(500_000)
	a, err := c.Submit(Spec{Kind: KindChaos, Tenant: "acme", Asm: long, Seed: 3, Engine: "vm"})
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	b, err := c.Submit(Spec{Kind: KindChaos, Tenant: "acme", Asm: long, Seed: 4, Engine: "vm"})
	if err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	if _, err := c.Submit(Spec{Kind: KindChaos, Tenant: "acme", Asm: long, Seed: 5, Engine: "vm"}); err == nil {
		t.Fatal("third active job for one tenant admitted over MaxActive=2")
	} else if !strings.Contains(err.Error(), "quota") {
		t.Fatalf("quota rejection error = %v, want kind quota", err)
	}
	// Another tenant is unaffected.
	other, err := c.Submit(Spec{Kind: KindCompile, Tenant: "zenith", Design: "base"})
	if err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, text, "xpdld_quota_denied_total"); got != 1 {
		t.Errorf("quota_denied_total = %d, want 1", got)
	}
	for _, id := range []string{a.ID, b.ID} {
		if _, err := c.Cancel(id); err != nil {
			t.Fatalf("cancel %s: %v", id, err)
		}
	}
	waitState(t, c, other.ID, StateDone)
	// Terminal jobs free quota: a new submission for acme is admitted.
	for _, id := range []string{a.ID, b.ID} {
		st, err := c.Wait(testCtx(t), id)
		if err != nil || !st.State.Terminal() {
			t.Fatalf("canceled job %s not terminal: %+v %v", id, st, err)
		}
	}
	if _, err := c.Submit(Spec{Kind: KindCompile, Tenant: "acme", Design: "base"}); err != nil {
		t.Fatalf("submission after quota freed: %v", err)
	}
}

// TestCycleBudgetTyped pins PR 2's typed budget error surfacing in the
// job's status JSON: the budget clamp comes from the spec (or the
// tenant quota) and the failure names its kind.
func TestCycleBudgetTyped(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	st, err := c.Submit(Spec{Kind: KindSimulate, Design: "base", Workload: "fib", MaxCycles: 50})
	if err != nil {
		t.Fatal(err)
	}
	st, err = c.Wait(testCtx(t), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || st.Error == nil || st.Error.Kind != ErrBudget {
		t.Fatalf("budget-starved job: state %s error %+v, want failed/%s", st.State, st.Error, ErrBudget)
	}
	if !strings.Contains(st.Error.Detail, "cycle budget") {
		t.Fatalf("budget detail %q lacks the sim error text", st.Error.Detail)
	}
}

// TestQuotaClampsCycles pins the per-job budget ceiling.
func TestQuotaClampsCycles(t *testing.T) {
	_, c := newTestServer(t, Config{Quota: Quota{MaxCycles: 1234}})
	st, err := c.Submit(Spec{Kind: KindSimulate, Design: "base", Workload: "fib", MaxCycles: 999_999_999})
	if err != nil {
		t.Fatal(err)
	}
	if st.Spec.MaxCycles != 1234 {
		t.Fatalf("MaxCycles = %d, want clamped to 1234", st.Spec.MaxCycles)
	}
}

// TestEventsStream watches a chaos job's progress stream: running
// states with advancing checkpoints, then a terminal done.
func TestEventsStream(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	st, err := c.Submit(Spec{
		Kind: KindChaos, Design: "base", Asm: loopAsm(100_000),
		Seed: 11, Engine: "vm", CheckpointEvery: 5_000, MaxCycles: 5_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	var checkpoints []int
	last, err := c.Events(testCtx(t), st.ID, func(ev Status) bool {
		if ev.Progress.CheckpointCycle > 0 {
			checkpoints = append(checkpoints, ev.Progress.CheckpointCycle)
		}
		return true
	})
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	if last.State != StateDone {
		t.Fatalf("final event state %s (error %+v), want done", last.State, last.Error)
	}
	if len(checkpoints) == 0 {
		t.Fatal("no checkpoint progress observed on the events stream")
	}
	for i := 1; i < len(checkpoints); i++ {
		if checkpoints[i] < checkpoints[i-1] {
			t.Fatalf("checkpoint cycles regressed: %v", checkpoints)
		}
	}
}

// TestSubmitRejections pins spec validation as typed 400s.
func TestSubmitRejections(t *testing.T) {
	_, c := newTestServer(t, Config{})
	bad := []Spec{
		{Kind: "mine"},
		{Kind: KindSimulate, Design: "quantum", Workload: "fib"},
		{Kind: KindSimulate, Design: "base"},
		{Kind: KindSimulate, Design: "base", Workload: "fib", Asm: "ebreak"},
		{Kind: KindSimulate, Design: "base", Workload: "warp"},
		{Kind: KindCompile, Design: "base", Source: "pipe cpu {}"},
		{Kind: KindSimulate, Design: "base", Workload: "fib", Engine: "turbo"},
		{Kind: KindBveq, Design: "base", Workload: "fib"},
		{Kind: KindSimulate, Design: "base", Asm: "not an opcode"},
	}
	for i, sp := range bad {
		if _, err := c.Submit(sp); err == nil {
			t.Errorf("bad spec %d admitted: %+v", i, sp)
		} else if !strings.Contains(err.Error(), ErrSpec) {
			t.Errorf("bad spec %d: error %v lacks kind %q", i, err, ErrSpec)
		}
	}
	if _, err := c.Status("j999999"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("missing job status error = %v, want 404", err)
	}
}

// TestCosimJobEveryEngine: cosim jobs are admitted on every engine, and
// the engine is the only thing in the report that names it — each
// report's bytes equal the default job's with the label swapped.
func TestCosimJobEveryEngine(t *testing.T) {
	_, c := newTestServer(t, Config{})
	report := func(engine string) []byte {
		t.Helper()
		st, err := c.Submit(Spec{Kind: KindCosim, Design: "all", Workload: "fib", Seed: 77, Engine: engine})
		if err != nil {
			t.Fatalf("submit cosim on %q: %v", engine, err)
		}
		waitState(t, c, st.ID, StateDone)
		b, err := c.Report(st.ID)
		if err != nil {
			t.Fatalf("report %s: %v", st.ID, err)
		}
		return b
	}
	def := report("")
	if !strings.Contains(string(def), `"engine": "closure"`) {
		t.Fatalf("default cosim report does not say closure:\n%s", def)
	}
	for _, engine := range sim.Engines() {
		b := report(engine)
		var rep Report
		if err := json.Unmarshal(b, &rep); err != nil {
			t.Fatalf("%s report: bad JSON: %v\n%s", engine, err, b)
		}
		if rep.Engine != engine {
			t.Fatalf("%s report names engine %q", engine, rep.Engine)
		}
		if got := strings.Replace(string(b), `"engine": "`+engine+`"`, `"engine": "closure"`, 1); got != string(def) {
			t.Errorf("%s report differs from the default beyond its engine label:\n%s\ndefault:\n%s", engine, b, def)
		}
	}
}
