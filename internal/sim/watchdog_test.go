// Tests for the typed failure modes of Machine.Run / Machine.Step: the
// hang watchdog (*DeadlockError), cycle-budget exhaustion
// (*CycleBudgetError), and panic recovery (*InternalError).
package sim

import (
	"errors"
	"strings"
	"testing"

	"xpdl/internal/val"
)

// crossLockSrc is a genuine dynamic deadlock that the static checker
// cannot reject: two pipelines acquire two memories in opposite order
// across a stage boundary (every reservation is eventually released, so
// the program is statically well-formed). Once each pipe's first
// instruction holds its first lock, neither can take the other's.
const crossLockSrc = `
memory m1: uint<32>[4] with basic, comb_read;
memory m2: uint<32>[4] with basic, comb_read;
pipe a(i: uint<32>)[m1, m2] {
    acquire(m1[2'd0], W);
    ---
    acquire(m2[2'd0], W);
    m1[2'd0] <- i;
    m2[2'd0] <- i + 1;
    release(m1[2'd0]);
    release(m2[2'd0]);
}
pipe b(i: uint<32>)[m1, m2] {
    acquire(m2[2'd0], W);
    ---
    acquire(m1[2'd0], W);
    m2[2'd0] <- i;
    m1[2'd0] <- i + 1;
    release(m2[2'd0]);
    release(m1[2'd0]);
}
`

func TestWatchdogCatchesCrossLockDeadlock(t *testing.T) {
	for _, engine := range []string{"closure", "interp"} {
		name := engine
		if engine == "closure" {
			name = "compiled"
		}
		t.Run(name, func(t *testing.T) {
			m := build(t, crossLockSrc, Config{Engine: engine})
			m.Start("a", val.New(10, 32))
			m.Start("b", val.New(20, 32))
			_, err := m.Run(5000)
			var dl *DeadlockError
			if !errors.As(err, &dl) {
				t.Fatalf("got %T (%v), want *DeadlockError", err, err)
			}
			if dl.InFlight != 2 {
				t.Errorf("InFlight = %d, want 2", dl.InFlight)
			}
			msg := err.Error()
			// The diagnosis must name the blocked stages and both held
			// locks with their owners.
			for _, frag := range []string{"a.body1", "b.body1", "m1:", "m2:", "owns"} {
				if !strings.Contains(msg, frag) {
					t.Errorf("diagnostic %q missing %q", msg, frag)
				}
			}
			if len(dl.Diag.Locks) != 2 {
				t.Errorf("Diag.Locks has %d entries, want 2", len(dl.Diag.Locks))
			}
			// Poisoning is not involved here: deadlock is re-reported by
			// construction (the machine simply cannot progress).
			if err2 := m.Step(); err2 == nil {
				t.Error("Step after deadlock made progress")
			}
		})
	}
}

func TestWatchdogConfig(t *testing.T) {
	// A tight watchdog trips earlier; a disabled one leaves budget
	// exhaustion as the only stop.
	m := build(t, crossLockSrc, Config{WatchdogCycles: 30})
	m.Start("a", val.New(1, 32))
	m.Start("b", val.New(2, 32))
	n, err := m.Run(5000)
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("got %v, want *DeadlockError", err)
	}
	if n > 40 {
		t.Errorf("tight watchdog took %d cycles, want ~31", n)
	}

	m = build(t, crossLockSrc, Config{WatchdogCycles: -1})
	m.Start("a", val.New(1, 32))
	m.Start("b", val.New(2, 32))
	_, err = m.Run(500)
	var cb *CycleBudgetError
	if !errors.As(err, &cb) {
		t.Fatalf("watchdog disabled: got %v, want *CycleBudgetError", err)
	}
}

func TestCycleBudgetError(t *testing.T) {
	m := build(t, counterPipe, Config{})
	m.Start("p", val.New(0, 32))
	_, err := m.Run(3)
	var cb *CycleBudgetError
	if !errors.As(err, &cb) {
		t.Fatalf("got %T (%v), want *CycleBudgetError", err, err)
	}
	if cb.Budget != 3 || cb.InFlight == 0 {
		t.Errorf("budget=%d inFlight=%d, want budget=3 and inFlight>0", cb.Budget, cb.InFlight)
	}
	if !strings.Contains(err.Error(), "cycle budget") {
		t.Errorf("message %q does not mention the budget", err)
	}
	// The budget error is resumable: a fresh budget drains the machine.
	if _, err := m.Run(200); err != nil {
		t.Fatalf("resumed run failed: %v", err)
	}
	if m.InFlight() != 0 {
		t.Error("machine did not drain after resuming")
	}
}

const panicExternSrc = `
extern func boom(x: uint<32>) -> uint<32>;
pipe p(i: uint<32>)[] {
    skip;
    ---
    v = boom(i);
    skip;
}
`

func TestInternalErrorFromPanickingExtern(t *testing.T) {
	for _, engine := range []string{"closure", "interp"} {
		name := engine
		if engine == "closure" {
			name = "compiled"
		}
		t.Run(name, func(t *testing.T) {
			m := build(t, panicExternSrc, Config{
				Engine: engine,
				Externs: map[string]ExternFunc{"boom": func(args []val.Value) V {
					panic("extern exploded")
				}},
			})
			m.Start("p", val.New(5, 32))
			_, err := m.Run(100)
			var ie *InternalError
			if !errors.As(err, &ie) {
				t.Fatalf("got %T (%v), want *InternalError", err, err)
			}
			if ie.Stage != "p.body1" {
				t.Errorf("Stage = %q, want p.body1", ie.Stage)
			}
			if ie.IID == 0 {
				t.Error("IID not recorded")
			}
			if len(ie.Stack) == 0 {
				t.Error("stack trace not captured")
			}
			if !strings.Contains(err.Error(), "extern exploded") {
				t.Errorf("message %q does not carry the panic value", err)
			}
			// The machine is poisoned: every later Step returns the same
			// error instead of running on corrupted state.
			if err2 := m.Step(); err2 != err {
				t.Errorf("poisoned Step returned %v, want the original error", err2)
			}
		})
	}
}

// The bounded diagnosis must cap its own size on designs with more
// in-flight state than the caps allow.
func TestDiagnosisBounded(t *testing.T) {
	m := build(t, crossLockSrc, Config{})
	m.Start("a", val.New(1, 32))
	m.Start("b", val.New(2, 32))
	_, err := m.Run(5000)
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("got %v, want *DeadlockError", err)
	}
	if len(dl.Diag.Stages) > diagMaxStages {
		t.Errorf("diagnosis lists %d stages, cap is %d", len(dl.Diag.Stages), diagMaxStages)
	}
	for _, l := range dl.Diag.Locks {
		if len(l.Resvs) > diagMaxResvs {
			t.Errorf("lock %s lists %d reservations, cap is %d", l.Mem, len(l.Resvs), diagMaxResvs)
		}
	}
}
