package bveq

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"xpdl/internal/designs"
	"xpdl/internal/sim"
)

// pointRun is what one point's machine leaves behind.
type pointRun struct {
	boot, end []byte
	retired   []sim.Retirement
	err       error
}

func runSaved(t *testing.T, m *sim.Machine, budget int) pointRun {
	t.Helper()
	var r pointRun
	var err error
	if r.boot, err = m.SaveBytes(); err != nil {
		t.Fatal(err)
	}
	r.err = m.Advance(budget)
	if r.end, err = m.SaveBytes(); err != nil {
		t.Fatal(err)
	}
	r.retired = m.Retired()
	return r
}

func (a pointRun) diff(b pointRun) string {
	switch {
	case !bytes.Equal(a.boot, b.boot):
		return "snapshot after boot"
	case !bytes.Equal(a.end, b.end):
		return "snapshot at the end"
	case fmt.Sprint(a.err) != fmt.Sprint(b.err):
		return fmt.Sprintf("run error %v vs %v", a.err, b.err)
	case len(a.retired) != len(b.retired):
		return fmt.Sprintf("retired %d vs %d", len(a.retired), len(b.retired))
	}
	for i := range a.retired {
		if !reflect.DeepEqual(a.retired[i], b.retired[i]) {
			return fmt.Sprintf("retirement %d differs", i)
		}
	}
	return ""
}

// TestPooledPointsEqualFresh: over every K=3 point of every variant, a
// machine the target reset from its pool runs the point exactly as a
// freshly built one — snapshot bytes after boot and at the end, the
// outcome and the retirement trace. The pooled target gets each machine
// back right after its point, so every point but the first runs on a
// machine reset from the previous point's state. The sweep is serial
// per variant, so the race detector would only slow it down tenfold.
func TestPooledPointsEqualFresh(t *testing.T) {
	if raceEnabled {
		t.Skip("serial sweep; nothing for the race detector to find")
	}
	b := Bounds{K: 3}.withDefaults()
	for _, v := range designs.Variants() {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			t.Parallel()
			pooled, err := NewVariantTarget(v, b.Width, nil)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := NewVariantTarget(v, b.Width, nil)
			if err != nil {
				t.Fatal(err)
			}
			bad := 0
			Enumerate(pooled, b, func(pd PointDesc) bool {
				fm, err := fresh.Build(pd.Prog, pd.Intr, b.Engine)
				if err != nil {
					t.Fatal(err)
				}
				pm, err := pooled.Build(pd.Prog, pd.Intr, b.Engine)
				if err != nil {
					t.Fatal(err)
				}
				want, got := runSaved(t, fm, b.Budget), runSaved(t, pm, b.Budget)
				if msg := want.diff(got); msg != "" {
					t.Errorf("point %d (prog %v, intr %d): pooled machine differs: %s", pd.Index, pd.Prog, pd.Intr, msg)
					bad++
				}
				pooled.Release(pm)
				return bad < 5
			})
		})
	}
}
