package locks

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"xpdl/internal/val"
)

// refAbort is the Renaming.Abort algorithm as it stood before Abort
// reused lock-owned buffers: a fresh used map and a fresh free list on
// every call, revoked reservations dropped. The reference lock runs it
// outside any transaction; refRenaming models transactions by cloning.
func refAbort(r *Renaming) {
	copy(r.specMap, r.commMap)
	used := make(map[int]bool, len(r.commMap))
	for _, p := range r.commMap {
		used[p] = true
	}
	r.free = nil
	for p := len(r.phys) - 1; p >= 0; p-- {
		if !used[p] {
			r.free = append(r.free, p)
		}
	}
	r.resvs = nil
}

// refRenaming is the reference for TestRenamingAbortEquivalence: a
// Renaming that never opens a journal transaction and takes its aborts
// through refAbort. Begin deep-copies the whole lock and Rollback puts
// that copy back, which is what a rollback means.
type refRenaming struct {
	r     *Renaming
	saved *Renaming
}

func cloneRenaming(r *Renaming) *Renaming {
	c := &Renaming{
		phys:    slices.Clone(r.phys),
		specMap: slices.Clone(r.specMap),
		commMap: slices.Clone(r.commMap),
		free:    slices.Clone(r.free),
		width:   r.width,
	}
	for _, res := range r.resvs {
		cp := *res
		c.resvs = append(c.resvs, &cp)
	}
	return c
}

func (f *refRenaming) Begin()    { f.saved = cloneRenaming(f.r) }
func (f *refRenaming) Commit()   { f.saved = nil }
func (f *refRenaming) Rollback() { f.r, f.saved = f.saved, nil }

// renamingState renders everything Abort may touch: both maps, the free
// list in order, the live reservations in order, and every register's
// committed value.
func renamingState(r *Renaming) string {
	s := fmt.Sprintf("spec=%v comm=%v free=%v resvs=[", r.specMap, r.commMap, r.free)
	for _, res := range r.resvs {
		s += fmt.Sprintf(" %+v", *res)
	}
	s += " ] peek=["
	for a := 0; a < r.Depth(); a++ {
		s += fmt.Sprintf(" %d", r.Peek(uint64(a)).Uint())
	}
	return s + " ]"
}

// TestRenamingAbortEquivalence runs seeded random sequences of
// Reserve/Write/Release/Squash/Abort/Begin/Commit/Rollback on the
// renaming lock and on the reference, inside and outside transactions,
// and requires identical maps, free-list order, reservations and
// committed values after every step.
func TestRenamingAbortEquivalence(t *testing.T) {
	const depth, extra = 4, 3
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cur := NewRenaming(depth, 32, extra)
		ref := &refRenaming{r: NewRenaming(depth, 32, extra)}
		var nextID IID = 1
		var trace []string
		for step := 0; step < 120; step++ {
			var op string
			live := cur.resvs
			switch k := rng.Intn(10); {
			case k == 0 && !cur.inTxn:
				op = "begin"
				cur.Begin()
				ref.Begin()
			case k == 1 && cur.inTxn:
				op = "commit"
				cur.Commit()
				ref.Commit()
			case k == 2 && cur.inTxn:
				op = "rollback"
				cur.Rollback()
				ref.Rollback()
			case k == 3:
				op = "abort"
				cur.Abort()
				refAbort(ref.r)
			case k == 4 && len(live) > 0:
				res := live[rng.Intn(len(live))]
				op = fmt.Sprintf("release %d/%d", res.id, res.arch)
				cur.Release(res.id, res.arch)
				ref.r.Release(res.id, res.arch)
			case k == 5 && len(live) > 0:
				id := live[rng.Intn(len(live))].id
				op = fmt.Sprintf("squash %d", id)
				cur.Squash(id)
				ref.r.Squash(id)
			case k == 6 && len(live) > 0:
				res := live[rng.Intn(len(live))]
				if !res.write {
					continue
				}
				v := v32(rng.Uint64())
				op = fmt.Sprintf("write %d/%d=%d", res.id, res.arch, v.Uint())
				cur.Write(res.id, res.arch, v)
				ref.r.Write(res.id, res.arch, v)
			default:
				addr, write := uint64(rng.Intn(depth)), rng.Intn(2) == 0
				if !cur.CanReserve(nextID, addr, write) {
					continue
				}
				op = fmt.Sprintf("reserve %d/%d w=%v", nextID, addr, write)
				cur.Reserve(nextID, addr, write)
				ref.r.Reserve(nextID, addr, write)
				nextID++
			}
			trace = append(trace, op)
			if got, want := renamingState(cur), renamingState(ref.r); got != want {
				t.Fatalf("seed %d after %v:\n got %s\nwant %s", seed, trace, got, want)
			}
		}
	}
}

// TestAbortAllocFree: once its buffers have grown, Abort allocates
// nothing, outside a transaction (the vm's no-transaction stages) and
// inside one, ending in Commit or in Rollback — for both lock kinds.
func TestAbortAllocFree(t *testing.T) {
	locks := map[string]Lock{
		"renaming": NewRenaming(8, 32, 4),
		"basic":    NewBasic(8, 32),
		"bypass":   NewBypass(8, 32),
	}
	for name, l := range locks {
		reserve := func() {
			for a := uint64(0); a < 3; a++ {
				l.Reserve(IID(a+1), a, true)
				l.Write(IID(a+1), a, v32(a))
			}
		}
		modes := map[string]func(){
			"bare": func() { reserve(); l.Abort() },
			"commit": func() {
				l.Begin()
				reserve()
				l.Abort()
				l.Commit()
			},
			"rollback": func() {
				l.Begin()
				l.Reserve(9, 5, true)
				l.Abort()
				l.Reserve(10, 6, true)
				l.Abort()
				l.Rollback()
				l.Abort()
			},
		}
		for mode, run := range modes {
			if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
				t.Errorf("%s %s: warm Abort path makes %.0f allocations, want 0", name, mode, allocs)
			}
		}
	}
}

// TestFirstDiff: every memory kind reports the lowest address at or
// above off whose committed word, cut to 32 bits, differs from want,
// and -1 when none does; uncommitted writes are not committed state.
func TestFirstDiff(t *testing.T) {
	ren := NewRenaming(8, 64, 2)
	ren.Reserve(1, 6, true)
	ren.Write(1, 6, val.New(7, 64)) // staged, not committed
	mems := map[string]interface {
		Poke(addr uint64, v val.Value)
		FirstDiff(off uint64, want []uint32) int
	}{"basic": NewBasic(8, 64), "renaming": ren, "plain": NewPlain(8, 64)}
	for name, m := range mems {
		m.Poke(2, val.New(1<<32|5, 64)) // differs from 5 only above bit 31
		m.Poke(4, val.New(9, 64))
		want := []uint32{0, 5, 0, 9, 0, 0}
		if got := m.FirstDiff(1, want); got != -1 {
			t.Errorf("%s: FirstDiff on equal words = %d, want -1", name, got)
		}
		want[3] = 8
		if got := m.FirstDiff(1, want); got != 4 {
			t.Errorf("%s: FirstDiff = %d, want 4", name, got)
		}
		if got := m.FirstDiff(0, nil); got != -1 {
			t.Errorf("%s: FirstDiff of nothing = %d, want -1", name, got)
		}
	}
}
