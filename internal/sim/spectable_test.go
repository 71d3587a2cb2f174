package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// TestSpecTableMatchesMap drives the speculation table and a plain map
// with the same seeded operations — mostly near the newest handle, as
// pipelines use it, some far behind it so entries outlive the ring —
// and requires the same entries after every step.
func TestSpecTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tab specTable
		ref := map[uint64]specStatus{}
		next := uint64(0)
		for step := 0; step < 3000; step++ {
			h := next
			if next > 0 {
				h = next - 1 - uint64(rng.Intn(min(int(next), 8)))
				if rng.Intn(8) == 0 {
					h = uint64(rng.Int63n(int64(next)))
				}
			}
			switch k := rng.Intn(20); {
			case k < 6 || next == 0:
				tab.set(next, specPending)
				ref[next] = specPending
				next++
			case k < 10:
				tab.verify(h)
				if ref[h] == specPending {
					ref[h] = specVerified
				}
			case k < 13:
				tab.set(h, specInvalid)
				ref[h] = specInvalid
			case k < 19:
				tab.del(h)
				delete(ref, h)
			default:
				if rng.Intn(10) == 0 {
					tab.clear()
					clear(ref)
				}
			}
			want := make([]uint64, 0, len(ref))
			for h := range ref {
				want = append(want, h)
			}
			slices.Sort(want)
			if got := tab.handles(); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: handles %v, want %v", seed, step, got, want)
			}
			for _, h := range want {
				if st, ok := tab.get(h); !ok || st != ref[h] {
					t.Fatalf("seed %d step %d: handle %d is %v/%v, want %v", seed, step, h, st, ok, ref[h])
				}
			}
			if _, ok := tab.get(next); ok {
				t.Fatalf("seed %d step %d: unissued handle %d has an entry", seed, step, next)
			}
		}
	}
}
