package locks

import (
	"bytes"
	"testing"

	"xpdl/internal/snap"
)

// stateBytes serializes a lock's durable state.
func stateBytes(t *testing.T, save func(*snap.Writer)) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := snap.NewWriter(&buf)
	save(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// dirty leaves committed words, live reservations with staged writes
// and, when open is set, an uncommitted transaction behind.
func dirty(l Lock, open bool) {
	l.Begin()
	l.Reserve(1, 2, true)
	l.Write(1, 2, v32(7))
	l.Release(1, 2)
	l.Reserve(2, 3, true)
	l.Write(2, 3, v32(9))
	l.Reserve(3, 2, false)
	l.Commit()
	if open {
		l.Begin()
		l.Reserve(4, 1, true)
	}
}

// TestResetEqualsFresh: a used lock, reset, saves the same bytes as a
// freshly built one and behaves like it afterwards — with or without a
// transaction left open.
func TestResetEqualsFresh(t *testing.T) {
	kinds := []struct {
		name string
		mk   func() Lock
	}{
		{"basic", func() Lock { return NewBasic(8, 32) }},
		{"bypass", func() Lock { return NewBypass(8, 32) }},
		{"renaming", func() Lock { return NewRenaming(8, 32, 4) }},
	}
	for _, k := range kinds {
		for _, open := range []bool{false, true} {
			fresh, used := k.mk(), k.mk()
			dirty(used, open)
			used.Reset()
			if !bytes.Equal(stateBytes(t, fresh.SaveState), stateBytes(t, used.SaveState)) {
				t.Errorf("%s (open txn %v): reset state differs from a fresh lock", k.name, open)
			}
			dirty(fresh, false)
			dirty(used, false)
			if !bytes.Equal(stateBytes(t, fresh.SaveState), stateBytes(t, used.SaveState)) {
				t.Errorf("%s (open txn %v): reset lock diverges from a fresh one on reuse", k.name, open)
			}
		}
	}
	p := NewPlain(8, 32)
	p.Poke(5, v32(3))
	p.Reset()
	if !bytes.Equal(stateBytes(t, NewPlain(8, 32).SaveState), stateBytes(t, p.SaveState)) {
		t.Error("plain: reset memory is not zero")
	}
}
