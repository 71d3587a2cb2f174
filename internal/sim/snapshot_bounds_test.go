package sim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"runtime"
	"strings"
	"testing"

	"xpdl/internal/snap"
	"xpdl/internal/val"
)

// TestRestoreRefusesHugeCounts feeds Restore snapshots whose checksum
// is valid but whose throw-argument or record-field count claims 1<<40
// entries. Each must be refused with an error before anything is
// allocated for the claimed entries. The snapshots are made by saving a
// machine with a planted sentinel count, then rewriting that count and
// the checksum trailer, so only Restore's own bounds stand in the way.
func TestRestoreRefusesHugeCounts(t *testing.T) {
	const sentinel = 677 // far above any count the design produces
	const elemW = 61
	elem := val.New(0x1d2c3b4a5968, elemW)
	fill := func() []val.Value {
		vs := make([]val.Value, sentinel)
		for i := range vs {
			vs[i] = elem
		}
		return vs
	}
	bigRecord := func() V {
		fields := make(map[string]val.Value, sentinel)
		for i := 0; i < sentinel; i++ {
			fields[fmt.Sprintf("f%03d", i)] = elem
		}
		return Record(fields)
	}
	live := func(m *Machine) *inst { return m.snapshotAlive()[0] }
	// Each case plants the sentinel count and names the bytes Save
	// writes right after it, which pins the count's offset.
	valPrefix := binary.AppendUvarint(nil, elemW)
	cases := []struct {
		name  string
		plant func(m *Machine)
		after []byte
	}{
		{"instruction throw arguments", func(m *Machine) { live(m).eargs = fill() }, valPrefix},
		{"retirement throw arguments", func(m *Machine) { m.retired[0].EArgs = fill() }, valPrefix},
		{"record fields", func(m *Machine) { live(m).vars[0] = slotVal{v: bigRecord(), ok: true} },
			append(binary.AppendUvarint(nil, 4), "f000"...)},
	}
	for _, tc := range cases {
		t.Run(strings.ReplaceAll(tc.name, " ", "-"), func(t *testing.T) {
			m := build(t, excPipe, Config{})
			if err := m.Start("cpu", val.New(0, 32)); err != nil {
				t.Fatal(err)
			}
			for len(m.retired) == 0 || len(m.alive) == 0 {
				if err := m.Step(); err != nil {
					t.Fatal(err)
				}
				if m.cycle > 100 {
					t.Fatal("no cycle with both a retirement and a live instruction")
				}
			}
			tc.plant(m)
			b, err := m.SaveBytes()
			if err != nil {
				t.Fatal(err)
			}
			b = patchCount(t, b, sentinel, 1<<40, tc.after)

			fresh := build(t, excPipe, Config{})
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err = fresh.Restore(bytes.NewReader(b))
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("Restore accepted a count of 1<<40")
			}
			if ce := (*snap.CorruptError)(nil); errors.As(err, &ce) {
				t.Fatalf("Restore refused the stream, not the count: %v", err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Errorf("Restore allocated %d bytes before refusing", grew)
			}
			t.Log(err)
		})
	}
}

// patchCount rewrites the one varint count from in snapshot b that is
// followed by after into to, and recomputes the checksum trailer.
func patchCount(t *testing.T, b []byte, from, to uint64, after []byte) []byte {
	t.Helper()
	body := b[:len(b)-8]
	old := append(binary.AppendUvarint(nil, from), after...)
	if n := bytes.Count(body, old); n != 1 {
		t.Fatalf("sentinel count found %d times in the snapshot, want once", n)
	}
	body = bytes.Replace(body, old, append(binary.AppendUvarint(nil, to), after...), 1)
	return binary.LittleEndian.AppendUint64(body, crc64.Checksum(body, crc64.MakeTable(crc64.ECMA)))
}
