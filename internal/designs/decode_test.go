package designs_test

import (
	"testing"

	"xpdl/internal/bveq"
	"xpdl/internal/designs"
	"xpdl/internal/workloads"
)

// TestDecodeRecordLayout: the decode extern builds its record straight
// into the sorted layout from a shared name array. For every
// instruction word the bveq alphabets and the workload kernels contain,
// that record must equal the sim.Record form field for field.
func TestDecodeRecordLayout(t *testing.T) {
	words := map[uint32]bool{}
	for _, v := range designs.Variants() {
		tgt, err := bveq.NewVariantTarget(v, 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range tgt.Alphabet() {
			words[in.Word] = true
		}
		for _, in := range tgt.ExcLetters() {
			words[in.Word] = true
		}
		words[tgt.Neutral()] = true
	}
	for _, w := range workloads.All() {
		prog, err := w.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range prog.Text {
			words[x] = true
		}
	}
	for w := range words {
		got, ref := designs.DecodeRecords(w)
		if got.Rec == nil || len(got.Rec.Names) != len(ref.Rec.Names) || len(got.Rec.Vals) != len(ref.Rec.Vals) {
			t.Fatalf("word %#08x: record shape %+v, reference %+v", w, got.Rec, ref.Rec)
		}
		for i, name := range ref.Rec.Names {
			if got.Rec.Names[i] != name || got.Rec.Vals[i] != ref.Rec.Vals[i] {
				t.Errorf("word %#08x field %d: %s=%v, reference %s=%v",
					w, i, got.Rec.Names[i], got.Rec.Vals[i], name, ref.Rec.Vals[i])
			}
		}
	}
	if len(words) < 100 {
		t.Errorf("only %d distinct words checked", len(words))
	}
}
