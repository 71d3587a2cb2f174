package rtl_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xpdl/internal/rtl"
	"xpdl/internal/snap"
	"xpdl/internal/val"
)

// orderItems are the combinational units of orderModule: chains through
// assigns and blocks in both directions, a block that reads its own
// earlier assignment, a default-then-override block and a latch (lat is
// written only under a condition and read only under the same one).
var orderItems = []string{
	`    assign s1 = a + b;`,
	`    assign s2 = s1 ^ c1;`,
	`    assign y = c2 + acc;`,
	`    always @* begin
        c1 = s1 & 8'h0f;
        if (a[0]) c1 = c1 | 8'h80;
    end`,
	`    always @* begin
        f = 1'b0;
        if (s2 > b) begin
            lat = s2;
            f = 1'b1;
        end
        c2 = f ? lat : s1;
    end`,
	`    assign z = {y[3:0], s2[7:4]} - 8'd3;`,
}

func orderModule(perm []int) string {
	var sb strings.Builder
	sb.WriteString(`module t(
    input wire clk,
    input wire [7:0] a,
    input wire [7:0] b,
    output wire [7:0] y,
    output wire [7:0] z
);
    wire [7:0] s1;
    wire [7:0] s2;
    reg [7:0] c1;
    reg [7:0] c2;
    reg [7:0] lat;
    reg f;
    reg [7:0] acc;
`)
	for _, i := range perm {
		sb.WriteString(orderItems[i])
		sb.WriteString("\n")
	}
	sb.WriteString(`    always @(posedge clk) begin
        acc <= acc + z;
    end
endmodule
`)
	return sb.String()
}

// orderTrace drives a module through a fixed input sequence and
// records every settled signal value and the final saved state.
func orderTrace(t *testing.T, src string) (string, []byte) {
	t.Helper()
	f, err := rtl.Parse(src)
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	m, err := rtl.Elaborate(f.Module("t"), nil)
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	var trace strings.Builder
	for cyc := 0; cyc < 24; cyc++ {
		if err := m.Poke("a", val.New(uint64(cyc*37+5), 8)); err != nil {
			t.Fatal(err)
		}
		if err := m.Poke("b", val.New(uint64(cyc*11+90), 8)); err != nil {
			t.Fatal(err)
		}
		if err := m.Settle(); err != nil {
			t.Fatalf("cycle %d: %v\n%s", cyc, err, src)
		}
		for _, name := range []string{"s1", "s2", "c1", "c2", "lat", "f", "acc", "y", "z"} {
			v, err := m.Peek(name)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&trace, "%s=%#x ", name, v.Uint())
		}
		trace.WriteString("\n")
		if err := m.Clock(); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	w := snap.NewWriter(&buf)
	m.SaveState(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return trace.String(), buf.Bytes()
}

// TestSettleOrderIndependent: the combinational units settle to the
// same values, cycle by cycle, and save the same state bytes whatever
// order the source lists them in.
func TestSettleOrderIndependent(t *testing.T) {
	source := make([]int, len(orderItems))
	for i := range source {
		source[i] = i
	}
	wantTrace, wantState := orderTrace(t, orderModule(source))
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 40; k++ {
		perm := rng.Perm(len(orderItems))
		gotTrace, gotState := orderTrace(t, orderModule(perm))
		if gotTrace != wantTrace {
			t.Fatalf("order %v settles differently from source order:\n%s\nvs\n%s", perm, gotTrace, wantTrace)
		}
		if !bytes.Equal(gotState, wantState) {
			t.Fatalf("order %v saves different state bytes from source order", perm)
		}
	}
}

// TestCombinationalLoop: logic that never settles is reported as a
// combinational loop, whether it spans two assigns or one block that
// feeds itself.
func TestCombinationalLoop(t *testing.T) {
	for name, body := range map[string]string{
		"assigns": `    wire a;
    wire b;
    assign a = ~b;
    assign b = a;`,
		"block": `    reg [3:0] x;
    always @* begin
        x = x + 4'd1;
    end`,
	} {
		t.Run(name, func(t *testing.T) {
			src := "module t(\n    input wire clk\n);\n" + body + "\nendmodule\n"
			f, err := rtl.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			m, err := rtl.Elaborate(f.Module("t"), nil)
			if err != nil {
				t.Fatal(err)
			}
			err = m.Settle()
			var re *rtl.Error
			if !errors.As(err, &re) || !strings.Contains(re.Msg, "combinational loop") {
				t.Fatalf("settle of a loop: got %v, want a combinational-loop *rtl.Error", err)
			}
		})
	}
}

// TestExternResultCountChecked: an extern that returns the wrong number
// of values is a run-time *rtl.Error from Settle, not a panic.
func TestExternResultCountChecked(t *testing.T) {
	const src = `module t(
    input wire [31:0] a,
    output wire [31:0] y
);
    assign y = f(a);
endmodule
`
	f, err := rtl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	funcs := map[string]*rtl.Func{"f": {
		Params:  []int{32},
		Results: []int{32},
		Fn:      func([]val.Value) []val.Value { return nil },
	}}
	m, err := rtl.Elaborate(f.Module("t"), funcs)
	if err != nil {
		t.Fatal(err)
	}
	err = m.Settle()
	var re *rtl.Error
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "returned 0 values") {
		t.Fatalf("settle over a short extern: got %v, want a result-count *rtl.Error", err)
	}
}
