package synth

import (
	"fmt"
	"strings"
	"testing"

	"xpdl/internal/check"
	"xpdl/internal/core"
	"xpdl/internal/designs"
	"xpdl/internal/ir"
	"xpdl/internal/pdl/parser"
)

func lower(t *testing.T, v designs.Variant) *ir.Design {
	t.Helper()
	p, err := designs.Build(v)
	if err != nil {
		t.Fatal(err)
	}
	return ir.Lower(p.Design.Info, p.Design.Translations)
}

func TestAreaGrowsWithFeatures(t *testing.T) {
	tech := ASIC45()
	base := AreaOf(lower(t, designs.Base), tech)
	for _, v := range []designs.Variant{designs.Fatal, designs.Trap, designs.CSR, designs.All} {
		a := AreaOf(lower(t, v), tech)
		if a.Total() <= base.Total() {
			t.Errorf("%s area %.0f not larger than base %.0f", v, a.Total(), base.Total())
		}
		if a.RegFileCSR <= base.RegFileCSR {
			t.Errorf("%s rf+csr area did not grow", v)
		}
	}
}

func TestCombinedCheaperThanSumOfGroups(t *testing.T) {
	// The paper: "even for the combined example, the total area cost is
	// still much less than the sum of the areas of each group."
	tech := ASIC45()
	base := AreaOf(lower(t, designs.Base), tech).Total()
	all := AreaOf(lower(t, designs.All), tech).Total()
	sumDeltas := 0.0
	for _, v := range []designs.Variant{designs.Fatal, designs.Trap, designs.CSR} {
		sumDeltas += AreaOf(lower(t, v), tech).Total() - base
	}
	allDelta := all - base
	if allDelta >= sumDeltas {
		t.Errorf("combined delta %.0f is not below the sum of group deltas %.0f", allDelta, sumDeltas)
	}
}

func TestCSRStorageDominatesTrapDelta(t *testing.T) {
	// Within a group, the majority of the area difference should be CSR
	// and stage-register storage, not combinational logic explosion.
	tech := ASIC45()
	base := AreaOf(lower(t, designs.Base), tech)
	trap := AreaOf(lower(t, designs.Trap), tech)
	dStorage := (trap.RegFileCSR - base.RegFileCSR) + (trap.StageRegs - base.StageRegs)
	dComb := trap.Comb - base.Comb
	if dStorage <= 0 {
		t.Fatal("no storage growth")
	}
	if dComb > dStorage*2 {
		t.Errorf("combinational delta %.0f dwarfs storage delta %.0f; expected storage-led growth", dComb, dStorage)
	}
}

func TestFrequencyPenaltySmall(t *testing.T) {
	tech := ASIC45()
	base := TimingOf(lower(t, designs.Base), tech)
	all := TimingOf(lower(t, designs.All), tech)
	if all.FMaxMHz() >= base.FMaxMHz() {
		t.Errorf("exceptions made the design faster? base %.2f, all %.2f", base.FMaxMHz(), all.FMaxMHz())
	}
	drop := (base.FMaxMHz() - all.FMaxMHz()) / base.FMaxMHz() * 100
	if drop > 5.0 {
		t.Errorf("fmax drop %.2f%% exceeds the paper-scale bound (~3.3%%)", drop)
	}
	// Calibration: the baseline should land near the paper's 169.49 MHz.
	if base.FMaxMHz() < 130 || base.FMaxMHz() > 210 {
		t.Errorf("baseline fmax %.2f MHz is out of the calibrated 45 nm range", base.FMaxMHz())
	}
}

func TestCriticalPathIsExecuteStage(t *testing.T) {
	tm := TimingOf(lower(t, designs.All), ASIC45())
	if !strings.Contains(tm.Critical, "body2") {
		t.Errorf("critical stage = %s, expected the execute stage (body2)", tm.Critical)
	}
}

func TestFPGAModelScales(t *testing.T) {
	base := TimingOf(lower(t, designs.Base), FPGA())
	if base.FMaxMHz() < 50 || base.FMaxMHz() > 85 {
		t.Errorf("FPGA fmax %.2f MHz; the paper's quick check sits near 65.6", base.FMaxMHz())
	}
}

func TestStageRegistersGrowWithExceptions(t *testing.T) {
	base := lower(t, designs.Base)
	all := lower(t, designs.All)
	bb := stageBits(base)
	ab := stageBits(all)
	if ab <= bb {
		t.Errorf("stage register bits base=%d all=%d; eargs and lef must add bits", bb, ab)
	}
}

func stageBits(d *ir.Design) int {
	n := 0
	for _, p := range d.Pipelines {
		for _, s := range p.Stages() {
			n += s.InRegBits
		}
	}
	return n
}

func TestLoweringShape(t *testing.T) {
	d := lower(t, designs.All)
	if len(d.Pipelines) != 1 {
		t.Fatalf("%d pipelines", len(d.Pipelines))
	}
	p := d.Pipelines[0]
	if len(p.Body) != 5 {
		t.Errorf("body stages = %d, want 5", len(p.Body))
	}
	if len(p.Except) < 1 {
		t.Error("missing except chain stages")
	}
	if !p.Translated {
		t.Error("all variant must be translated")
	}
	fork := p.Body[len(p.Body)-1]
	if !fork.HasFork {
		t.Error("final body stage must carry the fork")
	}
	for _, s := range p.Body {
		if !s.GefGuarded {
			t.Errorf("body stage %d not gef guarded", s.Index)
		}
	}
	ex := p.Body[2].Externs
	for _, want := range []string{"alu", "nextpc", "intcause", "memfault"} {
		if ex[want] == 0 {
			t.Errorf("execute stage missing extern %s", want)
		}
	}
	if p.Body[2].Throws == 0 {
		t.Error("execute stage should contain lowered throws")
	}
}

func TestVerilogEmission(t *testing.T) {
	p, err := designs.Build(designs.All)
	if err != nil {
		t.Fatal(err)
	}
	v := Verilog(p.Design.Info, p.Design.Translations)
	for _, frag := range []string{
		"module pipe_cpu",
		"reg gef_q;",          // global exception flag register
		"gef_q <= gef_cur;",   // committed at posedge
		"x1_swc_rf_v = 1'b0;", // abort drops the staged rf write
		"reg [31:0] rf_arr [0:31];",
		"assign mstatus_eff = mstatus_dev_we ? mstatus_dev_din : mstatus_q;",
		"} = decode(", // record extern binds field slots
		"retire_exc",
		"always @(posedge clk)",
		"always @*",
	} {
		if !strings.Contains(v, frag) {
			t.Errorf("verilog missing %q", frag)
		}
	}
	if len(v) < 4000 {
		t.Errorf("verilog suspiciously small: %d bytes", len(v))
	}
}

func TestVerilogBaseHasNoExceptionLogic(t *testing.T) {
	p, err := designs.Build(designs.Base)
	if err != nil {
		t.Fatal(err)
	}
	v := Verilog(p.Design.Info, p.Design.Translations)
	for _, frag := range []string{"gef", "pipeclear", "lef"} {
		if strings.Contains(v, frag) {
			t.Errorf("baseline verilog contains exception construct %q", frag)
		}
	}
}

func TestReportRenders(t *testing.T) {
	r := Report(lower(t, designs.All), ASIC45())
	if !strings.Contains(r, "fmax") || !strings.Contains(r, "µm²") {
		t.Errorf("report: %s", r)
	}
}

// TestStagedWritesPerPath: a stage node stages one write per memory, so
// a stage one firing of which writes two words of a locked memory falls
// out of the synthesizable subset; writes on the two arms of an if do
// not.
func TestStagedWritesPerPath(t *testing.T) {
	const src = `
memory out: uint<32>[4] with basic, comb_read;
pipe cpu(pc: uint<32>)[out] {
    acquire(out[2'd0], W);
    acquire(out[2'd1], W);
    %s
    release(out[2'd0]);
    release(out[2'd1]);
}
`
	for _, tc := range []struct {
		body string
		ok   bool
	}{
		{"out[2'd0] <- pc; out[2'd1] <- pc;", false},
		{"out[2'd0] <- pc; if (pc[0:0]) { out[2'd1] <- pc; }", false},
		{"if (pc[0:0]) { out[2'd0] <- pc; } else { out[2'd1] <- pc; }", true},
	} {
		prog, err := parser.Parse(fmt.Sprintf(src, tc.body))
		if err != nil {
			t.Fatal(err)
		}
		info, err := check.Check(prog)
		if err != nil {
			t.Fatal(err)
		}
		text, plans := VerilogPlans(info, core.TranslateProgram(info))
		if _, ok := plans["cpu"]; ok != tc.ok {
			t.Errorf("%s: synthesizable = %v, want %v\n%s", tc.body, ok, tc.ok, text)
		}
	}
}

// TestResizedArmEmittedOnce: the unsized arm of a sized ternary is
// emitted once, then resized; emitting it again for the resize would
// declare and assign a second, unused sign-extension scratch.
func TestResizedArmEmittedOnce(t *testing.T) {
	prog, err := parser.Parse(`
memory out: uint<32>[4] with basic, comb_read;
pipe cpu(pc: uint<32>)[out] {
    acquire(out[2'd0], W);
    r = (pc[0:0] ? (3 << sext(pc[3:0], 5)) : pc[4:0]);
    out[2'd0] <- ext(r, 32);
    release(out[2'd0]);
}
`)
	if err != nil {
		t.Fatal(err)
	}
	info, err := check.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	text := Verilog(info, core.TranslateProgram(info))
	if n := strings.Count(text, "reg [3:0] b0_sx"); n != 1 {
		t.Errorf("%d sign-extension scratches declared, want 1\n%s", n, text)
	}
}
