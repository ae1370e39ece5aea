package sdc

import (
	"strings"
	"testing"

	"modemerge/internal/gen"
)

func TestQueryFlagsIgnored(t *testing.T) {
	// Common query flags must parse without affecting resolution.
	m := parseOK(t, `
create_clock -name clkA -period 10 [get_ports -quiet clk1]
set_false_path -through [get_pins -hierarchical and1/Z]
set_disable_timing [get_cells -quiet mux1]
`)
	if len(m.Clocks) != 1 || len(m.Exceptions) != 1 || len(m.Disables) != 1 {
		t.Errorf("query flags broke parsing: %+v", m)
	}
}

func TestSetSenseAlias(t *testing.T) {
	m := parseOK(t, `
create_clock -name clkA -period 10 [get_ports clk1]
set_sense -type clock -stop_propagation -clock [get_clocks clkA] [get_pins mux1/Z]
`)
	if len(m.ClockSenses) != 1 || !m.ClockSenses[0].StopPropagation {
		t.Errorf("set_sense alias failed: %+v", m.ClockSenses)
	}
}

func TestFlagAbbreviations(t *testing.T) {
	m := parseOK(t, `
create_clock -p 10 -n clkA [get_ports clk1]
set_multicycle_path 2 -se -from [get_clocks clkA]
`)
	if m.Clocks[0].Name != "clkA" || m.Clocks[0].Period != 10 {
		t.Errorf("abbreviated create_clock failed: %+v", m.Clocks[0])
	}
	if m.Exceptions[0].SetupHold != MaxOnly {
		t.Errorf("-se did not resolve to -setup")
	}
	// -w uniquely abbreviates -waveform.
	m2 := parseOK(t, `create_clock -name c -period 10 -w {0 5} [get_ports clk1]`)
	if m2.Clocks[0].Waveform[1] != 5 {
		t.Errorf("-w abbreviation failed: %v", m2.Clocks[0].Waveform)
	}
}

func TestAmbiguousAbbreviation(t *testing.T) {
	// set_clock_latency has -min and -max: "-m" is ambiguous.
	parseErr(t, `
create_clock -name clkA -period 10 [get_ports clk1]
set_clock_latency -m 1 [get_clocks clkA]
`)
}

func TestWriteEveryConstraintKind(t *testing.T) {
	d := gen.PaperCircuit()
	src := `
create_clock -name clkA -period 10 [get_ports clk1]
create_clock -name vclk -period 5
create_generated_clock -name g2 -source [get_ports clk1] -divide_by 2 -invert [get_pins mux1/Z]
set_clock_groups -logically_exclusive -group [get_clocks clkA] -group [get_clocks g2]
set_clock_latency -source -max 0.4 [get_clocks clkA]
set_clock_uncertainty -hold 0.05 [get_clocks clkA]
set_clock_transition -min 0.02 [get_clocks clkA]
set_clock_sense -stop_propagation -clock [get_clocks g2] [get_pins mux1/Z]
set_propagated_clock [get_clocks clkA]
set_case_analysis 1 [get_ports sel2]
set_disable_timing -from I0 -to Z [get_cells mux1]
set_input_delay 1.5 -clock vclk -clock_fall -min [get_ports in1]
set_output_delay 2.5 -clock vclk -add_delay [get_ports out1]
set_input_transition -max 0.2 [get_ports in1]
set_load 4 [get_ports out1]
set_drive 1.2 [get_ports sel1]
set_driving_cell -lib_cell INV [get_ports sel2]
set_false_path -rise_from [get_clocks clkA] -fall_to [get_pins rX/D]
set_multicycle_path 3 -start -setup -from [get_clocks clkA]
set_max_delay 7 -through [get_pins and1/Z] -to [get_ports out1]
set_min_delay 0.1 -from [get_pins rB/CP]
`
	m1, _, err := Parse("all", src, d)
	if err != nil {
		t.Fatal(err)
	}
	text := Write(m1)
	m2, _, err := Parse("all2", text, d)
	if err != nil {
		t.Fatalf("written SDC does not re-parse: %v\n%s", err, text)
	}
	// Spot-check semantic fields survive the round trip.
	g2 := m2.ClockByName("g2")
	if g2 == nil || !g2.Invert || g2.DivideBy != 2 {
		t.Errorf("generated clock lost detail: %+v", g2)
	}
	if m2.ClockGroups[0].Kind != LogicallyExclusive {
		t.Errorf("clock group kind lost")
	}
	if !m2.ClockLatencies[0].Source || m2.ClockLatencies[0].Level != MaxOnly {
		t.Errorf("latency flags lost: %+v", m2.ClockLatencies[0])
	}
	if m2.ClockTransitions[0].Level != MinOnly {
		t.Errorf("transition level lost")
	}
	if m2.Disables[0].FromPin != "I0" || m2.Disables[0].ToPin != "Z" {
		t.Errorf("arc disable lost: %+v", m2.Disables[0])
	}
	in := m2.IODelays[0]
	if !in.ClockFall || in.Level != MinOnly || in.Clock != "vclk" {
		t.Errorf("input delay flags lost: %+v", in)
	}
	if m2.IODelays[1].Add != true {
		t.Errorf("add_delay lost")
	}
	var mcp *Exception
	for _, e := range m2.Exceptions {
		if e.Kind == MulticyclePath {
			mcp = e
		}
	}
	if mcp == nil || !mcp.Start || mcp.Multiplier != 3 || mcp.SetupHold != MaxOnly {
		t.Errorf("mcp flags lost: %+v", mcp)
	}
	for i := range m1.Exceptions {
		if m1.Exceptions[i].Key() != m2.Exceptions[i].Key() {
			t.Errorf("exception %d changed: %s vs %s", i, m1.Exceptions[i].Key(), m2.Exceptions[i].Key())
		}
	}
}

func TestGeneratedClockEdgesFlagAccepted(t *testing.T) {
	// -edges/-duty_cycle are accepted (values consumed) even though the
	// simplified waveform derivation ignores them.
	m := parseOK(t, `
create_clock -name clkA -period 10 [get_ports clk1]
create_generated_clock -name g -source [get_ports clk1] -edges {1 3 5} [get_pins mux1/Z]
`)
	if m.ClockByName("g") == nil {
		t.Fatal("generated clock lost")
	}
}

func TestVirtualClockNoSources(t *testing.T) {
	m := parseOK(t, `create_clock -name v -period 4 -waveform {1 3}`)
	c := m.Clocks[0]
	if !c.Virtual() || c.Waveform[0] != 1 || c.Waveform[1] != 3 {
		t.Errorf("virtual clock = %+v", c)
	}
	// Round trip keeps the waveform.
	m2, _, err := Parse("v2", Write(m), gen.PaperCircuit())
	if err != nil {
		t.Fatal(err)
	}
	if m2.Clocks[0].WaveformKey() != c.WaveformKey() {
		t.Error("waveform lost in round trip")
	}
}

func TestCommentFlag(t *testing.T) {
	m := parseOK(t, `
create_clock -name clkA -period 10 -comment "main clock" [get_ports clk1]
set_false_path -to [get_pins rX/D] -comment "cdc"
`)
	if m.Clocks[0].Comment != "main clock" {
		t.Errorf("clock comment = %q", m.Clocks[0].Comment)
	}
	if m.Exceptions[0].Comment != "cdc" {
		t.Errorf("exception comment = %q", m.Exceptions[0].Comment)
	}
	// Comments survive writing.
	text := Write(m)
	if !strings.Contains(text, "cdc") {
		t.Errorf("comment lost:\n%s", text)
	}
}

func TestMulticlockWaveformValidation(t *testing.T) {
	parseErr(t, `create_clock -name x -period 10 -waveform {0 5 7} [get_ports clk1]`)
	parseErr(t, `create_clock -name x -period 10 -waveform {0 12} [get_ports clk1]`)
	parseErr(t, `create_clock -name x -period 10 -waveform {-1 5} [get_ports clk1]`)
}

func TestCellInPointListExpands(t *testing.T) {
	m := parseOK(t, `set_false_path -through [get_cells and1]`)
	// A cell in a point list expands to its pins.
	pins := m.Exceptions[0].Throughs[0].Pins
	if len(pins) != 3 { // A, B, Z
		t.Errorf("cell expanded to %d pins, want 3: %v", len(pins), pins)
	}
}

func TestDecodeElemPreferenceOrder(t *testing.T) {
	d := gen.PaperCircuit()
	p := NewParser("t", d)
	if err := p.Eval(`create_clock -name in1 -period 5 [get_ports clk1]`); err != nil {
		t.Fatal(err)
	}
	// "in1" is both a port and (now) a clock: -from prefers the clock.
	if err := p.Eval(`set_false_path -from in1`); err != nil {
		t.Fatal(err)
	}
	e := p.Mode().Exceptions[0]
	if len(e.From.Clocks) != 1 || e.From.Clocks[0] != "in1" {
		t.Errorf("bare name preferred %v over the clock", e.From)
	}
}

func TestIgnoredCommandsDoNotLeakState(t *testing.T) {
	p := NewParser("t", gen.PaperCircuit())
	if err := p.Eval("set_units -time ns -capacitance pF"); err != nil {
		t.Fatal(err)
	}
	if len(p.Ignored) != 1 {
		t.Errorf("ignored = %v", p.Ignored)
	}
	m := p.Mode()
	if len(m.Clocks)+len(m.Exceptions)+len(m.Cases) != 0 {
		t.Error("ignored command mutated the mode")
	}
}

func TestMaxTimeBorrowCommand(t *testing.T) {
	m := parseOK(t, `
create_clock -name clkA -period 10 [get_ports clk1]
set_max_time_borrow 2.5 [get_clocks clkA]
set_max_time_borrow 1 [get_pins rX/D]
`)
	if len(m.MaxTimeBorrows) != 2 {
		t.Fatalf("borrows = %d", len(m.MaxTimeBorrows))
	}
	if m.MaxTimeBorrows[0].Clocks[0] != "clkA" || m.MaxTimeBorrows[0].Value != 2.5 {
		t.Errorf("borrow[0] = %+v", m.MaxTimeBorrows[0])
	}
	if m.MaxTimeBorrows[1].Objects[0].Name != "rX/D" {
		t.Errorf("borrow[1] = %+v", m.MaxTimeBorrows[1])
	}
	parseErr(t, `set_max_time_borrow -1 [get_pins rX/D]`)
	parseErr(t, `set_max_time_borrow 1`)
	// Round trip.
	m2, _, err := Parse("rt", Write(m), gen.PaperCircuit())
	if err != nil {
		t.Fatal(err)
	}
	if len(m2.MaxTimeBorrows) != 2 {
		t.Errorf("borrows lost in round trip:\n%s", Write(m))
	}
}

// TestPrefixedElemMustExist: Tcl word concatenation can glue text onto a
// query result, so a "kind:name" element must name an existing object of
// its kind. Accepting [get_clocks {*ca**c* }]0 as clock scan_clk0 made
// Write emit [get_clocks {scan_clk0}], which does not re-parse.
func TestPrefixedElemMustExist(t *testing.T) {
	const clock = "create_clock -name scan_clk -period 2 [get_ports clk1]\n"
	for _, src := range []string{
		clock + "set_clock_groups -physically_exclusive -group {} -group [get_clocks {*ca**c* }]0",
		clock + "set_false_path -to [get_ports out1]x",
		clock + "set_false_path -through [get_pins inv1/Z]Z",
		clock + "set_false_path -through [get_cells inv1]0",
		clock + "set_false_path -from [get_clocks scan_clk]_x",
	} {
		parseErr(t, src)
	}
	m := parseOK(t, clock+"set_clock_groups -physically_exclusive -group {} -group [get_clocks {*ca**c* }]\n"+
		"set_false_path -from [get_clocks scan_clk] -through [get_cells inv1] -to [get_ports out1]")
	if got := Write(parseOK(t, Write(m))); got != Write(m) {
		t.Fatalf("Write∘Parse is not a fixpoint:\n%s\n---\n%s", Write(m), got)
	}
}
