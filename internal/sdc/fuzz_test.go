package sdc

import (
	"testing"

	"modemerge/internal/library"
	"modemerge/internal/netlist"
)

// fuzzVerilog is the quickstart design from examples/quickstart: two
// registers clocked through a functional/test clock mux. Small enough to
// parse fast, rich enough (ports, pins, clocks, hierarchy-free nets) that
// object queries in fuzzed SDC can actually resolve.
const fuzzVerilog = `
module quick (clk, tclk, tmode, din, dout);
  input clk, tclk, tmode, din;
  output dout;
  wire gck, q1, n1;
  MUX2 ckmux (.I0(clk), .I1(tclk), .S(tmode), .Z(gck));
  DFF r1 (.CP(gck), .D(din), .Q(q1));
  INV u1 (.A(q1), .Z(n1));
  DFF r2 (.CP(gck), .D(n1), .Q(dout));
endmodule
`

// FuzzParseSDC feeds arbitrary SDC text to the parser against a fixed
// design. Every input must produce a mode or an error within the
// interpreter budgets (no panic, no hang), and every accepted mode's
// written text must parse back to the same text.
func FuzzParseSDC(f *testing.F) {
	design, err := netlist.ParseVerilog(fuzzVerilog, library.Default(), "quick")
	if err != nil {
		f.Fatal(err)
	}
	seeds := []string{
		// examples/quickstart functional and test modes.
		"create_clock -name FCLK -period 2 [get_ports clk]\n" +
			"set_case_analysis 0 [get_ports tmode]\n" +
			"set_input_delay 0.4 -clock FCLK [get_ports din]\n" +
			"set_output_delay 0.4 -clock FCLK [get_ports dout]\n",
		"create_clock -name TCLK -period 10 [get_ports tclk]\n" +
			"set_case_analysis 1 [get_ports tmode]\n" +
			"set_input_delay 1.0 -clock TCLK [get_ports din]\n" +
			"set_output_delay 1.0 -clock TCLK [get_ports dout]\n" +
			"set_multicycle_path 2 -setup -from [get_clocks TCLK]\n",
		// Command-surface coverage: every family the parser registers.
		"create_clock -period 2 -waveform {0 1} [get_ports clk]\n" +
			"create_generated_clock -name G -source [get_ports clk] -divide_by 2 [get_pins r1/Q]\n" +
			"set_clock_groups -physically_exclusive -group {FCLK} -group {G}\n",
		"create_clock -name C -period 2 [get_ports clk]\n" +
			"set_clock_latency 0.3 [get_clocks C]\n" +
			"set_clock_latency -source -late 0.5 [get_clocks C]\n" +
			"set_clock_uncertainty 0.1 [get_clocks C]\n" +
			"set_clock_uncertainty -from [get_clocks C] -to [get_clocks C] 0.2\n" +
			"set_clock_transition 0.05 [get_clocks C]\n" +
			"set_clock_sense -stop_propagation [get_pins ckmux/Z]\n" +
			"set_propagated_clock [get_clocks C]\n",
		"set_false_path -from [get_pins r1/CP] -through [get_pins u1/Z] -to [get_pins r2/D]\n" +
			"set_max_delay 1.5 -from [get_ports din]\n" +
			"set_min_delay 0.1 -to [get_ports dout]\n",
		"set_disable_timing [get_pins ckmux/I1]\n" +
			"set_input_transition 0.08 [get_ports din]\n" +
			"set_load 0.02 [get_ports dout]\n" +
			"set_drive 1.2 [get_ports din]\n" +
			"set_driving_cell -lib_cell BUF [get_ports din]\n" +
			"set_max_time_borrow 0.5 [get_pins r1/D]\n",
		"foreach p {din tmode} {\n  set_input_transition 0.1 [get_ports $p]\n}\n",
		"set_units -time ns\nset sdc_version 2.1\n",
		// Free text and names Write must reproduce or the parser reject.
		"create_clock -name C -period 2 -comment {a [b] $c \"d\" \\e} [get_ports clk]\n" +
			"set_false_path -from [get_clocks C] -comment {x $y}\n",
		"create_clock -name {a b} -period 2 [get_ports clk]\n",
		// Malformed shapes that must error, not crash.
		"create_clock",
		"create_clock -period x [get_ports clk]",
		"set_false_path -setup -hold",
		"set_input_delay -clock",
		"set_case_analysis 2 [get_ports tmode]",
		"get_ports {*}",
		"set_multicycle_path -1 -from [get_clocks nosuch]",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			return
		}
		p := NewParser("fuzz", design)
		p.Interp().MaxSteps = 10000
		if p.Eval(src) != nil { // must not panic or hang
			return
		}
		// Canonical text is a fixpoint of Write∘Parse: clique keys and
		// artifacts are computed from it on one node and re-parsed on
		// another.
		want := Write(p.Mode())
		again, _, err := Parse("fuzz", want, design)
		if err != nil {
			t.Fatalf("written SDC does not re-parse: %v\nsource:\n%s\nwritten:\n%s", err, src, want)
		}
		if got := Write(again); got != want {
			t.Fatalf("Write∘Parse is not a fixpoint:\nsource:\n%s\nwritten:\n%s\nre-written:\n%s", src, want, got)
		}
	})
}
