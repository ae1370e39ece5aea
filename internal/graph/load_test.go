package graph

import (
	"context"
	"errors"
	"strings"
	"testing"
)

const loadVerilog = `
module top (clk, din, dout);
  input clk, din;
  output dout;
  wire q;
  DFF r1 (.CP(clk), .D(din), .Q(q));
  BUF b1 (.A(q), .Z(dout));
endmodule
`

// TestLoad covers the one design loader: a good netlist builds, each
// failing step keeps its error prefix, and a canceled ctx stops early.
func TestLoad(t *testing.T) {
	g, _, err := Load(context.Background(), Source{Verilog: loadVerilog})
	if err != nil {
		t.Fatal(err)
	}
	if g.Design.Name != "top" || len(g.Endpoints()) == 0 {
		t.Fatalf("loaded design %q with %d endpoints", g.Design.Name, len(g.Endpoints()))
	}

	for _, tc := range []struct {
		name, verilog, lib, prefix string
	}{
		{"library", loadVerilog, "not a library", "library: "},
		{"verilog", "module", "", "verilog: "},
	} {
		if _, _, err := Load(context.Background(), Source{Verilog: tc.verilog, Library: tc.lib}); err == nil || !strings.HasPrefix(err.Error(), tc.prefix) {
			t.Errorf("%s: error %v, want prefix %q", tc.name, err, tc.prefix)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := Load(ctx, Source{Verilog: loadVerilog}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled load: error %v, want context.Canceled", err)
	}
}
