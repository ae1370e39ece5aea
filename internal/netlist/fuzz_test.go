package netlist

import (
	"testing"

	"modemerge/internal/library"
)

// FuzzParseVerilog feeds arbitrary text to both Verilog front ends: the
// flattening ParseVerilog, and ParseVerilogHier followed by Flatten. The
// property is "no panic": every input must yield a design or an error.
func FuzzParseVerilog(f *testing.F) {
	for _, src := range []string{
		flatVerilog, hierVerilog, vectorVerilog, tieVerilog, posVerilog, concatVerilog,
		"module m (input a, output z); BUF b (.A(a), .Z(z)); endmodule",
		"module m (a, z); input a; output z; /* open comment",
		"module m (input [3:0] a); assign a[5] = a[0]; endmodule",
		"module m (); m self (); endmodule",
	} {
		f.Add(src)
	}
	lib := library.Default()
	f.Fuzz(func(t *testing.T, src string) {
		_, _ = ParseVerilog(src, lib, "")
		if h, err := ParseVerilogHier(src, lib, ""); err == nil {
			_, _ = h.Flatten()
		}
	})
}
