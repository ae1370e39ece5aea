package fabric

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"modemerge/internal/core"
	"modemerge/internal/graph"
	"modemerge/internal/incr"
	"modemerge/internal/library"
	"modemerge/internal/sta"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens")

// twoCornerOptions are core options that set every field a Spec carries,
// over a two-corner scenario matrix.
func twoCornerOptions() core.Options {
	return core.Options{
		Tolerance:           0.07,
		MaxRefineIterations: 3,
		MergedName:          "fused",
		STA:                 sta.Options{Workers: 2},
		Corners: []library.Corner{
			{Name: "tc"},
			{Name: "wc", DelayScale: 1.2, EarlyScale: 0.9, LateScale: 1.1, MarginScale: 1.5,
				SDC: "set_input_transition 0.1 [get_ports din]"},
		},
	}
}

// TestSpecTwoCornerGolden pins the wire bytes of a two-corner clique
// spec built by NewSpec, and checks that Options maps them back. The
// golden was captured while the service and the fabric still declared
// corners and modes apart, so it shows the wire format did not move.
func TestSpecTwoCornerGolden(t *testing.T) {
	src := graph.Source{Verilog: quickVerilog, Top: "quick"}
	g, _, err := graph.Load(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	members := []Mode{{Name: "func", SDC: funcSDC}, {Name: "test", SDC: testSDC}}
	group, err := ParseModes(g.Design, members)
	if err != nil {
		t.Fatal(err)
	}
	opt := twoCornerOptions()
	spec := NewSpec(src, g, opt, members, group)
	got, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "spec_two_corners.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("spec JSON drifted from %s:\n got: %s\nwant: %s", path, got, want)
	}

	// The golden bytes decode to the spec, whose options map back to
	// the ones it was built from, and an executor accepts it: its
	// options reproduce the clique key.
	var back Spec
	if err := json.Unmarshal(want, &back); err != nil {
		t.Fatal(err)
	}
	if got := back.Options(0, nil); !reflect.DeepEqual(got, opt) {
		t.Fatalf("Options() = %+v, want %+v", got, opt)
	}
	exec := NewExecutor(incr.New(64).WithStore(incr.NewMemStore()), 1)
	if _, err := exec.Execute(context.Background(), &back); err != nil {
		t.Fatalf("executing the golden spec: %v", err)
	}
}
