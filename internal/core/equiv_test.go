package core_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"modemerge/internal/core"
	"modemerge/internal/experiments"
	"modemerge/internal/gen"
	"modemerge/internal/graph"
	"modemerge/internal/sdc"
)

// TestEquivalenceGolden pins CheckEquivalence's result on the Table 5
// designs A–E: the matched/pessimistic/optimistic/unresolved counts of
// every merged clique, plus the sorted optimistic mismatch listing of
// design B merged with Inject.KeepSubsetExceptions (pass-1 and pass-2
// entries). Any change to a count or to the listed set fails; regenerate
// deliberately with -update (the flag is declared by obs_trace_test.go).
func TestEquivalenceGolden(t *testing.T) {
	var b strings.Builder
	check := func(label string, g *graph.Graph, modes []*sdc.Mode, opt core.Options, listMismatches bool) {
		cx := context.Background()
		merged, _, mb, err := core.MergeAll(cx, g, modes, opt)
		if err != nil {
			t.Fatalf("design %s: %v", label, err)
		}
		for ci, clique := range mb.Cliques() {
			if len(clique) < 2 {
				continue
			}
			members := make([]*sdc.Mode, len(clique))
			for i, mi := range clique {
				members[i] = modes[mi]
			}
			res, err := core.CheckEquivalence(cx, g, members, merged[ci], core.Options{})
			if err != nil {
				t.Fatalf("design %s clique %d: %v", label, ci, err)
			}
			fmt.Fprintf(&b, "%s clique %d: %s\n", label, ci, res)
			if listMismatches {
				sorted := append([]string(nil), res.OptimisticMismatches...)
				sort.Strings(sorted)
				for _, m := range sorted {
					fmt.Fprintf(&b, "  %s\n", m)
				}
			}
		}
	}
	for _, c := range experiments.PaperDesigns(1)[:5] {
		p, err := experiments.Prepare(c)
		if err != nil {
			t.Fatal(err)
		}
		check(c.Label, p.Graph, p.Modes, core.Options{}, false)
		if c.Label == "B" {
			check("B keep-subset-exceptions", p.Graph, p.Modes,
				core.Options{Inject: core.FaultInjection{KeepSubsetExceptions: true}}, true)
		}
	}

	path := filepath.Join("testdata", "equivalence_golden.txt")
	if flag.Lookup("update").Value.String() == "true" {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("equivalence results differ from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestCheckEquivalencePass3Optimism covers optimism that only pass 3 can
// see. In the paper circuit, rC/CP reaches rZ/D over two reconvergent
// branches: directly into and2/A and through inv3 into and2/B. A merged
// setup false path through and2/A kills the direct branch while the
// member times it. Passes 1 and 2 see {V, FP} on the merged side (the
// inv3 branch is still timed) and forward the group; pass 3 must list
// exactly the one killed through point.
func TestCheckEquivalencePass3Optimism(t *testing.T) {
	design := gen.PaperCircuit()
	g, err := graph.Build(design)
	if err != nil {
		t.Fatal(err)
	}
	const clocks = "create_clock -name clkA -period 10 [get_ports clk1]\n"
	member, _, err := sdc.Parse("M", clocks, design)
	if err != nil {
		t.Fatal(err)
	}
	merged, _, err := sdc.Parse("merged", clocks+"set_false_path -setup -through [get_pins and2/A]\n", design)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.CheckEquivalence(context.Background(), g, []*sdc.Mode{member}, merged, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent() {
		t.Fatalf("merged mode killing a member-timed branch passed as equivalent: %s", res)
	}
	want := "rC/CP -through and2/A-> rZ/D [clkA/clkA setup]: individual=V merged=FP"
	if len(res.OptimisticMismatches) != 1 || res.OptimisticMismatches[0] != want {
		t.Fatalf("optimistic mismatches = %q, want exactly [%q]", res.OptimisticMismatches, want)
	}
}
