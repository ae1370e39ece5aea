// The paper's running example: the Figure 1 circuit with Constraint Sets
// 1–6, reproducing Tables 1–4.
//
//	go run ./examples/paper_circuit
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"modemerge/internal/core"
	"modemerge/internal/gen"
	"modemerge/internal/graph"
	"modemerge/internal/relation"
	"modemerge/internal/sdc"
	"modemerge/internal/sta"
)

var design = gen.PaperCircuit()

func ctxFor(name, src string) *sta.Context {
	g, err := graph.Build(design)
	if err != nil {
		log.Fatal(err)
	}
	mode, _, err := sdc.Parse(name, src, design)
	if err != nil {
		log.Fatal(err)
	}
	ctx, err := sta.NewContext(g, mode, sta.Options{})
	if err != nil {
		log.Fatal(err)
	}
	return ctx
}

func main() {
	table1()
	tables234()
	constraintSets345()
}

// table1 reproduces Table 1: timing relationships for Constraint Set 1.
func table1() {
	fmt.Println("=== Table 1: timing relationships for Constraint Set 1 ===")
	ctx := ctxFor("set1", `
create_clock -name clkA -period 10 [get_ports clk1]
set_multicycle_path 2 -through [get_pins inv1/Z]
set_false_path -through [get_pins and1/Z]
`)
	rels := ctx.EndpointRelations(context.Background())
	fmt.Printf("%-8s %-8s %-8s %-8s %s\n", "Start", "End", "Launch", "Capture", "State")
	for _, end := range []string{"rX/D", "rY/D", "rZ/D"} {
		key := sta.RelName{Start: "*", End: end, Launch: "clkA", Capture: "clkA", Check: relation.Setup}
		state := "-"
		if s, ok := rels[key]; ok {
			state = s.String()
		}
		fmt.Printf("%-8s %-8s %-8s %-8s %s\n", "*", end, "clkA", "clkA", state)
	}
	fmt.Println()
}

// tables234 runs the 3-pass comparison of §3.2 on Constraint Set 6,
// printing the per-pass comparison tables.
func tables234() {
	modeA := `
create_clock -p 10 -name clkA [get_ports clk1]
set_false_path -to rX/D
set_false_path -to rY/D
set_false_path -through inv3/Z
`
	modeB := `
create_clock -p 10 -name clkA [get_ports clk1]
set_false_path -from rA/CP
set_false_path -to rZ/D
`
	prelim := `create_clock -name clkA -period 10 -add [get_ports clk1]`

	ctxA, ctxB := ctxFor("A", modeA), ctxFor("B", modeB)
	ctxM := ctxFor("A+B", prelim)
	g := ctxM.G

	fmt.Println("=== Table 2: pass-1 comparison (Constraint Set 6) ===")
	relA, relB, relM := ctxA.EndpointRelations(context.Background()), ctxB.EndpointRelations(context.Background()), ctxM.EndpointRelations(context.Background())
	fmt.Printf("%-8s %-8s %-8s %-8s %-12s %-12s %s\n",
		"Start", "End", "Launch", "Capture", "Individual", "Merged", "Result")
	var ambiguousEnds []string
	for _, end := range []string{"rX/D", "rY/D", "rZ/D"} {
		key := sta.RelName{Start: "*", End: end, Launch: "clkA", Capture: "clkA", Check: relation.Setup}
		indiv := combined(relA[key], relB[key])
		merged := orFalse(relM[key])
		result := compare(relA[key], relB[key], merged)
		if result == relation.Ambiguous {
			ambiguousEnds = append(ambiguousEnds, end)
		}
		fmt.Printf("%-8s %-8s %-8s %-8s %-12s %-12s %s\n",
			"*", end, "clkA", "clkA", indiv, merged.String(), result)
	}
	fmt.Println()

	fmt.Println("=== Table 3: pass-2 comparison for ambiguous endpoints ===")
	fmt.Printf("%-8s %-8s %-8s %-8s %-12s %-12s %s\n",
		"Start", "End", "Launch", "Capture", "Individual", "Merged", "Result")
	type sePair struct{ start, end string }
	var ambiguousPairs []sePair
	for _, end := range ambiguousEnds {
		endID, _ := g.NodeByName(end)
		seA := ctxA.RelNames(ctxA.StartEndRelations(endID))
		seB := ctxB.RelNames(ctxB.StartEndRelations(endID))
		seM := ctxM.RelNames(ctxM.StartEndRelations(endID))
		starts := map[string]bool{}
		for k := range seM {
			starts[k.Start] = true
		}
		var order []string
		for s := range starts {
			order = append(order, s)
		}
		sort.Strings(order)
		for _, start := range order {
			key := sta.RelName{Start: start, End: end, Launch: "clkA", Capture: "clkA", Check: relation.Setup}
			merged := orFalse(seM[key])
			result := compare(seA[key], seB[key], merged)
			if result == relation.Ambiguous {
				ambiguousPairs = append(ambiguousPairs, sePair{start, end})
			}
			fmt.Printf("%-8s %-8s %-8s %-8s %-12s %-12s %s\n",
				start, end, "clkA", "clkA", combined(seA[key], seB[key]), merged.String(), result)
		}
	}
	fmt.Println()

	fmt.Println("=== Table 4: pass-3 comparison at reconvergence points ===")
	fmt.Printf("%-8s %-10s %-8s %-8s %-8s %-12s %-12s %s\n",
		"Start", "Through", "End", "Launch", "Capture", "Individual", "Merged", "Result")
	for _, p := range ambiguousPairs {
		startID, _ := g.NodeByName(p.start)
		endID, _ := g.NodeByName(p.end)
		cone := g.Cone(startID, endID)
		trA := indexThrough(ctxA, ctxA.ThroughRelations(cone))
		trB := indexThrough(ctxB, ctxB.ThroughRelations(cone))
		trM := indexThrough(ctxM, ctxM.ThroughRelations(cone))
		// The paper inspects the divergence branches feeding the
		// reconvergent gate.
		for _, through := range []string{"and2/A", "inv3/A"} {
			key := sta.RelName{Start: p.start, End: p.end, Launch: "clkA", Capture: "clkA", Check: relation.Setup}
			merged := orFalse(trM[through][key])
			result := compare(trA[through][key], trB[through][key], merged)
			fmt.Printf("%-8s %-10s %-8s %-8s %-8s %-12s %-12s %s\n",
				p.start, through, p.end, "clkA", "clkA",
				combined(trA[through][key], trB[through][key]), merged.String(), result)
		}
	}
	fmt.Println()

	fmt.Println("=== Constraint Set 6: the merged mode after refinement ===")
	mA, _, _ := sdc.Parse("A", modeA, design)
	mB, _, _ := sdc.Parse("B", modeB, design)
	merged, _, err := core.Merge(context.Background(), design, []*sdc.Mode{mA, mB}, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(sdc.Write(merged))
	fmt.Println()
}

// constraintSets345 demonstrates the preliminary-merging machinery on the
// paper's Constraint Sets 3, 4 and 5.
func constraintSets345() {
	run := func(title, srcA, srcB string) {
		fmt.Printf("=== %s ===\n", title)
		mA, _, err := sdc.Parse("A", srcA, design)
		if err != nil {
			log.Fatal(err)
		}
		mB, _, err := sdc.Parse("B", srcB, design)
		if err != nil {
			log.Fatal(err)
		}
		merged, _, err := core.Merge(context.Background(), design, []*sdc.Mode{mA, mB}, core.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(sdc.Write(merged))
		fmt.Println()
	}
	run("Constraint Set 3: clock refinement", `
create_clock -period 10 -name clkA [get_ports clk1]
create_clock -period 20 -name clkB [get_ports clk2]
set_case_analysis 0 sel1
set_case_analysis 1 sel2
`, `
create_clock -period 10 -name clkA [get_ports clk1]
create_clock -period 20 -name clkB [get_ports clk2]
set_case_analysis 1 sel1
set_case_analysis 0 sel2
`)
	run("Constraint Set 4: exception uniquification", `
create_clock -name clkA -period 10 [get_ports clk1]
set_case_analysis 0 [get_pins mux1/S]
set_multicycle_path 2 -from [get_pins rA/CP]
`, `
create_clock -name clkB -period 8 [get_ports clk1]
set_case_analysis 1 [get_pins mux1/S]
`)
	run("Constraint Set 5: data refinement", `
create_clock -name ClkA -period 2 [get_ports clk1]
set_input_delay 0.5 -clock ClkA [get_ports in1]
set_output_delay 0.5 -clock ClkA [get_ports out1]
`, `
create_clock -name ClkB -period 1 [get_ports clk1]
set_input_delay 0.5 -clock ClkB [get_ports in1]
set_output_delay 0.5 -clock ClkB [get_ports out1]
set_case_analysis 0 rB/Q
`)
}

func single(s relation.Set) (relation.State, bool) {
	if s.Empty() {
		return relation.StateFalse, true
	}
	return s.Single()
}

// combined renders the union of two modes' state sets, "-" when empty.
func combined(a, b relation.Set) string {
	var u relation.Set
	if a.Empty() {
		u.Add(relation.StateFalse)
	}
	u.AddSet(a)
	if b.Empty() {
		u.Add(relation.StateFalse)
	}
	u.AddSet(b)
	return u.String()
}

func orFalse(s relation.Set) relation.Set {
	if s.Empty() {
		return relation.NewSet(relation.StateFalse)
	}
	return s
}

// compare reproduces the paper's M/X/A verdicts from the two individual
// modes and the merged set.
func compare(a, b, merged relation.Set) relation.CompareResult {
	stA, okA := single(a)
	stB, okB := single(b)
	if !okA || !okB {
		return relation.Ambiguous
	}
	target := relation.NewSet(relation.MergeTarget([]relation.State{stA, stB}))
	return relation.Compare(target, merged)
}

// indexThrough maps through-relations by node name, keyed by name.
func indexThrough(ctx *sta.Context, rels []sta.ThroughRel) map[string]map[sta.RelName]relation.Set {
	out := map[string]map[sta.RelName]relation.Set{}
	for _, tr := range rels {
		out[tr.Name] = ctx.RelNames(tr.States)
	}
	return out
}
