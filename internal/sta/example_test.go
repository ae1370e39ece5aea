package sta_test

import (
	"context"
	"fmt"
	"log"

	"modemerge/internal/gen"
	"modemerge/internal/graph"
	"modemerge/internal/sdc"
	"modemerge/internal/sta"
)

// ExampleContext_AnalyzeEndpoints runs STA on the paper's example circuit
// and reports its most critical endpoint.
func ExampleContext_AnalyzeEndpoints() {
	design := gen.PaperCircuit()
	g, err := graph.Build(design)
	if err != nil {
		log.Fatal(err)
	}
	mode, _, err := sdc.Parse("func", `
create_clock -name clkA -period 2 [get_ports clk1]
set_clock_uncertainty 0.1 [get_clocks clkA]
`, design)
	if err != nil {
		log.Fatal(err)
	}
	ctx, err := sta.NewContext(g, mode, sta.Options{Workers: 1})
	if err != nil {
		log.Fatal(err)
	}
	results := ctx.AnalyzeEndpoints(context.Background())
	sta.SortBySetupSlack(results)
	worst := results[0]
	fmt.Printf("worst endpoint %s (%s -> %s)\n", worst.Name, worst.SetupLaunch, worst.SetupCapture)
	fmt.Printf("positive slack: %v\n", worst.SetupSlack > 0)
	// Output:
	// worst endpoint rY/D (clkA -> clkA)
	// positive slack: true
}

// ExampleContext_EndpointRelations computes the paper's Table 1.
func ExampleContext_EndpointRelations() {
	design := gen.PaperCircuit()
	g, _ := graph.Build(design)
	mode, _, err := sdc.Parse("set1", `
create_clock -name clkA -period 10 [get_ports clk1]
set_multicycle_path 2 -through [get_pins inv1/Z]
set_false_path -through [get_pins and1/Z]
`, design)
	if err != nil {
		log.Fatal(err)
	}
	ctx, err := sta.NewContext(g, mode, sta.Options{})
	if err != nil {
		log.Fatal(err)
	}
	rels := ctx.EndpointRelations(context.Background())
	for _, end := range []string{"rX/D", "rY/D", "rZ/D"} {
		key := sta.RelName{Start: "*", End: end, Launch: "clkA", Capture: "clkA"}
		fmt.Printf("%s: %s\n", end, rels[key])
	}
	// Output:
	// rX/D: MCP(2)
	// rY/D: FP
	// rZ/D: V
}
