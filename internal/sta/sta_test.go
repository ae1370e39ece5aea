package sta

import (
	"context"
	"math"
	"testing"

	"modemerge/internal/gen"
	"modemerge/internal/graph"
	"modemerge/internal/library"
	"modemerge/internal/relation"
	"modemerge/internal/sdc"
)

// ctxFor builds an analysis context for the paper circuit with the given
// SDC source.
func ctxFor(t *testing.T, src string) *Context {
	t.Helper()
	d := gen.PaperCircuit()
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	mode, _, err := sdc.Parse("test", src, d)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(g, mode, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func nodeID(t *testing.T, ctx *Context, name string) graph.NodeID {
	t.Helper()
	id, ok := ctx.G.NodeByName(name)
	if !ok {
		t.Fatalf("no node %q", name)
	}
	return id
}

func clockNamesAt(ctx *Context, t *testing.T, node string) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	for _, n := range ctx.ClockNamesAt(nodeID(t, ctx, node)) {
		out[n] = true
	}
	return out
}

func TestConstantPropagation(t *testing.T) {
	ctx := ctxFor(t, `
create_clock -name clkA -period 10 [get_ports clk1]
set_case_analysis 0 [get_ports sel1]
set_case_analysis 1 [get_ports sel2]
`)
	// xor1: 0^1 = 1 → mux select = 1.
	if v, _ := ctx.ConstValueAt("xor1/Z"); v != library.L1 {
		t.Errorf("xor1/Z = %v, want 1", v)
	}
	if v, _ := ctx.ConstValueAt("mux1/S"); v != library.L1 {
		t.Errorf("mux1/S = %v, want 1", v)
	}
	// mux output: I1 = clk2 = X → not constant.
	if v, known := ctx.ConstValueAt("mux1/Z"); known {
		t.Errorf("mux1/Z = %v, want unknown", v)
	}
	// Unrelated data stays unknown.
	if _, known := ctx.ConstValueAt("rA/Q"); known {
		t.Error("rA/Q must be unknown")
	}
}

func TestConstantThroughGates(t *testing.T) {
	ctx := ctxFor(t, `
create_clock -name clkA -period 10 [get_ports clk1]
set_case_analysis 0 rB/Q
`)
	// and1: n1 & 0 = 0.
	if v, _ := ctx.ConstValueAt("and1/Z"); v != library.L0 {
		t.Errorf("and1/Z = %v, want 0", v)
	}
	// inv2: !0 = 1.
	if v, _ := ctx.ConstValueAt("inv2/Z"); v != library.L1 {
		t.Errorf("inv2/Z = %v, want 1", v)
	}
}

func TestClockPropagationNoCases(t *testing.T) {
	// Constraint Set 1 situation: one clock on clk1 reaches all six
	// registers (rZ through the mux, whose select toggles).
	ctx := ctxFor(t, `create_clock -name clkA -period 10 [get_ports clk1]`)
	for _, cp := range []string{"rA/CP", "rB/CP", "rC/CP", "rX/CP", "rY/CP", "rZ/CP"} {
		if !clockNamesAt(ctx, t, cp)["clkA"] {
			t.Errorf("clkA missing at %s", cp)
		}
	}
	// The clock does not leak into the data network.
	if len(clockNamesAt(ctx, t, "inv1/Z")) != 0 {
		t.Error("clock leaked into data network at inv1/Z")
	}
}

func TestClockBlockedByCaseOnMuxSelect(t *testing.T) {
	// Set 3: sel cases make the mux select constant 1 → clkA (on I0)
	// cannot pass; clkB (on I1 via clk2) can.
	ctx := ctxFor(t, `
create_clock -name clkA -period 10 [get_ports clk1]
create_clock -name clkB -period 20 [get_ports clk2]
set_case_analysis 0 [get_ports sel1]
set_case_analysis 1 [get_ports sel2]
`)
	at := clockNamesAt(ctx, t, "rZ/CP")
	if at["clkA"] {
		t.Error("clkA must be blocked at the mux (select=1)")
	}
	if !at["clkB"] {
		t.Error("clkB must reach rZ/CP")
	}
	// Other registers still see clkA.
	if !clockNamesAt(ctx, t, "rA/CP")["clkA"] {
		t.Error("clkA missing at rA/CP")
	}
}

func TestStopPropagation(t *testing.T) {
	ctx := ctxFor(t, `
create_clock -name clkA -period 10 [get_ports clk1]
set_clock_sense -stop_propagation -clock [get_clocks clkA] [get_pins mux1/Z]
`)
	if clockNamesAt(ctx, t, "rZ/CP")["clkA"] {
		t.Error("clkA must not pass the stop_propagation point")
	}
	if clockNamesAt(ctx, t, "mux1/Z")["clkA"] {
		t.Error("clkA must be absent at the blocking node itself")
	}
	if !clockNamesAt(ctx, t, "rA/CP")["clkA"] {
		t.Error("clkA must still reach rA/CP")
	}
}

func TestGeneratedClock(t *testing.T) {
	ctx := ctxFor(t, `
create_clock -name clkA -period 10 [get_ports clk1]
create_generated_clock -name gdiv -source [get_ports clk1] -divide_by 2 [get_pins mux1/Z]
`)
	at := clockNamesAt(ctx, t, "rZ/CP")
	if !at["gdiv"] {
		t.Error("generated clock must reach rZ/CP")
	}
	if at["clkA"] {
		t.Error("master must be replaced by the generated clock downstream")
	}
	id, _ := ctx.ClockByName("gdiv")
	if got := ctx.Clock(id).Period(); got != 20 {
		t.Errorf("gdiv period = %g, want 20", got)
	}
}

func TestDisableTimingBlocksClock(t *testing.T) {
	ctx := ctxFor(t, `
create_clock -name clkA -period 10 [get_ports clk1]
set_disable_timing [get_pins mux1/I0]
`)
	if clockNamesAt(ctx, t, "rZ/CP")["clkA"] {
		t.Error("clkA must be blocked by disable_timing on mux1/I0")
	}
}

// Table 1 of the paper: Constraint Set 1 relations at the endpoints.
func TestTable1Relations(t *testing.T) {
	ctx := ctxFor(t, `
create_clock -name clkA -period 10 [get_ports clk1]
set_multicycle_path 2 -through [get_pins inv1/Z]
set_false_path -through [get_pins and1/Z]
`)
	rels := ctx.EndpointRelations(context.Background())
	get := func(end string) relation.Set {
		return rels[RelKey{Start: "*", End: end, Launch: "clkA", Capture: "clkA", Check: relation.Setup}]
	}
	if s := get("rX/D"); !s.Equal(relation.NewSet(relation.MCP(2))) {
		t.Errorf("rX/D = %v, want MCP(2)", s)
	}
	if s := get("rY/D"); !s.Equal(relation.NewSet(relation.StateFalse)) {
		t.Errorf("rY/D = %v, want FP (false path overrides MCP)", s)
	}
	if s := get("rZ/D"); !s.Equal(relation.NewSet(relation.StateValid)) {
		t.Errorf("rZ/D = %v, want V", s)
	}
}

// Constraint Set 6 pass 1 (Table 2): per-endpoint comparison inputs.
func TestSet6ModeARelations(t *testing.T) {
	ctx := ctxFor(t, `
create_clock -p 10 -name clkA [get_ports clk1]
set_false_path -to rX/D
set_false_path -to rY/D
set_false_path -through inv3/Z
`)
	rels := ctx.EndpointRelations(context.Background())
	get := func(end string) relation.Set {
		return rels[RelKey{Start: "*", End: end, Launch: "clkA", Capture: "clkA", Check: relation.Setup}]
	}
	if s := get("rX/D"); !s.Equal(relation.NewSet(relation.StateFalse)) {
		t.Errorf("mode A rX/D = %v, want FP", s)
	}
	if s := get("rY/D"); !s.Equal(relation.NewSet(relation.StateFalse)) {
		t.Errorf("mode A rY/D = %v, want FP", s)
	}
	// rZ/D: the inv3 path is false, the and2/A path valid → {FP, V}.
	if s := get("rZ/D"); !s.Equal(relation.NewSet(relation.StateFalse, relation.StateValid)) {
		t.Errorf("mode A rZ/D = %v, want FP+V", s)
	}
}

func TestSet6ModeBRelations(t *testing.T) {
	ctx := ctxFor(t, `
create_clock -p 10 -name clkA [get_ports clk1]
set_false_path -from rA/CP
set_false_path -to rZ/D
`)
	rels := ctx.EndpointRelations(context.Background())
	get := func(end string) relation.Set {
		return rels[RelKey{Start: "*", End: end, Launch: "clkA", Capture: "clkA", Check: relation.Setup}]
	}
	if s := get("rX/D"); !s.Equal(relation.NewSet(relation.StateFalse)) {
		t.Errorf("mode B rX/D = %v, want FP (only rA feeds rX)", s)
	}
	if s := get("rY/D"); !s.Equal(relation.NewSet(relation.StateFalse, relation.StateValid)) {
		t.Errorf("mode B rY/D = %v, want FP+V (rA false, rB valid)", s)
	}
	if s := get("rZ/D"); !s.Equal(relation.NewSet(relation.StateFalse)) {
		t.Errorf("mode B rZ/D = %v, want FP", s)
	}
}

// Pass-2 granularity (Table 3): startpoint-resolved relations at rY/D.
func TestStartEndRelations(t *testing.T) {
	ctx := ctxFor(t, `
create_clock -p 10 -name clkA [get_ports clk1]
set_false_path -from rA/CP
set_false_path -to rZ/D
`)
	end := nodeID(t, ctx, "rY/D")
	rels := ctx.StartEndRelations(end)
	get := func(start string) relation.Set {
		return rels[RelKey{Start: start, End: "rY/D", Launch: "clkA", Capture: "clkA", Check: relation.Setup}]
	}
	if s := get("rA/CP"); !s.Equal(relation.NewSet(relation.StateFalse)) {
		t.Errorf("rA/CP→rY/D = %v, want FP", s)
	}
	if s := get("rB/CP"); !s.Equal(relation.NewSet(relation.StateValid)) {
		t.Errorf("rB/CP→rY/D = %v, want V", s)
	}
}

// Pass-3 granularity (Table 4): through-point relations between rC/CP and
// rZ/D under mode A of Constraint Set 6.
func TestThroughRelations(t *testing.T) {
	ctx := ctxFor(t, `
create_clock -p 10 -name clkA [get_ports clk1]
set_false_path -through inv3/Z
`)
	start := nodeID(t, ctx, "rC/CP")
	end := nodeID(t, ctx, "rZ/D")
	rels := ctx.ThroughRelations(start, end)
	byName := map[string]ThroughRel{}
	for _, r := range rels {
		byName[r.Name] = r
	}
	key := RelKey{Start: "rC/CP", End: "rZ/D", Launch: "clkA", Capture: "clkA", Check: relation.Setup}
	// Paths through and2/A (direct leg): valid.
	if r, ok := byName["and2/A"]; !ok {
		t.Fatal("and2/A missing from through relations")
	} else if s := r.States[key]; !s.Equal(relation.NewSet(relation.StateValid)) {
		t.Errorf("through and2/A = %v, want V", s)
	}
	// Paths through inv3/A: all false.
	if r, ok := byName["inv3/A"]; !ok {
		t.Fatal("inv3/A missing from through relations")
	} else if s := r.States[key]; !s.Equal(relation.NewSet(relation.StateFalse)) {
		t.Errorf("through inv3/A = %v, want FP", s)
	}
	// Reconvergence point and2/Z sees both path classes → {FP, V}.
	if r, ok := byName["and2/Z"]; !ok {
		t.Fatal("and2/Z missing")
	} else if s := r.States[key]; s.Len() != 2 {
		t.Errorf("through and2/Z = %v, want two states", s)
	}
}

func TestSlackBasics(t *testing.T) {
	ctx := ctxFor(t, `create_clock -name clkA -period 10 [get_ports clk1]`)
	results := ctx.AnalyzeEndpoints(context.Background())
	byName := map[string]EndpointResult{}
	for _, r := range results {
		byName[r.Name] = r
	}
	rx := byName["rX/D"]
	if !rx.HasSetup {
		t.Fatal("rX/D has no setup check")
	}
	// Period 10, path delay well under 1 → slack close to 10.
	if rx.SetupSlack < 8 || rx.SetupSlack > 10 {
		t.Errorf("rX/D setup slack = %g, want ≈9.x", rx.SetupSlack)
	}
	if rx.SetupLaunch != "clkA" || rx.SetupCapture != "clkA" || rx.CapturePeriod != 10 {
		t.Errorf("rX/D clocks = %s→%s period %g", rx.SetupLaunch, rx.SetupCapture, rx.CapturePeriod)
	}
	if !rx.HasHold {
		t.Error("rX/D has no hold check")
	}
	// Hold slack = min path delay − hold margin > 0 here.
	if rx.HoldSlack <= 0 {
		t.Errorf("rX/D hold slack = %g, want positive", rx.HoldSlack)
	}
}

func TestSlackScalesWithPeriod(t *testing.T) {
	slackAt := func(period string) float64 {
		ctx := ctxFor(t, `create_clock -name clkA -period `+period+` [get_ports clk1]`)
		for _, r := range ctx.AnalyzeEndpoints(context.Background()) {
			if r.Name == "rX/D" {
				return r.SetupSlack
			}
		}
		t.Fatal("rX/D missing")
		return 0
	}
	s10, s2 := slackAt("10"), slackAt("2")
	if math.Abs((s10-s2)-8) > 1e-6 {
		t.Errorf("slack difference %g, want 8 (period delta)", s10-s2)
	}
}

func TestMulticycleRelaxesSetup(t *testing.T) {
	base := ctxFor(t, `create_clock -name clkA -period 10 [get_ports clk1]`)
	mcp := ctxFor(t, `
create_clock -name clkA -period 10 [get_ports clk1]
set_multicycle_path 2 -setup -to [get_pins rX/D]
`)
	get := func(ctx *Context) float64 {
		for _, r := range ctx.AnalyzeEndpoints(context.Background()) {
			if r.Name == "rX/D" {
				return r.SetupSlack
			}
		}
		return math.NaN()
	}
	if diff := get(mcp) - get(base); math.Abs(diff-10) > 1e-6 {
		t.Errorf("MCP(2) changed slack by %g, want +10 (one period)", diff)
	}
}

func TestFalsePathRemovesCheck(t *testing.T) {
	ctx := ctxFor(t, `
create_clock -name clkA -period 10 [get_ports clk1]
set_false_path -to [get_pins rX/D]
`)
	for _, r := range ctx.AnalyzeEndpoints(context.Background()) {
		if r.Name == "rX/D" && (r.HasSetup || r.HasHold) {
			t.Errorf("rX/D still checked under false path: %+v", r)
		}
	}
}

func TestMaxDelayOverride(t *testing.T) {
	ctx := ctxFor(t, `
create_clock -name clkA -period 10 [get_ports clk1]
set_max_delay 0.1 -to [get_pins rX/D]
`)
	for _, r := range ctx.AnalyzeEndpoints(context.Background()) {
		if r.Name == "rX/D" {
			if !r.HasSetup {
				t.Fatal("no setup check")
			}
			// Path delay > 0.1 → negative slack.
			if r.SetupSlack >= 0 {
				t.Errorf("max_delay 0.1 slack = %g, want negative", r.SetupSlack)
			}
		}
	}
}

func TestClockUncertaintyTightensSetup(t *testing.T) {
	base := ctxFor(t, `create_clock -name clkA -period 10 [get_ports clk1]`)
	unc := ctxFor(t, `
create_clock -name clkA -period 10 [get_ports clk1]
set_clock_uncertainty -setup 0.5 [get_clocks clkA]
`)
	get := func(ctx *Context) float64 {
		for _, r := range ctx.AnalyzeEndpoints(context.Background()) {
			if r.Name == "rX/D" {
				return r.SetupSlack
			}
		}
		return math.NaN()
	}
	if diff := get(base) - get(unc); math.Abs(diff-0.5) > 1e-9 {
		t.Errorf("uncertainty changed slack by %g, want 0.5", diff)
	}
}

func TestIODelayPaths(t *testing.T) {
	ctx := ctxFor(t, `
create_clock -name clkA -period 10 [get_ports clk1]
set_input_delay 2.0 -clock clkA [get_ports in1]
set_output_delay 3.0 -clock clkA [get_ports out1]
`)
	results := ctx.AnalyzeEndpoints(context.Background())
	var rAD, out1 EndpointResult
	for _, r := range results {
		switch r.Name {
		case "rA/D":
			rAD = r
		case "out1":
			out1 = r
		}
	}
	if !rAD.HasSetup {
		t.Fatal("input-delay path to rA/D not checked")
	}
	// slack ≈ 10 − 2 − small delays.
	if rAD.SetupSlack < 7 || rAD.SetupSlack > 8.2 {
		t.Errorf("rA/D setup slack = %g, want ≈7.9", rAD.SetupSlack)
	}
	if !out1.HasSetup {
		t.Fatal("output port not checked")
	}
	if out1.SetupSlack < 5 || out1.SetupSlack > 7.5 {
		t.Errorf("out1 setup slack = %g, want ≈6.x (10−3−delays)", out1.SetupSlack)
	}
}

func TestExclusiveClockGroups(t *testing.T) {
	// Both clocks on clk1 (Set 5 style): without groups, cross-clock
	// paths are timed; with physically_exclusive they are not.
	base := ctxFor(t, `
create_clock -name ClkA -period 2 [get_ports clk1]
create_clock -name ClkB -period 1 -add [get_ports clk1]
`)
	excl := ctxFor(t, `
create_clock -name ClkA -period 2 [get_ports clk1]
create_clock -name ClkB -period 1 -add [get_ports clk1]
set_clock_groups -physically_exclusive -group [get_clocks ClkA] -group [get_clocks ClkB]
`)
	worstBase, _, _ := Summarize(base.AnalyzeEndpoints(context.Background()))
	worstExcl, _, _ := Summarize(excl.AnalyzeEndpoints(context.Background()))
	// Cross-clock ClkA→ClkB with period 1 vs 2 gives a tighter relation
	// than same-clock; exclusivity must relax the worst slack.
	if worstExcl < worstBase {
		t.Errorf("exclusive groups made things worse: %g vs %g", worstExcl, worstBase)
	}
	// Relations must show FP for cross pairs under exclusivity.
	rels := excl.EndpointRelations(context.Background())
	s := rels[RelKey{Start: "*", End: "rX/D", Launch: "ClkA", Capture: "ClkB", Check: relation.Setup}]
	if !s.Equal(relation.NewSet(relation.StateFalse)) {
		t.Errorf("exclusive cross relation = %v, want FP", s)
	}
}

func TestDifferentPeriodsSeparation(t *testing.T) {
	ctx := ctxFor(t, `create_clock -name c -period 10 [get_ports clk1]`)
	c10 := &ClockInfo{Def: &sdc.Clock{Name: "a", Period: 10, Waveform: []float64{0, 5}}}
	c4 := &ClockInfo{Def: &sdc.Clock{Name: "b", Period: 4, Waveform: []float64{0, 2}}}
	// Same clock: separation = period.
	sep, ok := ctx.separation(c10, 0, c10, 0)
	if !ok || math.Abs(sep-10) > 1e-9 {
		t.Errorf("same-clock sep = %g, want 10", sep)
	}
	// 10 vs 4: edges at 0,4,8,12,16,20 vs launches 0,10. Launch 10 →
	// next capture 12: sep 2.
	sep, ok = ctx.separation(c10, 0, c4, 0)
	if !ok || math.Abs(sep-2) > 1e-9 {
		t.Errorf("10→4 sep = %g, want 2", sep)
	}
	// 4 → 10: launches 0,4,8,12,16; captures 0,10,20. 8→10: sep 2.
	sep, ok = ctx.separation(c4, 0, c10, 0)
	if !ok || math.Abs(sep-2) > 1e-9 {
		t.Errorf("4→10 sep = %g, want 2", sep)
	}
}

func TestExtraClocksRefinement(t *testing.T) {
	// Merged-style context with both clocks and no cases; individual
	// modes never let clkA through the mux (select always 1).
	merged := ctxFor(t, `
create_clock -name clkA -period 10 [get_ports clk1]
create_clock -name clkB -period 20 [get_ports clk2]
`)
	// Justification: clkA allowed everywhere except past the mux.
	muxZ := nodeID(t, merged, "mux1/Z")
	rzCP := nodeID(t, merged, "rZ/CP")
	blockedAt := map[graph.NodeID]bool{muxZ: true, rzCP: true}
	frontiers := merged.ExtraClocks(func(n graph.NodeID, clock string) bool {
		if clock != "clkA" {
			return true
		}
		return !blockedAt[n]
	})
	if len(frontiers) != 1 || frontiers[0].Clock != "clkA" {
		t.Fatalf("frontiers = %+v", frontiers)
	}
	// The frontier must be exactly the first blocked node (mux1/Z), not
	// downstream nodes.
	if len(frontiers[0].Nodes) != 1 || frontiers[0].Nodes[0] != muxZ {
		names := []string{}
		for _, n := range frontiers[0].Nodes {
			names = append(names, merged.G.Node(n).Name)
		}
		t.Errorf("frontier nodes = %v, want [mux1/Z]", names)
	}
}

func TestExtraLaunchFlowsRefinement(t *testing.T) {
	// Constraint Set 5 situation: merged has ClkA and ClkB on clk1, no
	// case on rB/Q. Individual justification: ClkB-launched data never
	// appears at rB/Q, and never crosses into and1/Z (the AND output is
	// constant in the only mode that has ClkB).
	merged := ctxFor(t, `
create_clock -name ClkA -period 2 [get_ports clk1]
create_clock -name ClkB -period 1 -add [get_ports clk1]
`)
	rbQ := nodeID(t, merged, "rB/Q")
	and1Z := nodeID(t, merged, "and1/Z")
	dead := map[graph.NodeID]bool{rbQ: true, and1Z: true}
	seedJustify := func(n graph.NodeID, clock string) bool {
		if clock != "ClkB" {
			return true
		}
		return !dead[n]
	}
	arcJustify := func(ai int32, clock string) bool {
		if clock != "ClkB" {
			return true
		}
		return !dead[merged.G.Arc(ai).To]
	}
	frontiers := merged.ExtraLaunchFlows(seedJustify, arcJustify)
	if len(frontiers) != 1 || frontiers[0].Clock != "ClkB" {
		t.Fatalf("frontiers = %+v", frontiers)
	}
	f := frontiers[0]
	names := map[string]bool{}
	for _, n := range f.Nodes {
		names[merged.G.Node(n).Name] = true
	}
	// Frontier: rB/Q (unjustified seed) and and1/Z (every attempted
	// in-flow blocked) — the paper's CSTR6 pin list.
	if !names["rB/Q"] || !names["and1/Z"] {
		t.Errorf("frontier nodes = %v (arcs %v), want rB/Q and and1/Z", names, f.Arcs)
	}
	if names["inv2/Z"] || names["rY/D"] {
		t.Errorf("frontier leaked downstream: %v", names)
	}
	if len(f.Arcs) != 0 {
		t.Errorf("expected pure node blocks, got arcs %v", f.Arcs)
	}
}

func TestExtraLaunchFlowsArcGranularity(t *testing.T) {
	// A mux-like situation: the flow into one leg of and1 is dead (the
	// arc and1/B→and1/Z), but and1/Z itself legitimately carries the
	// clock via and1/A. The frontier must be the individual hop.
	merged := ctxFor(t, `
create_clock -name ClkA -period 2 [get_ports clk1]
create_clock -name ClkB -period 1 -add [get_ports clk1]
`)
	and1B := nodeID(t, merged, "and1/B")
	and1Z := nodeID(t, merged, "and1/Z")
	seedJustify := func(graph.NodeID, string) bool { return true }
	arcJustify := func(ai int32, clock string) bool {
		if clock != "ClkB" {
			return true
		}
		a := merged.G.Arc(ai)
		return !(a.From == and1B && a.To == and1Z)
	}
	frontiers := merged.ExtraLaunchFlows(seedJustify, arcJustify)
	if len(frontiers) != 1 {
		t.Fatalf("frontiers = %+v", frontiers)
	}
	f := frontiers[0]
	// and1/Z still receives ClkB via and1/A, and and1/B has a justified
	// escape? No: and1/B's only out-arc is the blocked one, so the
	// from-node collapse applies.
	names := map[string]bool{}
	for _, n := range f.Nodes {
		names[merged.G.Node(n).Name] = true
	}
	if !names["and1/B"] || len(f.Arcs) != 0 {
		t.Errorf("expected node block at and1/B; nodes=%v arcs=%v", names, f.Arcs)
	}
}

func TestAnalysisParallelMatchesSerial(t *testing.T) {
	src := `
create_clock -name clkA -period 10 [get_ports clk1]
set_input_delay 1 -clock clkA [get_ports in1]
set_output_delay 1 -clock clkA [get_ports out1]
set_multicycle_path 2 -through [get_pins inv1/Z]
`
	serial := ctxFor(t, src)
	serial.Opt.Workers = 1
	parallel := ctxFor(t, src)
	parallel.Opt.Workers = 8
	rs, rp := serial.AnalyzeEndpoints(context.Background()), parallel.AnalyzeEndpoints(context.Background())
	if len(rs) != len(rp) {
		t.Fatalf("result counts differ: %d vs %d", len(rs), len(rp))
	}
	for i := range rs {
		if rs[i] != rp[i] {
			t.Errorf("endpoint %s differs: %+v vs %+v", rs[i].Name, rs[i], rp[i])
		}
	}
}

func TestWarningsForUnknownExceptionObjects(t *testing.T) {
	// A -from clock that does not exist in this mode must warn, not
	// fail — exactly what uniquified merged exceptions rely on.
	d := gen.PaperCircuit()
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	mode, _, err := sdc.Parse("m", `create_clock -name clkA -period 10 [get_ports clk1]`, d)
	if err != nil {
		t.Fatal(err)
	}
	// Inject an exception referencing a foreign clock.
	mode.Exceptions = append(mode.Exceptions, &sdc.Exception{
		Kind: sdc.FalsePath,
		From: &sdc.PointList{Clocks: []string{"ghost"}},
		To:   &sdc.PointList{},
	})
	ctx, err := NewContext(g, mode, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ctx.Warnings) == 0 {
		t.Error("expected a warning for the unknown -from clock")
	}
	// The exception must be inert: rX/D still valid.
	rels := ctx.EndpointRelations(context.Background())
	s := rels[RelKey{Start: "*", End: "rX/D", Launch: "clkA", Capture: "clkA", Check: relation.Setup}]
	if !s.Equal(relation.NewSet(relation.StateValid)) {
		t.Errorf("rX/D = %v, want V", s)
	}
}
