package sta

import (
	"context"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"modemerge/internal/gen"
	"modemerge/internal/graph"
	"modemerge/internal/library"
	"modemerge/internal/netlist"
	"modemerge/internal/relation"
	"modemerge/internal/sdc"
)

func endpointResult(t *testing.T, ctx *Context, name string) EndpointResult {
	t.Helper()
	for _, r := range ctx.AnalyzeEndpoints(context.Background()) {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("endpoint %s not found", name)
	return EndpointResult{}
}

func TestClockLatencyShiftsSlack(t *testing.T) {
	base := ctxFor(t, `create_clock -name clkA -period 10 [get_ports clk1]`)
	// Symmetric latency on launch and capture of the same clock cancels
	// for reg-to-reg paths.
	lat := ctxFor(t, `
create_clock -name clkA -period 10 [get_ports clk1]
set_clock_latency 1.0 [get_clocks clkA]
`)
	b := endpointResult(t, base, "rX/D")
	l := endpointResult(t, lat, "rX/D")
	if math.Abs(b.SetupSlack-l.SetupSlack) > 1e-9 {
		t.Errorf("symmetric latency changed reg-to-reg slack: %g vs %g", b.SetupSlack, l.SetupSlack)
	}
	// Min/max latency split introduces pessimism: launch late, capture
	// early.
	skewed := ctxFor(t, `
create_clock -name clkA -period 10 [get_ports clk1]
set_clock_latency -min 0.5 [get_clocks clkA]
set_clock_latency -max 1.5 [get_clocks clkA]
`)
	s := endpointResult(t, skewed, "rX/D")
	if diff := b.SetupSlack - s.SetupSlack; math.Abs(diff-1.0) > 1e-9 {
		t.Errorf("latency window pessimism = %g, want 1.0", diff)
	}
}

func TestSourceLatencyAppliesToBothPaths(t *testing.T) {
	base := ctxFor(t, `create_clock -name clkA -period 10 [get_ports clk1]`)
	src := ctxFor(t, `
create_clock -name clkA -period 10 [get_ports clk1]
set_clock_latency -source 2.0 [get_clocks clkA]
`)
	b := endpointResult(t, base, "rX/D")
	s := endpointResult(t, src, "rX/D")
	if math.Abs(b.SetupSlack-s.SetupSlack) > 1e-9 {
		t.Errorf("symmetric source latency changed slack: %g vs %g", b.SetupSlack, s.SetupSlack)
	}
}

func TestPropagatedClockUsesNetworkArrival(t *testing.T) {
	ideal := ctxFor(t, `create_clock -name clkA -period 10 [get_ports clk1]`)
	prop := ctxFor(t, `
create_clock -name clkA -period 10 [get_ports clk1]
set_propagated_clock [get_clocks clkA]
`)
	// rZ is clocked through the mux (real network delay); rA..rY are
	// directly on the port. Reg-to-reg launch/capture skew between a
	// direct-port launch (rC) and mux-delayed capture (rZ) should give
	// propagated mode MORE slack at rZ/D (capture arrives later).
	i := endpointResult(t, ideal, "rZ/D")
	p := endpointResult(t, prop, "rZ/D")
	if p.SetupSlack <= i.SetupSlack {
		t.Errorf("propagated capture skew should relax rZ/D setup: ideal %g, propagated %g",
			i.SetupSlack, p.SetupSlack)
	}
	// Hold moves the other way at rZ/D (late capture hurts hold).
	if p.HoldSlack >= i.HoldSlack {
		t.Errorf("propagated capture skew should tighten rZ/D hold: ideal %g, propagated %g",
			i.HoldSlack, p.HoldSlack)
	}
}

func TestHoldMulticycle(t *testing.T) {
	base := ctxFor(t, `create_clock -name clkA -period 10 [get_ports clk1]`)
	// MCP 2 setup without hold adjustment pushes the hold edge out by one
	// period (the PT default), making hold fail; adding -hold 1 restores
	// the zero-cycle hold check.
	mcpOnly := ctxFor(t, `
create_clock -name clkA -period 10 [get_ports clk1]
set_multicycle_path 2 -setup -to [get_pins rX/D]
`)
	mcpHold := ctxFor(t, `
create_clock -name clkA -period 10 [get_ports clk1]
set_multicycle_path 2 -setup -to [get_pins rX/D]
set_multicycle_path 1 -hold -to [get_pins rX/D]
`)
	b := endpointResult(t, base, "rX/D")
	m := endpointResult(t, mcpOnly, "rX/D")
	h := endpointResult(t, mcpHold, "rX/D")
	if diff := b.HoldSlack - m.HoldSlack; math.Abs(diff-10) > 1e-9 {
		t.Errorf("setup-only MCP moved hold by %g, want 10 (one period)", diff)
	}
	if math.Abs(h.HoldSlack-b.HoldSlack) > 1e-9 {
		t.Errorf("-hold 1 should restore the base hold edge: %g vs %g", h.HoldSlack, b.HoldSlack)
	}
	if math.Abs(h.SetupSlack-m.SetupSlack) > 1e-9 {
		t.Error("-hold must not change the setup edge")
	}
}

func TestMinDelayHoldOverride(t *testing.T) {
	ctx := ctxFor(t, `
create_clock -name clkA -period 10 [get_ports clk1]
set_min_delay 5 -to [get_pins rX/D]
`)
	r := endpointResult(t, ctx, "rX/D")
	if !r.HasHold {
		t.Fatal("no hold check")
	}
	// Path min delay well under 5 → negative hold slack.
	if r.HoldSlack >= 0 {
		t.Errorf("min_delay 5 hold slack = %g, want negative", r.HoldSlack)
	}
}

func TestGeneratedClockSlack(t *testing.T) {
	// rZ captured by a /2 clock: effective capture period doubles.
	base := ctxFor(t, `create_clock -name clkA -period 10 [get_ports clk1]`)
	gdiv := ctxFor(t, `
create_clock -name clkA -period 10 [get_ports clk1]
create_generated_clock -name gdiv -source [get_ports clk1] -divide_by 2 [get_pins mux1/Z]
`)
	b := endpointResult(t, base, "rZ/D")
	g := endpointResult(t, gdiv, "rZ/D")
	if !g.HasSetup || g.SetupCapture != "gdiv" {
		t.Fatalf("rZ/D not captured by gdiv: %+v", g)
	}
	// Launch clkA (p10) → capture gdiv (p20, edges at 0,10,20…): the
	// worst separation stays 10, so slack matches the base case.
	if math.Abs(g.SetupSlack-b.SetupSlack) > 1e-9 {
		t.Errorf("divided capture slack %g, want %g", g.SetupSlack, b.SetupSlack)
	}
	if g.CapturePeriod != 20 {
		t.Errorf("capture period = %g, want 20", g.CapturePeriod)
	}
}

func TestFallingEdgeCaptureThroughInverter(t *testing.T) {
	// Drive rZ's clock through the mux normally, but add an inversion by
	// reusing set 4's case to select… instead, test polarity handling
	// with a negative-unate path: clkA through inv? The paper circuit has
	// no inverter in the clock path, so check polarity bookkeeping via
	// clock tags on a non-unate select instead.
	ctx := ctxFor(t, `
create_clock -name clkA -period 10 [get_ports clk1]
create_clock -name clkB -period 10 [get_ports clk2]
`)
	id := nodeID(t, ctx, "rZ/CP")
	for _, tag := range ctx.ClocksAt(id) {
		if tag.Inv {
			t.Errorf("clock %d arrives inverted through the mux data leg", tag.Clock)
		}
	}
}

func TestInterClockUncertaintyApplies(t *testing.T) {
	base := ctxFor(t, `
create_clock -name clkA -period 2 [get_ports clk1]
create_clock -name clkB -period 2 -add [get_ports clk1]
`)
	unc := ctxFor(t, `
create_clock -name clkA -period 2 [get_ports clk1]
create_clock -name clkB -period 2 -add [get_ports clk1]
set_clock_uncertainty -from [get_clocks clkA] -to [get_clocks clkB] 0.7
`)
	// Worst setup across endpoints must tighten by exactly 0.7 if the
	// worst pair is clkA→clkB; both clocks are identical so cross pairs
	// behave like same-clock pairs.
	wb, _, _ := Summarize(base.AnalyzeEndpoints(context.Background()))
	wu, _, _ := Summarize(unc.AnalyzeEndpoints(context.Background()))
	if diff := wb - wu; math.Abs(diff-0.7) > 1e-9 {
		t.Errorf("inter-clock uncertainty tightened worst slack by %g, want 0.7", diff)
	}
}

func TestDelayCalcLoadsMatter(t *testing.T) {
	base := ctxFor(t, `
create_clock -name clkA -period 10 [get_ports clk1]
set_output_delay 1 -clock clkA [get_ports out1]
`)
	loaded := ctxFor(t, `
create_clock -name clkA -period 10 [get_ports clk1]
set_output_delay 1 -clock clkA [get_ports out1]
set_load 50 [get_ports out1]
`)
	b := endpointResult(t, base, "out1")
	l := endpointResult(t, loaded, "out1")
	if l.SetupSlack >= b.SetupSlack {
		t.Errorf("set_load must slow the output path: %g vs %g", l.SetupSlack, b.SetupSlack)
	}
}

func TestDelayCalcInputTransitionMatters(t *testing.T) {
	base := ctxFor(t, `
create_clock -name clkA -period 10 [get_ports clk1]
set_input_delay 1 -clock clkA [get_ports in1]
`)
	slow := ctxFor(t, `
create_clock -name clkA -period 10 [get_ports clk1]
set_input_delay 1 -clock clkA [get_ports in1]
set_input_transition 2.0 [get_ports in1]
`)
	b := endpointResult(t, base, "rA/D")
	s := endpointResult(t, slow, "rA/D")
	if s.SetupSlack >= b.SetupSlack {
		t.Errorf("slow input transition must slow the path: %g vs %g", s.SetupSlack, b.SetupSlack)
	}
}

func TestRiseFallCorners(t *testing.T) {
	ctx := ctxFor(t, `create_clock -name clkA -period 10 [get_ports clk1]`)
	// Every delay arc: fall ≥ rise, max ≥ min, all positive.
	g := ctx.G
	for ai := int32(0); ai < int32(g.NumArcs()); ai++ {
		a := g.Arc(ai)
		if a.Kind != graph.CellArc && a.Kind != graph.LaunchArc {
			continue
		}
		d := ctx.delays[ai]
		if d.riseMin <= 0 || d.riseMax < d.riseMin || d.fallMax < d.fallMin || d.fallMin < d.riseMin {
			t.Fatalf("arc %s->%s corners inconsistent: %+v",
				g.Node(a.From).Name, g.Node(a.To).Name, d)
		}
	}
}

func TestSlewMonotoneAlongPath(t *testing.T) {
	ctx := ctxFor(t, `create_clock -name clkA -period 10 [get_ports clk1]`)
	for _, name := range []string{"in1", "bufin/Z", "rA/Q", "inv1/Z"} {
		id := nodeID(t, ctx, name)
		if ctx.SlewAt(id) <= 0 {
			t.Errorf("slew at %s = %g, want positive", name, ctx.SlewAt(id))
		}
	}
}

func TestSeparationProperties(t *testing.T) {
	ctx := ctxFor(t, `create_clock -name c -period 10 [get_ports clk1]`)
	mk := func(period float64) *ClockInfo {
		return &ClockInfo{Def: &sdc.Clock{Name: "x", Period: period, Waveform: []float64{0, period / 2}}}
	}
	f := func(pl8, pc8 uint8) bool {
		pl := float64(pl8%32) + 1
		pc := float64(pc8%32) + 1
		sep, ok := ctx.separation(mk(pl), 0, mk(pc), 0)
		if !ok {
			return false
		}
		// Separation is positive and never exceeds the capture period.
		return sep > 0 && sep <= pc+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSeparationIrrational(t *testing.T) {
	ctx := ctxFor(t, `create_clock -name c -period 10 [get_ports clk1]`)
	a := &ClockInfo{Def: &sdc.Clock{Name: "a", Period: 10, Waveform: []float64{0, 5}}}
	b := &ClockInfo{Def: &sdc.Clock{Name: "b", Period: 10 * math.Pi / 3, Waveform: []float64{0, 5 * math.Pi / 3}}}
	sep, ok := ctx.separation(a, 0, b, 0)
	if !ok || sep <= 0 {
		t.Errorf("fallback separation = %g ok=%v", sep, ok)
	}
}

func TestShiftedWaveformCapture(t *testing.T) {
	base := ctxFor(t, `
create_clock -name clkA -period 10 [get_ports clk1]
set_output_delay 0 -clock clkA [get_ports out1]
`)
	// Virtual capture clock with edges at 3, 13, …: data launched at 0 is
	// captured at the NEXT edge (t=3), so the separation shrinks from 10
	// to 3.
	shifted := ctxFor(t, `
create_clock -name clkA -period 10 [get_ports clk1]
create_clock -name vcap -period 10 -waveform {3 8}
set_output_delay 0 -clock vcap [get_ports out1]
`)
	b := endpointResult(t, base, "out1")
	s := endpointResult(t, shifted, "out1")
	if diff := s.SetupSlack - b.SetupSlack; math.Abs(diff-(-7)) > 1e-9 {
		t.Errorf("shifted capture changed slack by %g, want -7 (separation 3 instead of 10)", diff)
	}
}

func TestLiveBackwardReach(t *testing.T) {
	// A constant endpoint has no live fan-in at all (rB/Q=0 forces
	// and1/Z=0 and inv2/Z=1, so rY/D itself is constant).
	ctx := ctxFor(t, `
create_clock -name clkA -period 10 [get_ports clk1]
set_case_analysis 0 rB/Q
`)
	end := nodeID(t, ctx, "rY/D")
	live := ctx.liveBackwardReach(end)
	for i := range live {
		if live[i] {
			t.Fatalf("constant endpoint has live node %s", ctx.G.Node(graph.NodeID(i)).Name)
		}
	}
	// A disabled arc blocks one leg without constants: rB cannot reach
	// rY/D, rA still can.
	ctx2 := ctxFor(t, `
create_clock -name clkA -period 10 [get_ports clk1]
set_disable_timing -from B -to Z [get_cells and1]
`)
	live2 := ctx2.liveBackwardReach(nodeID(t, ctx2, "rY/D"))
	if live2[nodeID(t, ctx2, "rB/Q")] {
		t.Error("rB/Q must not be live through the disabled and1 B arc")
	}
	if !live2[nodeID(t, ctx2, "rA/Q")] {
		t.Error("rA/Q must stay live to rY/D")
	}
	if !live2[nodeID(t, ctx2, "rY/D")] {
		t.Error("endpoint itself must be live")
	}
}

func TestThroughRelationsRespectConstants(t *testing.T) {
	// With rB/Q cased to 0, and1/Z is constant: paths rA→rY die, so the
	// through-relations between rA/CP and rY/D must be empty.
	ctx := ctxFor(t, `
create_clock -name clkA -period 10 [get_ports clk1]
set_case_analysis 0 rB/Q
`)
	rels := ctx.ThroughRelations(ctx.G.Cone(nodeID(t, ctx, "rA/CP"), nodeID(t, ctx, "rY/D")))
	for _, tr := range rels {
		if len(tr.States) > 0 {
			t.Errorf("node %s reports states on a dead cone", tr.Name)
		}
	}
}

func TestMaxLaunchEdgesCap(t *testing.T) {
	d := gen.PaperCircuit()
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	mode, _, err := sdc.Parse("m", `
create_clock -name a -period 10 [get_ports clk1]
create_clock -name b -period 7 [get_ports clk2]
`, d)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(g, mode, Options{MaxLaunchEdges: 2})
	if err != nil {
		t.Fatal(err)
	}
	// LCM(10,7)=70 > 2*10 → fallback to min period.
	a, _ := ctx.ClockByName("a")
	b, _ := ctx.ClockByName("b")
	sep, ok := ctx.separation(ctx.Clock(a), 0, ctx.Clock(b), 0)
	if !ok || math.Abs(sep-7) > 1e-9 {
		t.Errorf("capped separation = %g ok=%v, want fallback 7", sep, ok)
	}
}

func TestEndpointRelationsHoldSide(t *testing.T) {
	ctx := ctxFor(t, `
create_clock -name clkA -period 10 [get_ports clk1]
set_false_path -hold -to [get_pins rX/D]
`)
	rels := ctx.EndpointRelations(context.Background())
	setup := rels[RelName{Start: "*", End: "rX/D", Launch: "clkA", Capture: "clkA", Check: relation.Setup}]
	hold := rels[RelName{Start: "*", End: "rX/D", Launch: "clkA", Capture: "clkA", Check: relation.Hold}]
	if !setup.Equal(relation.NewSet(relation.StateValid)) {
		t.Errorf("setup side = %v, want V (-hold FP must not apply)", setup)
	}
	if !hold.Equal(relation.NewSet(relation.StateFalse)) {
		t.Errorf("hold side = %v, want FP", hold)
	}
	// And the slack view agrees.
	r := endpointResult(t, ctx, "rX/D")
	if !r.HasSetup || r.HasHold {
		t.Errorf("checks = setup %v hold %v, want setup only", r.HasSetup, r.HasHold)
	}
}

func TestDisabledEndpointNotChecked(t *testing.T) {
	ctx := ctxFor(t, `
create_clock -name clkA -period 10 [get_ports clk1]
set_disable_timing [get_pins rX/D]
`)
	r := endpointResult(t, ctx, "rX/D")
	if r.HasSetup || r.HasHold {
		t.Errorf("disabled endpoint still checked: %+v", r)
	}
}

func TestCaseOnRegOutputKillsLaunch(t *testing.T) {
	// rA/Q=0 → inv1/Z=1 (non-controlling for and1), so only the rA leg
	// dies: rX/D (fed solely by rA via inv1) becomes constant and
	// unchecked, while rY/D stays checked through rB.
	ctx := ctxFor(t, `
create_clock -name clkA -period 10 [get_ports clk1]
set_case_analysis 0 rA/Q
`)
	r := endpointResult(t, ctx, "rX/D")
	if r.HasSetup {
		t.Errorf("rX/D checked despite constant source: %+v", r)
	}
	r = endpointResult(t, ctx, "rY/D")
	if !r.HasSetup {
		t.Error("rY/D must still be checked via rB")
	}
}

func TestContextOnGeneratedDesign(t *testing.T) {
	g, err := gen.Generate(gen.DesignSpec{Name: "s", Seed: 11, Domains: 2, BlocksPerDomain: 2,
		Stages: 3, RegsPerStage: 4, CloudDepth: 2, CrossPaths: 2})
	if err != nil {
		t.Fatal(err)
	}
	tg, err := graph.Build(g.Design)
	if err != nil {
		t.Fatal(err)
	}
	for _, ms := range g.Modes(gen.FamilySpec{Groups: 1, ModesPerGroup: []int{3}, BasePeriod: 2}) {
		mode, _, err := sdc.Parse(ms.Name, ms.Text, g.Design)
		if err != nil {
			t.Fatal(err)
		}
		ctx, err := NewContext(tg, mode, Options{})
		if err != nil {
			t.Fatalf("mode %s: %v", ms.Name, err)
		}
		results := ctx.AnalyzeEndpoints(context.Background())
		_, _, checked := Summarize(results)
		if checked == 0 {
			t.Errorf("mode %s checks no endpoints", ms.Name)
		}
	}
}

func TestTraceWorstArrival(t *testing.T) {
	ctx := ctxFor(t, `create_clock -name clkA -period 10 [get_ports clk1]`)
	end := nodeID(t, ctx, "rY/D")
	p, ok := ctx.TraceWorstArrival(end)
	if !ok {
		t.Fatal("no path traced")
	}
	if p.Launch != "clkA" {
		t.Errorf("launch = %q", p.Launch)
	}
	if len(p.Steps) < 4 {
		t.Fatalf("path too short: %v", p.Steps)
	}
	// The path runs launch→capture: first step is a clock pin, last is
	// the endpoint.
	if p.Steps[len(p.Steps)-1].Node != "rY/D" {
		t.Errorf("path does not end at rY/D: %s", p.Steps[len(p.Steps)-1].Node)
	}
	first := p.Steps[0].Node
	if first != "rA/CP" && first != "rB/CP" {
		t.Errorf("path does not start at a launch clock pin: %s", first)
	}
	// Arrivals are nondecreasing and increments sum to the final arrival.
	sum := p.Steps[0].Arrival
	for i := 1; i < len(p.Steps); i++ {
		if p.Steps[i].Arrival+1e-9 < p.Steps[i-1].Arrival {
			t.Errorf("arrival decreases at %s", p.Steps[i].Node)
		}
		sum += p.Steps[i].Incr
	}
	final := p.Steps[len(p.Steps)-1].Arrival
	if math.Abs(sum-final) > 1e-6 {
		t.Errorf("increments sum to %g, arrival is %g", sum, final)
	}
	if p.String() == "" {
		t.Error("empty rendering")
	}

	// The cone-restricted lattice must trace every endpoint exactly as
	// one full propagation does.
	for _, fx := range relationFixtures(t) {
		if fx.name != "designE" {
			continue
		}
		ctx, err := NewContext(fx.g, fx.modes[0], Options{})
		if err != nil {
			t.Fatal(err)
		}
		tags, release := ctx.propagate(propOpts{})
		defer release()
		traced := 0
		for _, end := range fx.g.Endpoints() {
			got, gotOK := ctx.TraceWorstArrival(end)
			want, wantOK := ctx.traceWorst(tags, end)
			if gotOK != wantOK || !reflect.DeepEqual(got, want) {
				t.Errorf("%s: cone trace differs from the full-propagation trace", fx.g.Node(end).Name)
			}
			if gotOK {
				traced++
			}
		}
		if traced == 0 {
			t.Error("designE: no endpoint traced")
		}
	}
}

func TestTraceNoPath(t *testing.T) {
	ctx := ctxFor(t, `create_clock -name clkA -period 10 [get_ports clk1]`)
	// rA/D has no clocked arrival (no input delay on in1).
	end := nodeID(t, ctx, "rA/D")
	if _, ok := ctx.TraceWorstArrival(end); ok {
		t.Error("traced a path where none is clocked")
	}
}

// latchCircuit builds reg → cloud → latch for borrowing tests.
func latchCtx(t *testing.T, sdcSrc string) *Context {
	t.Helper()
	b := netlist.NewBuilder("latchy", library.Default())
	b.Port("clk", netlist.In)
	b.Port("din", netlist.In)
	b.Inst("DFF", "r1", map[string]string{"CP": "clk", "D": "din", "Q": "q1"})
	b.Inst("INV", "u1", map[string]string{"A": "q1", "Z": "n1"})
	b.Inst("LATCH", "l1", map[string]string{"G": "clk", "D": "n1", "Q": "lq"})
	b.Inst("DFF", "r2", map[string]string{"CP": "clk", "D": "lq", "Q": "q2"})
	d := b.MustBuild()
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	mode, _, err := sdc.Parse("m", sdcSrc, d)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(g, mode, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func TestLatchTimeBorrowing(t *testing.T) {
	base := latchCtx(t, `create_clock -name c -period 10 [get_ports clk]`)
	var latch, flop EndpointResult
	for _, r := range base.AnalyzeEndpoints(context.Background()) {
		switch r.Name {
		case "l1/D":
			latch = r
		case "r2/D":
			flop = r
		}
	}
	if !latch.HasSetup || !flop.HasSetup {
		t.Fatalf("checks missing: latch=%v flop=%v", latch.HasSetup, flop.HasSetup)
	}
	// The latch endpoint borrows the transparency window (half period =
	// 5) relative to an equivalent flop check; margins differ slightly
	// between cells, so compare with tolerance.
	gain := latch.SetupSlack - flop.SetupSlack
	if gain < 4.5 || gain > 5.5 {
		t.Errorf("latch borrow gain = %g, want ≈5 (half period)", gain)
	}
}

func TestMaxTimeBorrowLimits(t *testing.T) {
	limited := latchCtx(t, `
create_clock -name c -period 10 [get_ports clk]
set_max_time_borrow 1.5 [get_pins l1/D]
`)
	zero := latchCtx(t, `
create_clock -name c -period 10 [get_ports clk]
set_max_time_borrow 0 [get_clocks c]
`)
	get := func(ctx *Context) float64 {
		for _, r := range ctx.AnalyzeEndpoints(context.Background()) {
			if r.Name == "l1/D" {
				return r.SetupSlack
			}
		}
		t.Fatal("l1/D missing")
		return 0
	}
	base := latchCtx(t, `create_clock -name c -period 10 [get_ports clk]`)
	full := get(base)
	lim := get(limited)
	none := get(zero)
	if math.Abs((full-lim)-(5-1.5)) > 1e-9 {
		t.Errorf("borrow limit 1.5: slack delta %g, want 3.5", full-lim)
	}
	if math.Abs(full-none-5) > 1e-9 {
		t.Errorf("borrow 0: slack delta %g, want 5 (no borrowing)", full-none)
	}
}

func TestBorrowErrors(t *testing.T) {
	b := netlist.NewBuilder("e", library.Default())
	b.Port("clk", netlist.In)
	b.Inst("LATCH", "l", map[string]string{"G": "clk", "D": "clk", "Q": "q"})
	d := b.MustBuild()
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	mode := &sdc.Mode{Name: "bad", MaxTimeBorrows: []*sdc.MaxTimeBorrow{{
		Value: 1, Clocks: []string{"ghost"},
	}}}
	if _, err := NewContext(g, mode, Options{}); err == nil {
		t.Error("unknown borrow clock accepted")
	}
}
