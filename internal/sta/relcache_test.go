package sta

import (
	"math/rand"
	"reflect"
	"testing"

	"modemerge/internal/gen"
	"modemerge/internal/graph"
	"modemerge/internal/sdc"
)

// relationFixture is one design with a few parsed modes.
type relationFixture struct {
	name  string
	g     *graph.Graph
	modes []*sdc.Mode
}

// relationFixtures returns the paper circuit under the Table 1 and
// Constraint Set 6 modes and a two-clock mode (every register captures
// both clocks, defined out of name order, and out1 captures clkA on both
// edges), plus the Table 5 designs C and E at a small
// scale (fewer registers per stage) with the first modes of their
// families.
func relationFixtures(t *testing.T) []relationFixture {
	t.Helper()
	paper, err := graph.Build(gen.PaperCircuit())
	if err != nil {
		t.Fatal(err)
	}
	var paperModes []*sdc.Mode
	for i, src := range []string{`
create_clock -name clkA -period 10 [get_ports clk1]
set_multicycle_path 2 -through [get_pins inv1/Z]
set_false_path -through [get_pins and1/Z]
`, `
create_clock -p 10 -name clkA [get_ports clk1]
set_false_path -to rX/D
set_false_path -to rY/D
set_false_path -through inv3/Z
`, `
create_clock -p 10 -name clkA [get_ports clk1]
set_false_path -from rA/CP
set_false_path -to rZ/D
`, `
create_clock -name clkB -period 5 [get_ports clk1]
create_clock -name clkA -period 10 -add [get_ports clk1]
set_output_delay 1 -clock clkA [get_ports out1]
set_output_delay 1 -clock clkA -clock_fall -add_delay [get_ports out1]
set_output_delay 1 -clock clkB -add_delay [get_ports out1]
set_false_path -from [get_clocks clkA] -to [get_clocks clkB]
set_multicycle_path 2 -to [get_clocks clkB] -through [get_pins inv1/Z]
`} {
		mode, _, err := sdc.Parse("paper"+string(rune('a'+i)), src, paper.Design)
		if err != nil {
			t.Fatal(err)
		}
		paperModes = append(paperModes, mode)
	}
	out := []relationFixture{{name: "paper", g: paper, modes: paperModes}}

	generated := []struct {
		spec  gen.DesignSpec
		modes int
	}{
		{gen.DesignSpec{Name: "designC", Seed: 0xC, Domains: 2, BlocksPerDomain: 3,
			Stages: 4, RegsPerStage: 3, CloudDepth: 3, CrossPaths: 4}, 12},
		{gen.DesignSpec{Name: "designE", Seed: 0xE, Domains: 3, BlocksPerDomain: 3,
			Stages: 5, RegsPerStage: 3, CloudDepth: 4, CrossPaths: 6}, 5},
	}
	for _, d := range generated {
		gd, err := gen.Generate(d.spec)
		if err != nil {
			t.Fatal(err)
		}
		g, err := graph.Build(gd.Design)
		if err != nil {
			t.Fatal(err)
		}
		fx := relationFixture{name: d.spec.Name, g: g}
		family := gen.FamilySpec{Groups: 1, ModesPerGroup: []int{d.modes}, BasePeriod: 2}
		for _, m := range gd.Modes(family)[:3] {
			mode, _, err := sdc.Parse(m.Name, m.Text, g.Design)
			if err != nil {
				t.Fatalf("%s mode %s: %v", d.spec.Name, m.Name, err)
			}
			fx.modes = append(fx.modes, mode)
		}
		out = append(out, fx)
	}
	return out
}

// relPass is one of the two memoized endpoint granularities: pass 1
// (endpoint) and pass 2 (start–end).
type relPass struct {
	name         string
	startTracked bool
	fill         func(*Context, []graph.NodeID)
	query        func(*Context, graph.NodeID) []Rel
}

var relPasses = []relPass{
	{"pass1", false, (*Context).FillEndpointRelations, (*Context).EndpointRelationsAt},
	{"pass2", true, (*Context).FillStartEndRelations, (*Context).StartEndRelations},
}

// relationDiffs lists the endpoints whose rows in got differ from want.
// reflect.DeepEqual compares the rows in order and each Set's states in
// insertion order.
func relationDiffs(g *graph.Graph, ends []graph.NodeID, got func(i int) []Rel, want [][]Rel) []string {
	var out []string
	for i, end := range ends {
		if !reflect.DeepEqual(got(i), want[i]) {
			out = append(out, g.Node(end).Name)
		}
	}
	return out
}

// relationsFrom computes each endpoint's relation rows of the pass from a
// given tag lattice.
func relationsFrom(ctx *Context, tags []tagSet, ends []graph.NodeID, startTracked bool) [][]Rel {
	f := ctx.newRelFolder(startTracked)
	out := make([][]Rel, len(ends))
	for i, end := range ends {
		out[i] = f.fold(end, tags[end])
	}
	return out
}

// TestFillRelationsIdentity pins the batch fill's identity argument for
// both passes: one propagation over the union of fan-in cones yields, at
// every endpoint, the same relation map as one full propagation of the
// pass. It covers fills over every endpoint and over a random subset (the
// rest filled one at a time on query), and the DisableRelationMemo path
// (one endpoint's cone per query). The negative control computes every
// endpoint's map from a propagation restricted to one endpoint's cone;
// the comparison must reject it. Pass 2 also checks through relations
// against the uncached path.
func TestFillRelationsIdentity(t *testing.T) {
	for _, fx := range relationFixtures(t) {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			t.Parallel()
			ends := fx.g.Endpoints()
			newCtx := func(mode *sdc.Mode, opt Options) *Context {
				ctx, err := NewContext(fx.g, mode, opt)
				if err != nil {
					t.Fatal(err)
				}
				return ctx
			}
			for _, pass := range relPasses {
				t.Run(pass.name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(1))
					for _, mode := range fx.modes {
						slow := newCtx(mode, Options{DisableRelationMemo: true})
						tags, release := slow.propagate(propOpts{withStart: pass.startTracked})
						want := relationsFrom(slow, tags, ends, pass.startTracked)
						release()

						full := newCtx(mode, Options{})
						pass.fill(full, ends)
						if _, misses := full.RelCacheStats(); misses != int64(len(ends)) {
							t.Fatalf("%s: fill over all %d endpoints recorded %d misses",
								mode.Name, len(ends), misses)
						}
						var subset []graph.NodeID
						for _, end := range ends {
							if rng.Intn(3) == 0 {
								subset = append(subset, end)
							}
						}
						part := newCtx(mode, Options{})
						pass.fill(part, subset)

						for _, c := range []struct {
							what string
							ctx  *Context
						}{{"full fill", full}, {"subset fill", part}, {"uncached query", slow}} {
							got := func(i int) []Rel { return pass.query(c.ctx, ends[i]) }
							if diff := relationDiffs(fx.g, ends, got, want); len(diff) > 0 {
								t.Errorf("%s: %s differs from the full propagation at %v", mode.Name, c.what, diff)
							}
						}
						if hits, _ := full.RelCacheStats(); hits != int64(len(ends)) {
							t.Errorf("%s: %d of %d queries after the full fill were memo hits",
								mode.Name, hits, len(ends))
						}

						// Negative control: one cone's tags read at every
						// endpoint must not pass the comparison.
						tags, release = slow.propagate(propOpts{withStart: pass.startTracked,
							nodeFilter: fx.g.BackwardReach(ends[:1])})
						control := relationsFrom(slow, tags, ends, pass.startTracked)
						release()
						if diff := relationDiffs(fx.g, ends, func(i int) []Rel { return control[i] }, want); len(diff) == 0 {
							t.Errorf("%s: a fill restricted to one cone passed the comparison", mode.Name)
						}

						if pass.startTracked {
							checkThroughRelations(t, fx.g, ends, want, newCtx(mode, Options{}), slow)
						}
					}
				})
			}
		})
	}
}

// TestLaunchClockTableIdentity checks LaunchClockTable's rows, projected
// from the unfiltered launch-flow propagation, against launch-clock
// presence read from one full data propagation. Requests include an
// empty name, an unknown name and a repeated name. The negative control
// reads presence from one endpoint's cone only; it must not match.
func TestLaunchClockTableIdentity(t *testing.T) {
	presence := func(ctx *Context, tags []tagSet, names []string) [][]bool {
		rows := make([][]bool, len(names))
		for i, name := range names {
			cid, ok := ctx.ClockByName(name)
			if !ok || name == "" {
				continue
			}
			rows[i] = make([]bool, len(tags))
			for id, m := range tags {
				for _, te := range m.entries {
					if te.tag.launch == cid {
						rows[i][id] = true
					}
				}
			}
		}
		return rows
	}
	for _, fx := range relationFixtures(t) {
		for _, mode := range fx.modes {
			ctx, err := NewContext(fx.g, mode, Options{})
			if err != nil {
				t.Fatal(err)
			}
			clocks := ctx.AllClockNames()
			names := append([]string{"", "no_such_clock"}, clocks...)
			names = append(names, clocks[0])
			got := ctx.LaunchClockTable(names)

			tags, release := ctx.propagate(propOpts{})
			want := presence(ctx, tags, names)
			release()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: LaunchClockTable differs from the full propagation", fx.name, mode.Name)
			}
			if got[0] != nil || got[1] != nil {
				t.Errorf("%s/%s: empty or unknown clock name got a row", fx.name, mode.Name)
			}

			tags, release = ctx.propagate(propOpts{nodeFilter: fx.g.BackwardReach(fx.g.Endpoints()[:1])})
			control := presence(ctx, tags, names)
			release()
			if reflect.DeepEqual(control, want) {
				t.Errorf("%s/%s: presence from one cone passed the comparison", fx.name, mode.Name)
			}
		}
	}
}

// checkThroughRelations compares memoized and uncached through relations
// for one startpoint (the first in key order) of each endpoint with
// start–end relations in want, up to 60 pairs.
func checkThroughRelations(t *testing.T, g *graph.Graph, ends []graph.NodeID, want [][]Rel, memo, slow *Context) {
	t.Helper()
	pairs := 0
	for i, end := range ends {
		if len(want[i]) == 0 || pairs >= 60 {
			continue
		}
		start := want[i][0].Key.Start
		pairs++
		if got, exp := memo.ThroughRelations(start, end), slow.ThroughRelations(start, end); !reflect.DeepEqual(got, exp) {
			t.Errorf("%s %s→%s: through relations differ from the uncached path",
				memo.Mode.Name, g.Node(start).Name, g.Node(end).Name)
		}
	}
	if pairs == 0 {
		t.Errorf("%s: no start–end pair to check through relations on", memo.Mode.Name)
	}
}
