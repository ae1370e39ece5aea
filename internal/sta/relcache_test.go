package sta

import (
	"math/rand"
	"reflect"
	"testing"

	"modemerge/internal/gen"
	"modemerge/internal/graph"
	"modemerge/internal/relation"
	"modemerge/internal/sdc"
)

// relationFixture is one design with a few parsed modes.
type relationFixture struct {
	name  string
	g     *graph.Graph
	modes []*sdc.Mode
}

// relationFixtures returns the paper circuit under the Table 1 and
// Constraint Set 6 modes, plus the Table 5 designs C and E at a small
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
	query        func(*Context, graph.NodeID) map[RelKey]relation.Set
}

var relPasses = []relPass{
	{"pass1", false, (*Context).FillEndpointRelations, (*Context).EndpointRelationsAt},
	{"pass2", true, (*Context).FillStartEndRelations, (*Context).StartEndRelations},
}

// relationDiffs lists the endpoints whose map in got differs from want.
// reflect.DeepEqual compares each Set's states in insertion order, the
// order every downstream String() reads.
func relationDiffs(g *graph.Graph, ends []graph.NodeID, got func(i int) map[RelKey]relation.Set, want []map[RelKey]relation.Set) []string {
	var out []string
	for i, end := range ends {
		if !reflect.DeepEqual(got(i), want[i]) {
			out = append(out, g.Node(end).Name)
		}
	}
	return out
}

// TestFillRelationsIdentity pins the batch fill's identity argument for
// both passes: one propagation over the union of fan-in cones yields, at
// every endpoint, the same relation map as the DisableRelationMemo
// reference (the full propagation for pass 1, the endpoint's own cone run
// for pass 2). It covers fills over every endpoint and over a random
// subset (the rest filled one at a time on query), on contexts with and
// without retained full tags (forced by LaunchClockTable, which a pass-1
// fill then reads). The negative control computes every endpoint's map
// from a propagation restricted to one endpoint's cone; the comparison
// must reject it. Pass 2 also checks through relations against the
// uncached path.
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
						want := make([]map[RelKey]relation.Set, len(ends))
						for i, end := range ends {
							want[i] = pass.query(slow, end)
						}

						for _, retained := range []bool{false, true} {
							fresh := func() *Context {
								ctx := newCtx(mode, Options{})
								if retained {
									ctx.LaunchClockTable(ctx.AllClockNames())
									if !ctx.rel.tagsReady.Load() {
										t.Fatalf("%s: LaunchClockTable did not force the full tags", mode.Name)
									}
								}
								return ctx
							}
							full := fresh()
							pass.fill(full, ends)
							if _, misses := full.RelCacheStats(); misses != int64(len(ends)) {
								t.Fatalf("%s retained=%v: fill over all %d endpoints recorded %d misses",
									mode.Name, retained, len(ends), misses)
							}
							var subset []graph.NodeID
							for _, end := range ends {
								if rng.Intn(3) == 0 {
									subset = append(subset, end)
								}
							}
							part := fresh()
							pass.fill(part, subset)

							for _, c := range []struct {
								what string
								ctx  *Context
							}{{"full", full}, {"subset", part}} {
								got := func(i int) map[RelKey]relation.Set { return pass.query(c.ctx, ends[i]) }
								if diff := relationDiffs(fx.g, ends, got, want); len(diff) > 0 {
									t.Errorf("%s retained=%v: %s fill differs from the reference at %v",
										mode.Name, retained, c.what, diff)
								}
							}
							if hits, _ := full.RelCacheStats(); hits != int64(len(ends)) {
								t.Errorf("%s retained=%v: %d of %d queries after the full fill were memo hits",
									mode.Name, retained, hits, len(ends))
							}
						}

						// Negative control: one cone's tags read at every
						// endpoint must not pass the comparison.
						label := "*"
						if pass.startTracked {
							label = ""
						}
						tags := slow.propagate(propOpts{withStart: pass.startTracked,
							nodeFilter: fx.g.BackwardReach(ends[:1])})
						control := func(i int) map[RelKey]relation.Set {
							out := map[RelKey]relation.Set{}
							slow.accumulateRelations(out, ends[i], tags[ends[i]], label)
							return out
						}
						if diff := relationDiffs(fx.g, ends, control, want); len(diff) == 0 {
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

// checkThroughRelations compares memoized and uncached through relations
// for one startpoint (the first in sorted key order) of each endpoint
// with start–end relations in want, up to 60 pairs.
func checkThroughRelations(t *testing.T, g *graph.Graph, ends []graph.NodeID, want []map[RelKey]relation.Set, memo, slow *Context) {
	t.Helper()
	pairs := 0
	for i, end := range ends {
		if len(want[i]) == 0 || pairs >= 60 {
			continue
		}
		keys := make([]RelKey, 0, len(want[i]))
		for k := range want[i] {
			keys = append(keys, k)
		}
		SortRelKeys(keys)
		start, ok := g.NodeByName(keys[0].Start)
		if !ok {
			t.Fatalf("start %q not in graph", keys[0].Start)
		}
		pairs++
		if got, exp := memo.ThroughRelations(start, end), slow.ThroughRelations(start, end); !reflect.DeepEqual(got, exp) {
			t.Errorf("%s %s→%s: through relations differ from the uncached path",
				memo.Mode.Name, keys[0].Start, g.Node(end).Name)
		}
	}
	if pairs == 0 {
		t.Errorf("%s: no start–end pair to check through relations on", memo.Mode.Name)
	}
}
