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

// TestFillStartEndRelationsIdentity pins the batch fill's identity
// argument: one propagation over the union of fan-in cones yields, at
// every endpoint, the same start–end relation map as the endpoint's own
// cone run (DisableRelationMemo) — whether the fill covers every
// endpoint or a random subset, with the rest filled one at a time on
// query. reflect.DeepEqual compares each Set's states in insertion
// order, the order every downstream String() reads. Through relations
// must match the uncached path as well.
func TestFillStartEndRelationsIdentity(t *testing.T) {
	for _, fx := range relationFixtures(t) {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(1))
			ends := fx.g.Endpoints()
			newCtx := func(mode *sdc.Mode, opt Options) *Context {
				ctx, err := NewContext(fx.g, mode, opt)
				if err != nil {
					t.Fatal(err)
				}
				return ctx
			}
			for _, mode := range fx.modes {
				slow := newCtx(mode, Options{DisableRelationMemo: true})
				want := make([]map[RelKey]relation.Set, len(ends))
				for i, end := range ends {
					want[i] = slow.StartEndRelations(end)
				}

				full := newCtx(mode, Options{})
				full.FillStartEndRelations(ends)
				if _, misses := full.RelCacheStats(); misses != int64(len(ends)) {
					t.Fatalf("%s: fill over all %d endpoints recorded %d misses", mode.Name, len(ends), misses)
				}
				var subset []graph.NodeID
				for _, end := range ends {
					if rng.Intn(3) == 0 {
						subset = append(subset, end)
					}
				}
				part := newCtx(mode, Options{})
				part.FillStartEndRelations(subset)

				for i, end := range ends {
					if got := full.StartEndRelations(end); !reflect.DeepEqual(got, want[i]) {
						t.Errorf("%s %s: full fill differs from cone run:\n got %v\nwant %v",
							mode.Name, fx.g.Node(end).Name, RelationTable(got), RelationTable(want[i]))
					}
					if got := part.StartEndRelations(end); !reflect.DeepEqual(got, want[i]) {
						t.Errorf("%s %s: subset fill differs from cone run:\n got %v\nwant %v",
							mode.Name, fx.g.Node(end).Name, RelationTable(got), RelationTable(want[i]))
					}
				}
				if hits, _ := full.RelCacheStats(); hits != int64(len(ends)) {
					t.Errorf("%s: %d of %d queries after the full fill were memo hits", mode.Name, hits, len(ends))
				}

				// Through relations for one startpoint (the first in
				// sorted key order) of each endpoint, up to 60 pairs.
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
					start, ok := fx.g.NodeByName(keys[0].Start)
					if !ok {
						t.Fatalf("start %q not in graph", keys[0].Start)
					}
					pairs++
					got, exp := full.ThroughRelations(start, end), slow.ThroughRelations(start, end)
					if !reflect.DeepEqual(got, exp) {
						t.Errorf("%s %s→%s: through relations differ from the uncached path",
							mode.Name, keys[0].Start, fx.g.Node(end).Name)
					}
				}
				if pairs == 0 {
					t.Errorf("%s: no start–end pair to check through relations on", mode.Name)
				}
			}
		})
	}
}
