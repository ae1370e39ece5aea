package sta

import (
	"reflect"
	"sort"
	"testing"

	"modemerge/internal/graph"
)

// TestExtraClocksTable drives the §3.1.8 clock-refinement BFS through its
// edge cases on the paper circuit's clock network (clk1 fans out directly
// to the register clock pins and, through mux1, to rZ/CP):
//
//   - stop-propagation on reconvergent clock paths: a clock blocked on one
//     branch must survive on parallel branches, the frontier must hold only
//     the *first* blocked node of each branch (on-the-fly blocking), and
//     the mux's non-unate polarity split must not duplicate frontier nodes;
//   - generated clocks crossing the muxed network: a generated clock
//     replaces (or, with -add, joins) its master at the mux output, and a
//     master blocked before the generation point gates the generated clock
//     out of existence — no phantom frontier for a clock that never forms;
//   - disable vs. stop-sense choice: an arc or node already removed by
//     set_disable_timing carries no clock, so refinement never asks for a
//     stop_propagation there — the frontier stays empty;
//   - the context's own stop_propagation applies before justify: a clock
//     the mode already stops is never refused past the stop.
func TestExtraClocksTable(t *testing.T) {
	const twoClocks = `
create_clock -name clkA -period 10 [get_ports clk1]
create_clock -name clkB -period 20 [get_ports clk2]
`
	const genClock = twoClocks + `
create_generated_clock -name gdiv -source [get_ports clk1] -divide_by 2 [get_pins mux1/Z]
`
	const genClockAdd = twoClocks + `
create_generated_clock -name gdiv -source [get_ports clk1] -divide_by 2 -add -master_clock clkA [get_pins mux1/Z]
`
	cases := []struct {
		name string
		src  string
		// block maps clock name → node names where justify refuses it;
		// every other (node, clock) pair is justified.
		block map[string][]string
		// want maps clock name → expected frontier nodes (sorted by name).
		// Clocks absent here must not appear in the frontier at all.
		want map[string][]string
		// wantOrder, when set, pins the frontier's clock order (clock
		// definition order — must not vary run to run).
		wantOrder []string
	}{
		{
			name:  "all_justified_no_frontier",
			src:   twoClocks,
			block: nil,
			want:  map[string][]string{},
		},
		{
			name: "branch_block_stops_at_first_node",
			// clkA is refused at the mux output and at the register clock
			// pin behind it. Only the first node of the branch may appear:
			// blocking is applied on the fly, so rZ/CP never sees clkA.
			// The mux is non-unate (both polarities arrive), which must
			// not duplicate the frontier entry.
			src:   twoClocks,
			block: map[string][]string{"clkA": {"mux1/Z", "rZ/CP"}},
			want:  map[string][]string{"clkA": {"mux1/Z"}},
		},
		{
			name:  "downstream_block_leaves_upstream_alone",
			src:   twoClocks,
			block: map[string][]string{"clkA": {"rZ/CP"}},
			want:  map[string][]string{"clkA": {"rZ/CP"}},
		},
		{
			name: "reconvergent_branches_blocked_independently",
			// clk1 fans out to rX/CP directly and to rZ/CP through the
			// mux. Refusing clkA on both branches yields one frontier node
			// per branch; the downstream rZ/CP refusal is shadowed by the
			// mux1/Z block upstream of it.
			src:   twoClocks,
			block: map[string][]string{"clkA": {"rX/CP", "mux1/Z", "rZ/CP"}},
			want:  map[string][]string{"clkA": {"mux1/Z", "rX/CP"}},
		},
		{
			name: "generated_clock_crosses_mux",
			// gdiv replaces its master clkA at the mux output (no -add),
			// so past the mux only gdiv can be blocked; the clkA refusal
			// at rZ/CP never triggers because clkA no longer reaches it.
			src:   genClock,
			block: map[string][]string{"gdiv": {"rZ/CP"}, "clkA": {"rZ/CP"}},
			want:  map[string][]string{"gdiv": {"rZ/CP"}},
		},
		{
			name: "generated_clock_add_keeps_master",
			// With -add both clkA and gdiv cross the mux; refusing both at
			// rZ/CP yields two frontiers at the same node, in clock
			// definition order regardless of map iteration.
			src: genClockAdd,
			block: map[string][]string{
				"clkA": {"rZ/CP"},
				"gdiv": {"rZ/CP"},
			},
			want: map[string][]string{
				"clkA": {"rZ/CP"},
				"gdiv": {"rZ/CP"},
			},
			wantOrder: []string{"clkA", "gdiv"},
		},
		{
			name: "blocked_master_gates_generated_clock",
			// clkA refused at its own root port: it never propagates, the
			// master is never found at the generation point, and gdiv is
			// never born — it must not show up in the frontier even though
			// justify would refuse it everywhere downstream.
			src: genClock,
			block: map[string][]string{
				"clkA": {"clk1"},
				"gdiv": {"mux1/Z", "rZ/CP"},
			},
			want: map[string][]string{"clkA": {"clk1"}},
		},
		{
			name: "disabled_arc_needs_no_stop_sense",
			// The merged mode already carries set_disable_timing on the
			// mux's I0→Z arc (e.g. inherited from every individual mode),
			// so clkA never reaches mux1/Z and refinement must not emit a
			// redundant stop_propagation on top of the disable.
			src: twoClocks + `
set_disable_timing -from I0 -to Z [get_cells mux1]
`,
			block: map[string][]string{"clkA": {"mux1/Z", "rZ/CP"}},
			want:  map[string][]string{},
		},
		{
			name: "disabled_node_needs_no_stop_sense",
			// Same choice at node granularity: a pin-level disable kills
			// every arc through mux1/Z, for clkB from the I1 leg too.
			src: twoClocks + `
set_disable_timing [get_pins mux1/Z]
`,
			block: map[string][]string{
				"clkA": {"mux1/Z", "rZ/CP"},
				"clkB": {"mux1/Z", "rZ/CP"},
			},
			want: map[string][]string{},
		},
		{
			name: "own_stop_sense_precedes_justify",
			// The mode stops clkA at the mux output, so rZ/CP never sees
			// it and its refusal there must not reach the frontier; the
			// refusal on the unstopped rX/CP branch still does.
			src: twoClocks + `
set_clock_sense -stop_propagation -clock [get_clocks clkA] [get_pins mux1/Z]
`,
			block: map[string][]string{"clkA": {"rZ/CP", "rX/CP"}},
			want:  map[string][]string{"clkA": {"rX/CP"}},
		},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			ctx := ctxFor(t, tc.src)
			blocked := map[string]map[graph.NodeID]bool{}
			for clock, nodes := range tc.block {
				m := map[graph.NodeID]bool{}
				for _, n := range nodes {
					m[nodeID(t, ctx, n)] = true
				}
				blocked[clock] = m
			}
			frontiers := ctx.ExtraClocks(func(n graph.NodeID, clock string) bool {
				return !blocked[clock][n]
			})

			got := map[string][]string{}
			var gotOrder []string
			for _, f := range frontiers {
				if _, dup := got[f.Clock]; dup {
					t.Errorf("clock %s appears in two frontiers", f.Clock)
				}
				gotOrder = append(gotOrder, f.Clock)
				names := make([]string, len(f.Nodes))
				for i, n := range f.Nodes {
					names[i] = ctx.G.Node(n).Name
				}
				sort.Strings(names)
				got[f.Clock] = names
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("frontiers = %v, want %v", got, tc.want)
			}
			if tc.wantOrder != nil && !reflect.DeepEqual(gotOrder, tc.wantOrder) {
				t.Errorf("frontier clock order = %v, want %v", gotOrder, tc.wantOrder)
			}
		})
	}
}
