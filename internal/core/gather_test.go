package core

import (
	"reflect"
	"testing"

	"modemerge/internal/gen"
	"modemerge/internal/graph"
	"modemerge/internal/relation"
	"modemerge/internal/sta"
)

// TestGatherGroupsUnionsMappedClocks gathers one endpoint's rows where
// a member's two local clocks ("fast", "fast_dup") map onto one merged
// clock: their rows share a merged key, so their sets union. The member's
// rows also arrive out of merged order ("a" sorts first once mapped), and
// one group exists in the merged context only. The member's own sets must
// come out unchanged.
func TestGatherGroupsUnionsMappedClocks(t *testing.T) {
	g, err := graph.Build(gen.PaperCircuit())
	if err != nil {
		t.Fatal(err)
	}
	end, ok := g.NodeByName("rX/D")
	if !ok {
		t.Fatal("rX/D not in graph")
	}
	// Merged ids: "a" = 0, "fast" = 1. Member clocks: fast, fast_dup, a.
	// Merged-context clocks: a, fast.
	mg := &Merger{g: g, ids: &clockIDs{
		names: []string{"a", "fast"},
		of:    [][]int32{{1, 1, 0}, {0, 1}},
	}}
	row := func(launch, capture sta.ClockID, states ...relation.State) sta.Rel {
		return sta.Rel{
			Key:    sta.RelKey{Start: sta.AnyStart, End: end, Launch: launch, Capture: capture, Check: relation.Setup},
			States: relation.NewSet(states...),
		}
	}
	member := []sta.Rel{
		row(0, 2, relation.StateValid),
		row(1, 2, relation.MCP(2)),
		row(2, 2, relation.StateFalse),
	}
	merged := []sta.Rel{
		row(0, 0, relation.StateFalse),
		row(1, 0, relation.StateValid),
		row(1, 1, relation.StateValid),
	}
	groups := mg.gatherGroups([][]relRow{mg.mapRows(0, member), mg.mapRows(1, merged)})

	key := func(launch, capture int32) relKey {
		return relKey{start: sta.AnyStart, end: end, launch: launch, capture: capture, check: relation.Setup}
	}
	want := []struct {
		key            relKey
		member, merged relation.Set
	}{
		{key(0, 0), relation.NewSet(relation.StateFalse), relation.NewSet(relation.StateFalse)},
		{key(1, 0), relation.NewSet(relation.StateValid, relation.MCP(2)), relation.NewSet(relation.StateValid)},
		{key(1, 1), relation.Set{}, relation.NewSet(relation.StateValid)},
	}
	if len(groups) != len(want) {
		t.Fatalf("%d groups, want %d: %+v", len(groups), len(want), groups)
	}
	for i, w := range want {
		gr := groups[i]
		if gr.key != w.key || !gr.perMode[0].Equal(w.member) || gr.perMode[0].Len() != w.member.Len() ||
			!gr.merged.Equal(w.merged) {
			t.Errorf("group %d: key %+v member %v merged %v, want key %+v member %v merged %v",
				i, gr.key, gr.perMode[0], gr.merged, w.key, w.member, w.merged)
		}
	}
	if v, _, _ := groups[1].compare(); v != ambiguous {
		t.Errorf("the unioned group classifies %v, want ambiguous", v)
	}
	if !reflect.DeepEqual(member[0].States, relation.NewSet(relation.StateValid)) {
		t.Errorf("the union changed the member's own set: %v", member[0].States)
	}
}
