package core

import (
	"reflect"
	"testing"

	"modemerge/internal/gen"
	"modemerge/internal/graph"
	"modemerge/internal/relation"
	"modemerge/internal/sta"
)

// gatherFixture is the paper circuit under one member and the merged
// context. Merged ids: "a" = 0, "fast" = 1. Member clocks: fast,
// fast_dup, a. Merged-context clocks: a, fast.
func gatherFixture(t *testing.T) (*Merger, func(end string) graph.NodeID) {
	t.Helper()
	g, err := graph.Build(gen.PaperCircuit())
	if err != nil {
		t.Fatal(err)
	}
	mg := &Merger{g: g, ids: &clockIDs{
		names: []string{"a", "fast"},
		of:    [][]int32{{1, 1, 0}, {0, 1}},
	}}
	node := func(name string) graph.NodeID {
		id, ok := g.NodeByName(name)
		if !ok {
			t.Fatalf("%s not in graph", name)
		}
		return id
	}
	return mg, node
}

// gatherRow is one pass-1 setup row at end.
func gatherRow(end graph.NodeID, launch, capture sta.ClockID, states ...relation.State) sta.Rel {
	return sta.Rel{
		Key:    sta.RelKey{Start: sta.AnyStart, End: end, Launch: launch, Capture: capture, Check: relation.Setup},
		States: relation.NewSet(states...),
	}
}

// gatherEndpoint maps one member's and the merged context's rows into sc
// and gathers them.
func gatherEndpoint(mg *Merger, sc *cmpScratch, member, merged []sta.Rel) []group {
	mg.mapRows(sc, 0, member)
	mg.mapRows(sc, 1, merged)
	return mg.gatherGroups(sc)
}

// widerEndpoint gathers an endpoint with more rows and groups than the
// paper endpoint of TestGatherGroupsUnionsMappedClocks (its member rows
// union wherever fast and fast_dup meet), so that a scratch it went
// through holds longer lists, more groups and a larger arena.
func widerEndpoint(mg *Merger, sc *cmpScratch, end graph.NodeID) []group {
	var member, merged []sta.Rel
	for launch := sta.ClockID(0); launch < 3; launch++ {
		for capture := sta.ClockID(0); capture < 3; capture++ {
			member = append(member, gatherRow(end, launch, capture, relation.MCP(int(launch+2)), relation.StateValid))
		}
	}
	for launch := sta.ClockID(0); launch < 2; launch++ {
		for capture := sta.ClockID(0); capture < 2; capture++ {
			merged = append(merged, gatherRow(end, launch, capture, relation.MaxDelay(float64(launch+1))))
		}
	}
	return gatherEndpoint(mg, sc, member, merged)
}

// TestGatherGroupsUnionsMappedClocks gathers one endpoint's rows where
// a member's two local clocks ("fast", "fast_dup") map onto one merged
// clock: their rows share a merged key, so their sets union. The member's
// rows also arrive out of merged order ("a" sorts first once mapped), and
// one group exists in the merged context only. The member's own sets must
// come out unchanged. The scratch first gathers a wider endpoint, so the
// paper endpoint's groups must come out of reused lists, groups and arena
// with nothing of the wider endpoint left over.
func TestGatherGroupsUnionsMappedClocks(t *testing.T) {
	mg, node := gatherFixture(t)
	end := node("rX/D")
	row := func(launch, capture sta.ClockID, states ...relation.State) sta.Rel {
		return gatherRow(end, launch, capture, states...)
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
	sc := mg.newScratch()
	if wide := widerEndpoint(mg, sc, node("rY/D")); len(wide) != 4 {
		t.Fatalf("the wider endpoint gathers %d groups, want 4", len(wide))
	}
	groups := gatherEndpoint(mg, sc, member, merged)

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

// TestKeptRowsOutliveScratchReuse keeps the merged rows of an endpoint,
// as comparePass does for an endpoint with fixes, and then reuses the
// scratch for further endpoints: the kept keys and sets must stay those
// of the kept endpoint.
func TestKeptRowsOutliveScratchReuse(t *testing.T) {
	mg, node := gatherFixture(t)
	end := node("rX/D")
	sc := mg.newScratch()
	gatherEndpoint(mg, sc,
		[]sta.Rel{gatherRow(end, 0, 2, relation.StateValid), gatherRow(end, 2, 2, relation.StateFalse)},
		[]sta.Rel{gatherRow(end, 0, 0, relation.StateValid), gatherRow(end, 1, 1, relation.MCP(3))})
	kept := sc.keepMerged()
	for _, name := range []string{"rY/D", "rZ/D", "rX/D"} {
		widerEndpoint(mg, sc, node(name))
	}
	key := func(launch, capture int32) relKey {
		return relKey{start: sta.AnyStart, end: end, launch: launch, capture: capture, check: relation.Setup}
	}
	want := []relRow{
		{key(0, 0), relation.NewSet(relation.StateValid)},
		{key(1, 1), relation.NewSet(relation.MCP(3))},
	}
	if !reflect.DeepEqual(kept, want) {
		t.Errorf("kept rows changed under scratch reuse:\n got %+v\nwant %+v", kept, want)
	}
}
