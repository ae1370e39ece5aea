package core

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"

	"modemerge/internal/graph"
	"modemerge/internal/obs"
	"modemerge/internal/relation"
	"modemerge/internal/sdc"
	"modemerge/internal/sta"
)

// forEachParallel runs fn(i) for i in [0,n) on a pool of at most workers
// goroutines (0 → GOMAXPROCS; 1 runs inline, fully sequential).
// Cancelling cx stops feeding new indices; already-started fn calls run
// to completion. Callers must check cx.Err() afterwards — results for
// unvisited indices are missing.
func forEachParallel(cx context.Context, n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if cx.Err() != nil {
				return
			}
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if cx.Err() != nil {
					continue // drain without working
				}
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// eachContext runs fn on the merged context and every member context on
// the bounded pool. The merged context goes first: it carries the union
// of the members' clocks and exceptions, so its propagations are
// usually the longest, and starting the longest task first keeps the
// pool from idling behind it. Callers check cx.Err() afterwards.
func (mg *Merger) eachContext(cx context.Context, fn func(ctx *sta.Context)) {
	forEachParallel(cx, len(mg.ctxs)+1, mg.opt.parallelism(), func(m int) {
		if m == 0 {
			fn(mg.mctx)
		} else {
			fn(mg.ctxs[m-1])
		}
	})
}

// clockRefinement implements §3.1.8: walk the merged clock network and
// stop every clock at the first node where no individual mode propagates
// it, emitting set_clock_sense -stop_propagation.
func (mg *Merger) clockRefinement() error {
	justify := func(node graph.NodeID, mergedClock string) bool {
		for m, ctx := range mg.ctxs {
			local := mg.cmap.localName(mergedClock, m)
			if local == "" {
				continue
			}
			for _, name := range ctx.ClockNamesAt(node) {
				if name == local {
					return true
				}
			}
		}
		return false
	}
	frontiers := mg.mctx.ExtraClocks(justify)
	for _, f := range frontiers {
		pins := mg.nodeRefs(f.Nodes)
		mg.merged.ClockSenses = append(mg.merged.ClockSenses, &sdc.ClockSense{
			StopPropagation: true,
			Clocks:          []string{f.Clock},
			Pins:            pins,
			Comment:         "inferred by clock refinement",
		})
		mg.Report.ClockStops += len(pins)
		pinNames := make([]string, len(pins))
		for i, p := range pins {
			pinNames[i] = p.Name
		}
		mg.Report.prov(obs.Provenance{
			Stage:      "clock_refine",
			Rule:       "§3.1.8 clock refinement",
			Action:     obs.ActionInsert,
			Constraint: "set_clock_sense -stop_propagation",
			Clocks:     []string{f.Clock},
			Pins:       pinNames,
			Detail:     "no individual mode propagates the clock past these pins",
		})
	}
	if len(frontiers) > 0 {
		return mg.rebuildMerged()
	}
	return nil
}

// dataRefinement implements §3.2: first block launch clocks that no
// individual mode produces (emitting scoped false paths), then run the
// 3-pass timing-relationship comparison, adding corrective false paths
// until the merged mode matches the per-path most-restrictive individual
// behaviour.
func (mg *Merger) dataRefinement(cx context.Context, sp *obs.Span) error {
	bsp := sp.Child("launch_blocking")
	err := mg.blockExtraLaunchClocks()
	bsp.Add("launch_blocks", int64(mg.Report.LaunchBlocks))
	bsp.Finish()
	if err != nil {
		return err
	}
	for iter := 0; iter < mg.opt.MaxRefineIterations; iter++ {
		if err := cx.Err(); err != nil {
			return err
		}
		mg.Report.Iterations = iter + 1
		isp := sp.Child(fmt.Sprintf("iteration_%d", iter+1))
		added, err := mg.threePass(cx, isp, nil)
		isp.Add("constraints_added", int64(added))
		isp.Finish()
		if err != nil {
			return err
		}
		if added == 0 {
			return nil
		}
		if err := mg.rebuildMergedForRefine(); err != nil {
			return err
		}
	}
	mg.Report.warnf("refinement did not converge in %d iterations", mg.opt.MaxRefineIterations)
	return nil
}

// blockExtraLaunchClocks is §3.2's first data refinement step, run at arc
// granularity: a launch clock's data may cross an arc in the merged mode
// only if it does so in at least one individual mode.
func (mg *Merger) blockExtraLaunchClocks() error {
	// The justification callbacks run once per arc per clock, so resolve
	// the merged→local clock mapping and each mode's launch-clock presence
	// up front; the callbacks reduce to array lookups.
	mergedNames := mg.mctx.AllClockNames()
	mergedIdx := make(map[string]int, len(mergedNames))
	for i, n := range mergedNames {
		mergedIdx[n] = i
	}
	launchAt := make([][][]bool, len(mg.ctxs))
	for m, ctx := range mg.ctxs {
		locals := make([]string, len(mergedNames))
		for i, mc := range mergedNames {
			locals[i] = mg.cmap.localName(mc, m)
		}
		launchAt[m] = ctx.LaunchClockTable(locals)
	}
	seedJustify := func(node graph.NodeID, mergedClock string) bool {
		idx := mergedIdx[mergedClock]
		for m := range mg.ctxs {
			if row := launchAt[m][idx]; row != nil && row[node] {
				return true
			}
		}
		return false
	}
	arcJustify := func(ai int32, mergedClock string) bool {
		idx := mergedIdx[mergedClock]
		from := mg.g.Arc(ai).From
		for m, ctx := range mg.ctxs {
			if row := launchAt[m][idx]; row != nil && row[from] && !ctx.ArcDisabledAt(ai) {
				return true
			}
		}
		return false
	}
	frontiers := mg.mctx.ExtraLaunchFlows(seedJustify, arcJustify)
	for _, f := range frontiers {
		if len(f.Nodes) > 0 {
			through := &sdc.PointList{Pins: mg.nodeRefs(f.Nodes)}
			e := &sdc.Exception{
				Kind:     sdc.FalsePath,
				From:     &sdc.PointList{Clocks: []string{f.Clock}},
				Throughs: []*sdc.PointList{through},
				To:       &sdc.PointList{},
				Comment:  "inferred by data refinement (unjustified launch clock)",
			}
			mg.merged.Exceptions = append(mg.merged.Exceptions, e)
			mg.Report.LaunchBlocks += len(f.Nodes)
			mg.provException("data_refine/launch_blocking",
				"§3.2 launch clock blocking", e, f.Clock,
				"no individual mode launches this clock at these pins")
		}
		for _, pair := range f.Arcs {
			e := &sdc.Exception{
				Kind: sdc.FalsePath,
				From: &sdc.PointList{Clocks: []string{f.Clock}},
				Throughs: []*sdc.PointList{
					{Pins: mg.nodeRefs(pair[:1])},
					{Pins: mg.nodeRefs(pair[1:])},
				},
				To:      &sdc.PointList{},
				Comment: "inferred by data refinement (unjustified launch flow)",
			}
			mg.merged.Exceptions = append(mg.merged.Exceptions, e)
			mg.Report.LaunchBlocks++
			mg.provException("data_refine/launch_blocking",
				"§3.2 launch clock blocking", e, f.Clock,
				"no individual mode drives this clock across the arc")
		}
	}
	if len(frontiers) > 0 {
		return mg.rebuildMergedExcOnly()
	}
	return nil
}

// provException records provenance for one refinement-inserted exception,
// rendering the exact SDC command it contributes to the merged mode.
func (mg *Merger) provException(stage, rule string, e *sdc.Exception, clock, detail string) {
	p := obs.Provenance{
		Stage:      stage,
		Rule:       rule,
		Action:     obs.ActionInsert,
		Constraint: sdc.WriteException(e),
		Detail:     detail,
	}
	if clock != "" {
		p.Clocks = []string{clock}
	}
	mg.Report.prov(p)
}

// nodeRefs converts graph nodes to pin/port references, sorted by name.
func (mg *Merger) nodeRefs(nodes []graph.NodeID) []sdc.ObjRef {
	refs := make([]sdc.ObjRef, 0, len(nodes))
	for _, n := range nodes {
		node := mg.g.Node(n)
		kind := sdc.PinObj
		if node.Port != nil {
			kind = sdc.PortObj
		}
		refs = append(refs, sdc.ObjRef{Kind: kind, Name: node.Name})
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].Name < refs[j].Name })
	return refs
}

// groupStates is the per-path-group comparison input: the per-mode state
// sets (merged clock namespace) and the merged mode's state set.
type groupStates struct {
	perMode []relation.Set // indexed by mode; zero set = group absent
	merged  relation.Set
}

// mergedTimes reports whether the merged mode actually times a group
// with the merged state set (non-empty and not purely false).
func mergedTimes(merged relation.Set) bool {
	return !merged.Empty() && !merged.Equal(relation.NewSet(relation.StateFalse))
}

// verdict is the §3.2 outcome of comparing one path group's merged state
// with its target, the most restrictive member state. Refinement and the
// equivalence check read the same verdicts; they differ only in what
// they do with them (see threePass).
type verdict int8

const (
	match       verdict = iota
	pessimistic         // merged times the group tighter than the target
	excess              // the target is false but the merged mode times the group
	optimistic          // merged relaxes the target: a sign-off violation
	ambiguous           // a side stays multi-state: the next, finer pass decides
)

// compare classifies the group and returns the target and merged states
// it compared. A side without the group does not time it: absent is
// false, for the members and the merged mode alike.
func (gs *groupStates) compare() (v verdict, target, merged relation.State) {
	for m, set := range gs.perMode {
		st, ok := singleState(set)
		if !ok {
			return ambiguous, target, merged
		}
		if m == 0 {
			target = st
		} else {
			target = relation.MoreRestrictive(target, st)
		}
	}
	merged, ok := singleState(gs.merged)
	switch {
	case !ok:
		return ambiguous, target, merged
	case merged == target:
		return match, target, merged
	case relation.Relaxed(merged, target):
		return optimistic, target, merged
	case target == relation.StateFalse:
		return excess, target, merged
	}
	return pessimistic, target, merged
}

// singleState reads a state set as one state; an empty set is false.
func singleState(set relation.Set) (relation.State, bool) {
	if set.Empty() {
		return relation.StateFalse, true
	}
	return set.Single()
}

// record tallies one classified group: the equivalence check's reading
// of a verdict. An excess group is sign-off safe, so it counts as
// pessimistic. through names the pass-3 through point ("" in passes 1
// and 2). Only an optimistic group's key is rendered with names.
func (r *EquivalenceResult) record(mg *Merger, v verdict, k relKey, through string, target, merged relation.State) {
	switch v {
	case match:
		r.MatchedGroups++
	case pessimistic, excess:
		r.PessimisticGroups++
	case optimistic:
		n := mg.relName(k)
		path := n.Start + " -> " + n.End
		if through != "" {
			path = n.Start + " -through " + through + " -> " + n.End
		}
		r.OptimisticMismatches = append(r.OptimisticMismatches,
			fmt.Sprintf("%s [%s/%s %s]: individual=%s merged=%s",
				path, n.Launch, n.Capture, n.Check, target, merged))
	}
}

// relKey is a path group in the merged namespace, all integers: graph
// nodes for start and end (sta.AnyStart at pass 1) and merged clock ids
// (see clockIDs).
type relKey struct {
	start, end      graph.NodeID
	launch, capture int32
	check           relation.CheckType
}

// relRow is one context's relation row keyed in the merged namespace.
type relRow struct {
	key relKey
	set relation.Set
}

// group is one path group's comparison input under its key.
type group struct {
	key relKey
	groupStates
}

// clockIDs numbers the merged clock names in ascending order, so that
// comparing two ids compares the names, and maps every context's local
// clocks onto those ids: of[m] serves member context m and
// of[len(ctxs)] the merged context.
type clockIDs struct {
	names []string  // merged clock name per id
	of    [][]int32 // per context: local sta.ClockID → merged id
}

// newClockIDs builds the merge's clock ids through cmap.mapName, the
// mapping the members' keys have always been compared under.
func (mg *Merger) newClockIDs() *clockIDs {
	local := make([][]string, len(mg.ctxs)+1)
	for m, ctx := range mg.ctxs {
		for _, c := range ctx.Clocks {
			local[m] = append(local[m], mg.cmap.mapName(m, c.Def.Name))
		}
	}
	local[len(mg.ctxs)] = mg.mctx.AllClockNames()
	var names []string
	for _, l := range local {
		names = append(names, l...)
	}
	slices.Sort(names)
	ids := &clockIDs{names: slices.Compact(names), of: make([][]int32, len(local))}
	for c, l := range local {
		ids.of[c] = make([]int32, len(l))
		for i, name := range l {
			id, _ := slices.BinarySearch(ids.names, name)
			ids.of[c][i] = int32(id)
		}
	}
	return ids
}

// relName renders a merged-namespace key with node and clock names.
func (mg *Merger) relName(k relKey) sta.RelName {
	return sta.RelName{
		Start:   sta.NodeName(mg.g, k.start),
		End:     sta.NodeName(mg.g, k.end),
		Launch:  mg.ids.names[k.launch],
		Capture: mg.ids.names[k.capture],
		Check:   k.check,
	}
}

// compareNodes orders nodes by name, sta.AnyStart first.
func (mg *Merger) compareNodes(a, b graph.NodeID) int {
	return cmp.Compare(sta.NodeRank(mg.g, a), sta.NodeRank(mg.g, b))
}

// compareKeys orders merged keys by (end, start, launch, capture, check)
// with nodes and clocks compared by name: sta.SortRelNames' order on
// the rendered keys.
func (mg *Merger) compareKeys(a, b relKey) int {
	if c := mg.compareNodes(a.end, b.end); c != 0 {
		return c
	}
	if c := mg.compareNodes(a.start, b.start); c != 0 {
		return c
	}
	if c := cmp.Compare(a.launch, b.launch); c != 0 {
		return c
	}
	if c := cmp.Compare(a.capture, b.capture); c != 0 {
		return c
	}
	return cmp.Compare(a.check, b.check)
}

// cmpScratch is the comparator's working memory for one key's groups
// (an endpoint, or a pass-3 through node): every context's mapped rows,
// the gathered groups, the arena their per-mode sets carve out of, and
// the merge heads. Each gather overwrites it, so a caller that needs
// rows after the next gather copies them out (keepMerged). Scratch
// belongs to one pass call and is garbage once the call returns: its
// rows reference the contexts' relation sets, so a sync.Pool, whose
// values outlive a collection, would keep the whole merge reachable.
type cmpScratch struct {
	lists  [][]relRow // per context, the merged context last
	groups []group
	arena  []relation.Set
	heads  []int
}

func (mg *Merger) newScratch() *cmpScratch {
	n := len(mg.ids.of)
	return &cmpScratch{lists: make([][]relRow, n), heads: make([]int, n)}
}

// mapRows keys context c's relation rows in the merged namespace, in
// compareKeys order, into sc.lists[c]. The merged context's rows arrive
// sorted, and so do a member's unless the clock map reorders its names.
// Two local clocks that map onto one merged clock make two rows with one
// key; their sets union.
func (mg *Merger) mapRows(sc *cmpScratch, c int, rows []sta.Rel) {
	of := mg.ids.of[c]
	out := sc.lists[c][:0]
	sorted := true
	for i, r := range rows {
		out = append(out, relRow{
			key: relKey{start: r.Key.Start, end: r.Key.End,
				launch: of[r.Key.Launch], capture: of[r.Key.Capture], check: r.Key.Check},
			set: r.States,
		})
		if i > 0 && mg.compareKeys(out[i-1].key, out[i].key) > 0 {
			sorted = false
		}
	}
	if !sorted {
		slices.SortStableFunc(out, func(a, b relRow) int { return mg.compareKeys(a.key, b.key) })
	}
	w := 0
	for _, r := range out {
		if w > 0 && out[w-1].key == r.key {
			out[w-1].set.AddSet(r.set)
			continue
		}
		out[w] = r
		w++
	}
	sc.lists[c] = out[:w]
}

// gatherGroups aligns the mapped rows of every member context and of the
// merged context (the last list) into one group per key, in key order: a
// merge of the sorted lists. The groups and their per-mode sets live in
// sc until the next gather.
func (mg *Merger) gatherGroups(sc *cmpScratch) []group {
	nModes := len(sc.lists) - 1
	out, arena, heads := sc.groups[:0], sc.arena[:0], sc.heads
	clear(heads)
	for {
		var key relKey
		found := false
		for c, l := range sc.lists {
			if heads[c] < len(l) && (!found || mg.compareKeys(l[heads[c]].key, key) < 0) {
				key, found = l[heads[c]].key, true
			}
		}
		if !found {
			break
		}
		g := group{key: key}
		for c, l := range sc.lists {
			var set relation.Set
			if heads[c] < len(l) && l[heads[c]].key == key {
				set = l[heads[c]].set
				heads[c]++
			}
			if c == nModes {
				g.merged = set
			} else {
				arena = append(arena, set)
			}
		}
		out = append(out, g)
	}
	for i := range out {
		out[i].perMode = arena[i*nModes : (i+1)*nModes : (i+1)*nModes]
	}
	sc.groups, sc.arena = out, arena
	return out
}

// keepMerged copies the merged context's mapped rows out of sc.
func (sc *cmpScratch) keepMerged() []relRow {
	return slices.Clone(sc.lists[len(sc.lists)-1])
}

// epOutcome records one endpoint's complete pass-1 (or pass-2) effect in
// an iteration that produced no fixes for it: the report-counter deltas
// and the startpoints of its ambiguous groups, which it forwarded to the
// next pass (pass-1 keys all start at sta.AnyStart). An unaffected
// endpoint — not forward-reachable from any exception added since —
// classifies identically in the next iteration (member relations never
// change and its merged relations are untouched), so the recorded
// outcome replays without recomputing or even touching the relation
// rows. Endpoints that produced fixes never replay: a fix's pins always
// include the endpoint itself, so it lands in the invalidation frontier.
type epOutcome struct {
	ambiguous, mismatch, pessim int
	forwardStarts               []graph.NodeID
}

// pairOutcome is the pass-3 analogue for one (start, end) pair that
// emitted nothing.
type pairOutcome struct {
	mismatch, pessim int
}

// refineMemo carries refinement state across iterations of the 3-pass
// loop. Recorded endpoint/pair outcomes are dropped per endpoint when new
// exceptions invalidate them (rebuildMergedForRefine). pending collects
// the exceptions added since the last merged rebuild — their pins define
// the invalidation frontier.
type refineMemo struct {
	pending []*sdc.Exception

	epOut [2]map[graph.NodeID]*epOutcome // passes 1 and 2
	p3Out map[[2]graph.NodeID]*pairOutcome
}

// invalidate drops recorded outcomes: all of them when affected is
// nil, otherwise only those of the endpoints marked affected.
func (mm *refineMemo) invalidate(affected []bool) {
	if affected == nil {
		mm.epOut, mm.p3Out = [2]map[graph.NodeID]*epOutcome{}, nil
		return
	}
	for _, tbl := range mm.epOut {
		for end := range tbl {
			if affected[end] {
				delete(tbl, end)
			}
		}
	}
	for pair := range mm.p3Out {
		if affected[pair[1]] {
			delete(mm.p3Out, pair)
		}
	}
}

// record helpers: outcomes are written by the sequential classification
// phases and read by the next iteration's parallel phases, so plain map
// access with lazy init suffices (no concurrent writers).

func (mm *refineMemo) recordEp(pass int, end graph.NodeID, o *epOutcome) {
	if mm.epOut[pass] == nil {
		mm.epOut[pass] = map[graph.NodeID]*epOutcome{}
	}
	mm.epOut[pass][end] = o
}

func (mm *refineMemo) recordP3(pair [2]graph.NodeID, o *pairOutcome) {
	if mm.p3Out == nil {
		mm.p3Out = map[[2]graph.NodeID]*pairOutcome{}
	}
	mm.p3Out[pair] = o
}

// threePass runs passes 1–3 of §3.2 once over the merged context. Every
// path group gets one verdict (groupStates.compare), and an ambiguous
// group moves on to the next, finer pass. res is the one switch over
// what the other verdicts do. With res nil the passes refine: excess and
// optimistic groups become corrective constraints, and threePass returns
// how many it added. With res set they classify: every verdict is
// recorded into res and nothing is emitted (CheckEquivalence).
// Cancelling cx aborts between and inside the passes with the context
// error.
func (mg *Merger) threePass(cx context.Context, sp *obs.Span, res *EquivalenceResult) (int, error) {
	added := 0
	mg.ids = mg.newClockIDs()

	// ---- Pass 1: endpoint granularity ----
	p1 := sp.Child("pass1")
	var pass2Ends []graph.NodeID // ambiguous endpoints forwarded to pass 2
	n, err := mg.comparePass(cx, p1, mg.g.Endpoints(), endpointPass{
		idx:       0,
		stage:     "data_refine/pass1",
		rule:      "§3.2 pass-1 endpoint comparison",
		fill:      (*sta.Context).FillEndpointRelations,
		relations: (*sta.Context).EndpointRelationsAt,
		ambiguous: &mg.Report.Pass1Ambiguous,
		mismatch:  &mg.Report.Pass1Mismatch,
	}, res, func(end graph.NodeID, _ []graph.NodeID) { pass2Ends = append(pass2Ends, end) })
	p1.Finish()
	added += n
	if err != nil {
		return added, err
	}

	// ---- Pass 2: startpoint–endpoint granularity ----
	p2 := sp.Child("pass2")
	slices.SortFunc(pass2Ends, mg.compareNodes)
	var pairs [][2]graph.NodeID // (start, end) pairs forwarded to pass 3
	n, err = mg.comparePass(cx, p2, pass2Ends, endpointPass{
		idx:       1,
		stage:     "data_refine/pass2",
		rule:      "§3.2 pass-2 start-end comparison",
		fill:      (*sta.Context).FillStartEndRelations,
		relations: (*sta.Context).StartEndRelations,
		ambiguous: &mg.Report.Pass2Ambiguous,
		mismatch:  &mg.Report.Pass2Mismatch,
	}, res, func(end graph.NodeID, starts []graph.NodeID) {
		for _, start := range starts {
			pairs = append(pairs, [2]graph.NodeID{start, end})
		}
	})
	p2.Add("endpoints", int64(len(pass2Ends)))
	p2.Finish()
	added += n
	if err != nil {
		return added, err
	}

	// ---- Pass 3: through-point granularity ----
	p3 := sp.Child("pass3")
	defer p3.Finish()
	slices.SortFunc(pairs, func(a, b [2]graph.NodeID) int {
		if c := mg.compareNodes(a[0], b[0]); c != 0 {
			return c
		}
		return mg.compareNodes(a[1], b[1])
	})
	// Relations per pair compute in parallel; comparison and constraint
	// emission stay sequential and deterministic.
	type p3data struct {
		perMode [][]sta.ThroughRel
		merged  []sta.ThroughRel
		replay  *pairOutcome
	}
	data := make([]p3data, len(pairs))
	forEachParallel(cx, len(pairs), mg.opt.parallelism(), func(i int) {
		if o := mg.memo.p3Out[pairs[i]]; o != nil {
			data[i].replay = o
			return
		}
		cone := mg.g.Cone(pairs[i][0], pairs[i][1])
		perMode := make([][]sta.ThroughRel, len(mg.ctxs))
		for m, ctx := range mg.ctxs {
			perMode[m] = ctx.ThroughRelations(cone)
		}
		data[i].perMode = perMode
		data[i].merged = mg.mctx.ThroughRelations(cone)
	})
	if err := cx.Err(); err != nil {
		return added, err
	}
	p3Replayed := 0
	sc := mg.newScratch()
	for i, pair := range pairs {
		if o := data[i].replay; o != nil {
			p3Replayed++
			mg.Report.Pass3Mismatch += o.mismatch
			mg.Report.PessimisticGroups += o.pessim
			continue
		}
		mis0, pes0 := mg.Report.Pass3Mismatch, mg.Report.PessimisticGroups
		n := mg.pass3(sc, pair, data[i].perMode, data[i].merged, res)
		added += n
		if n == 0 && res == nil {
			// An emitting pair invalidates its own endpoint (the fix pins
			// include it); only silent pairs are replayable.
			mg.memo.recordP3(pair, &pairOutcome{
				mismatch: mg.Report.Pass3Mismatch - mis0,
				pessim:   mg.Report.PessimisticGroups - pes0,
			})
		}
	}
	p3.Add("pairs", int64(len(pairs)))
	p3.Add("replayed_pairs", int64(p3Replayed))
	return added, nil
}

// endpointPass describes one of §3.2's two endpoint-keyed comparisons.
// Passes 1 and 2 run the same loop and differ only in the relation rows
// they fill and compare and in what an ambiguous group forwards.
type endpointPass struct {
	idx         int // refineMemo.epOut slot: 0 for pass 1, 1 for pass 2
	stage, rule string
	fill        func(ctx *sta.Context, ends []graph.NodeID)
	relations   func(ctx *sta.Context, end graph.NodeID) []sta.Rel
	// ambiguous and mismatch point at the pass's Report counters.
	ambiguous, mismatch *int
}

// comparePass runs one endpoint-keyed pass over ends and returns how many
// constraints it added (always 0 when classifying into res). When
// refining, endpoints with an outcome recorded in the previous iteration
// replay it without touching any relation row. Every context first fills
// the rows of the endpoints without a replay (pass.fill, one batched
// cone propagation), in parallel across contexts. Each remaining
// endpoint is then gathered and classified on the worker that takes it,
// in scratch reused across the worker's endpoints; the worker keeps only
// the endpoint's outcome, its fixes and, with fixes, a copy of its
// merged rows. The outcomes fold and the fixes emit sequentially, in ends
// order with groups in key order, so emitted constraints, counters and
// res are deterministic. Child spans time the three steps: fill,
// classify (gather and compare) and emit (fold and emitFixes). forward
// receives each endpoint that has ambiguous groups, with their
// startpoints in key order.
func (mg *Merger) comparePass(cx context.Context, sp *obs.Span, ends []graph.NodeID,
	pass endpointPass, res *EquivalenceResult, forward func(end graph.NodeID, starts []graph.NodeID)) (int, error) {
	recorded := mg.memo.epOut[pass.idx]
	type endpointWork struct {
		outcome  *epOutcome
		replayed bool
		nGroups  int
		fixes    []fixEntry
		merged   []relRow          // kept only with fixes, for emitFixes
		eq       EquivalenceResult // the endpoint's verdicts, when classifying
	}
	var cold []graph.NodeID
	for _, end := range ends {
		if recorded[end] == nil {
			cold = append(cold, end)
		}
	}
	fsp := sp.Child("fill")
	mg.eachContext(cx, func(ctx *sta.Context) { pass.fill(ctx, cold) })
	fsp.Finish()
	csp := sp.Child("classify")
	work := make([]endpointWork, len(ends))
	// The free scratch of the call's workers: no more scratch exists than
	// workers run, so returning one never blocks.
	free := make(chan *cmpScratch, mg.opt.parallelism())
	forEachParallel(cx, len(ends), mg.opt.parallelism(), func(i int) {
		w, end := &work[i], ends[i]
		if w.outcome = recorded[end]; w.outcome != nil {
			w.replayed = true
			return
		}
		var sc *cmpScratch
		select {
		case sc = <-free:
		default:
			sc = mg.newScratch()
		}
		defer func() { free <- sc }()
		for m, ctx := range mg.ctxs {
			mg.mapRows(sc, m, pass.relations(ctx, end))
		}
		mg.mapRows(sc, len(mg.ctxs), pass.relations(mg.mctx, end))
		groups := mg.gatherGroups(sc)
		o := &epOutcome{}
		for j := range groups {
			g := &groups[j]
			v, target, merged := g.compare()
			switch {
			case v == ambiguous:
				o.ambiguous++
				// Keys sort by start, so a repeated start is adjacent.
				if n := len(o.forwardStarts); n == 0 || o.forwardStarts[n-1] != g.key.start {
					o.forwardStarts = append(o.forwardStarts, g.key.start)
				}
			case res != nil:
				w.eq.record(mg, v, g.key, "", target, merged)
			case v == pessimistic:
				o.mismatch++
				o.pessim++
			case v == excess || v == optimistic:
				o.mismatch++
				w.fixes = append(w.fixes, fixEntry{key: g.key, state: target})
			}
		}
		w.outcome, w.nGroups = o, len(groups)
		if len(w.fixes) > 0 {
			w.merged = sc.keepMerged()
		}
	})
	csp.Finish()
	if err := cx.Err(); err != nil {
		return 0, err
	}
	esp := sp.Child("emit")
	defer esp.Finish()
	// Replayed endpoints' merged rows are absent from `merged`, as are
	// those of computed endpoints without fixes. That is safe for
	// emitFixes: its closure checks only ever read rows at the endpoints
	// of the fixes themselves, and fix endpoints' merged rows are all
	// present. Fixes accumulate across endpoints so the emission step can
	// aggregate clock-pair kills into few constraints.
	merged := map[graph.NodeID][]relRow{}
	var fixes []fixEntry
	nGroups, replayed := 0, 0
	for i := range work {
		w, end := &work[i], ends[i]
		o := w.outcome
		switch {
		case w.replayed:
			replayed++
		case res != nil:
			res.MatchedGroups += w.eq.MatchedGroups
			res.PessimisticGroups += w.eq.PessimisticGroups
			res.OptimisticMismatches = append(res.OptimisticMismatches, w.eq.OptimisticMismatches...)
		case len(w.fixes) > 0:
			fixes = append(fixes, w.fixes...)
			merged[end] = w.merged
		default:
			// Fixless outcome: replayable next iteration while the
			// endpoint stays outside the invalidation frontier.
			mg.memo.recordEp(pass.idx, end, o)
		}
		nGroups += w.nGroups
		*pass.ambiguous += o.ambiguous
		*pass.mismatch += o.mismatch
		mg.Report.PessimisticGroups += o.pessim
		if len(o.forwardStarts) > 0 {
			forward(end, o.forwardStarts)
		}
	}
	added := mg.emitFixes(fixes, merged, pass.stage, pass.rule)
	sp.Add("path_groups", int64(nGroups))
	sp.Add("fixes", int64(len(fixes)))
	sp.Add("replayed_endpoints", int64(replayed))
	return added, nil
}

// fixEntry is one corrective constraint request: a mismatching path group
// plus the target state the merged mode must be brought to (StateFalse →
// a false path, Multicycle → a multicycle path, Max/MinDelay → a delay
// bound).
type fixEntry struct {
	key   relKey
	state relation.State
}

// fixException builds the corrective exception skeleton for a target
// state and check side.
func fixException(state relation.State, check relation.CheckType) *sdc.Exception {
	e := &sdc.Exception{From: &sdc.PointList{}, To: &sdc.PointList{},
		Comment: "inferred by relationship refinement", Multiplier: 1}
	switch state.Kind {
	case relation.Multicycle:
		e.Kind = sdc.MulticyclePath
		e.Multiplier = state.Mult
	case relation.MaxDelayK:
		e.Kind = sdc.MaxDelay
		e.Value = state.Value
	case relation.MinDelayK:
		e.Kind = sdc.MinDelay
		e.Value = state.Value
	default:
		e.Kind = sdc.FalsePath
	}
	switch check {
	case relation.Setup:
		e.SetupHold = sdc.MaxOnly
	case relation.Hold:
		e.SetupHold = sdc.MinOnly
	}
	return e
}

// emitFixes turns mismatch entries into corrective constraints, keeping
// the output compact without ever widening a constraint beyond its fixed
// path groups:
//
//   - Entries sharing (launch, capture, check, target state) aggregate
//     into one exception -from [launch] -through {startpoints} -through
//     {endpoints} -to [capture] when the fixed set is the full
//     startpoints×endpoints cartesian product; otherwise one exception
//     per startpoint carries exactly its endpoints.
//   - Pass-1 entries (start sta.AnyStart) aggregate over endpoints only.
//   - Corrective setup and hold twins collapse into one unrestricted
//     exception (see addFalsePath).
//
// merged holds the merged mode's rows at each of the fixes' endpoints,
// in key order; a group without a row is one the merged mode does not
// time.
func (mg *Merger) emitFixes(fixes []fixEntry, merged map[graph.NodeID][]relRow, stage, rule string) int {
	if len(fixes) == 0 {
		return 0
	}
	name := func(id graph.NodeID) string { return mg.g.Node(id).Name }
	// byName lists a node set in name order.
	byName := func(set map[graph.NodeID]bool) []graph.NodeID {
		ids := make([]graph.NodeID, 0, len(set))
		for id := range set {
			ids = append(ids, id)
		}
		slices.SortFunc(ids, mg.compareNodes)
		return ids
	}
	refs := func(ids []graph.NodeID) []sdc.ObjRef {
		out := make([]sdc.ObjRef, 0, len(ids))
		for _, id := range ids {
			out = append(out, mg.objRefFor(name(id)))
		}
		return out
	}

	// Step 1: when every (launch, capture) pair the merged mode times
	// between one start and one end mismatches with the same false
	// target, one unscoped false path covers the whole group — the
	// paper's "set_false_path -to rX/D" CSTR1 form. The check is safe
	// here because `merged` covers every pair of the group.
	type groupID struct{ start, end graph.NodeID }
	fixedKeys := map[relKey]bool{}
	for _, f := range fixes {
		fixedKeys[f.key] = true
	}
	groupOK := map[groupID]bool{}
	for _, f := range fixes {
		if f.state == relation.StateFalse {
			groupOK[groupID{f.key.start, f.key.end}] = true
		}
	}
	// One pass over all groups: any validly timed, unfixed pair disables
	// its (start, end) group.
	for _, rows := range merged {
		for _, r := range rows {
			gid := groupID{r.key.start, r.key.end}
			if groupOK[gid] && !fixedKeys[r.key] && mergedTimes(r.set) {
				groupOK[gid] = false
			}
		}
	}
	added := 0
	var rest []fixEntry
	emittedGroup := map[groupID]bool{}
	for _, f := range fixes {
		gid := groupID{f.key.start, f.key.end}
		if f.state == relation.StateFalse && groupOK[gid] {
			if !emittedGroup[gid] {
				emittedGroup[gid] = true
				e := &sdc.Exception{
					Kind:    sdc.FalsePath,
					From:    &sdc.PointList{},
					To:      &sdc.PointList{Pins: refs([]graph.NodeID{gid.end})},
					Comment: "inferred by relationship refinement",
				}
				if gid.start != sta.AnyStart {
					e.From = &sdc.PointList{Pins: refs([]graph.NodeID{gid.start})}
				}
				mg.addFalsePath(e, stage, rule,
					"every clock pair timed through this path group mismatches with a false target")
				added++
			}
			continue
		}
		rest = append(rest, f)
	}
	fixes = rest
	if len(fixes) == 0 {
		return added
	}
	// Merged clock ids number the names in order, so aggregates sort by
	// clock name.
	type aggKey struct {
		launch, capture int32
		check           relation.CheckType
		state           relation.State
	}
	byAgg := map[aggKey][]fixEntry{}
	var order []aggKey
	for _, f := range fixes {
		k := aggKey{f.key.launch, f.key.capture, f.key.check, f.state}
		if _, seen := byAgg[k]; !seen {
			order = append(order, k)
		}
		byAgg[k] = append(byAgg[k], f)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.launch != b.launch {
			return a.launch < b.launch
		}
		if a.capture != b.capture {
			return a.capture < b.capture
		}
		if a.check != b.check {
			return a.check < b.check
		}
		return a.state.String() < b.state.String()
	})

	// emit writes one exception over the given startpoints (none: the
	// endpoint-granularity group) and endpoints.
	emit := func(k aggKey, starts, ends []graph.NodeID) {
		e := fixException(k.state, k.check)
		e.From = &sdc.PointList{Clocks: []string{mg.ids.names[k.launch]}}
		e.To = &sdc.PointList{Clocks: []string{mg.ids.names[k.capture]}}
		if len(starts) > 0 {
			e.Throughs = append(e.Throughs, &sdc.PointList{Pins: refs(starts)})
		}
		e.Throughs = append(e.Throughs, &sdc.PointList{Pins: refs(ends)})
		mg.addFalsePath(e, stage, rule,
			"merged mode relaxes the most restrictive individual-mode relation")
		added++
	}

	for _, k := range order {
		entries := byAgg[k]
		starts := map[graph.NodeID]bool{}
		ends := map[graph.NodeID]bool{}
		pairs := map[groupID]bool{}
		for _, f := range entries {
			starts[f.key.start] = true
			ends[f.key.end] = true
			pairs[groupID{f.key.start, f.key.end}] = true
		}
		// The AnyStart of pass-1 entries sorts first, as "" sorts before
		// every name.
		ss, es := byName(starts), byName(ends)
		// Cartesian closure: a pair absent from the fixes may still be
		// safely covered when its path group either has no live paths
		// (constraining nothing is harmless) or is already false in the
		// merged mode. Only unfixed pairs the merged mode validly times,
		// found in one walk over the ends' rows, exclude their startpoint
		// from the aggregate (its own pairs are fixed keys).
		excluded := map[graph.NodeID]bool{}
		for _, e := range es {
			for _, r := range merged[e] {
				if r.key.launch == k.launch && r.key.capture == k.capture && r.key.check == k.check &&
					mergedTimes(r.set) && !fixedKeys[r.key] {
					excluded[r.key.start] = true
				}
			}
		}
		var aggStarts, soloStarts []graph.NodeID
		for _, s := range ss {
			if excluded[s] {
				soloStarts = append(soloStarts, s)
			} else {
				aggStarts = append(aggStarts, s)
			}
		}
		if len(aggStarts) > 0 {
			if len(aggStarts) == 1 && aggStarts[0] == sta.AnyStart {
				emit(k, nil, es)
			} else {
				emit(k, aggStarts, es)
			}
		}
		// Startpoints with a validly timed pair keep exactly their own
		// endpoints, grouped by identical endpoint signature.
		bySig := map[string][]graph.NodeID{}
		sigEnds := map[string][]graph.NodeID{}
		var sigOrder []string
		for _, s := range soloStarts {
			var myEnds []graph.NodeID
			for _, e := range es {
				if pairs[groupID{s, e}] {
					myEnds = append(myEnds, e)
				}
			}
			sig := fmt.Sprint(myEnds)
			if _, seen := bySig[sig]; !seen {
				sigOrder = append(sigOrder, sig)
				sigEnds[sig] = myEnds
			}
			bySig[sig] = append(bySig[sig], s)
		}
		for _, sig := range sigOrder {
			group := bySig[sig]
			if len(group) == 1 && group[0] == sta.AnyStart {
				emit(k, nil, sigEnds[sig])
			} else {
				emit(k, group, sigEnds[sig])
			}
		}
	}
	return added
}

// addFalsePath appends an inferred false path, first merging it with an
// existing setup/hold twin into a single both-sides exception. Stage and
// rule feed the provenance record for the inserted (or widened) exception.
func (mg *Merger) addFalsePath(e *sdc.Exception, stage, rule, detail string) {
	if e.SetupHold != sdc.MinMaxBoth {
		twin := e.Clone()
		if e.SetupHold == sdc.MaxOnly {
			twin.SetupHold = sdc.MinOnly
		} else {
			twin.SetupHold = sdc.MaxOnly
		}
		twinKey := twin.Key()
		if i, ok := mg.excKeys.first(mg.merged, twinKey); ok {
			both := e.Clone()
			both.SetupHold = sdc.MinMaxBoth
			mg.merged.Exceptions[i] = both
			mg.excKeys.replaceFirst(twinKey, both)
			mg.memo.pending = append(mg.memo.pending, both)
			mg.provException(stage, rule, both, "", detail+" (merged with setup/hold twin)")
			return
		}
	}
	mg.merged.Exceptions = append(mg.merged.Exceptions, e)
	mg.memo.pending = append(mg.memo.pending, e)
	mg.Report.AddedFalsePaths++
	mg.provException(stage, rule, e, "", detail)
}

// excKeys indexes a mode's exceptions by Key, so addFalsePath finds a
// setup/hold twin without re-keying every exception per insertion. It
// catches up with exceptions appended since its last use; in place, only
// addFalsePath replaces an exception, and it reports that
// (replaceFirst).
type excKeys struct {
	mode *sdc.Mode
	n    int              // exceptions indexed so far
	at   map[string][]int // key → positions, ascending
}

// first returns the position of the first exception of mode with key.
func (ix *excKeys) first(mode *sdc.Mode, key string) (int, bool) {
	if ix.mode != mode || ix.n > len(mode.Exceptions) {
		*ix = excKeys{mode: mode, at: map[string][]int{}}
	}
	for ; ix.n < len(mode.Exceptions); ix.n++ {
		k := mode.Exceptions[ix.n].Key()
		ix.at[k] = append(ix.at[k], ix.n)
	}
	if at := ix.at[key]; len(at) > 0 {
		return at[0], true
	}
	return 0, false
}

// replaceFirst re-indexes the first exception with key, as returned by
// first, after it was replaced by e.
func (ix *excKeys) replaceFirst(key string, e *sdc.Exception) {
	i := ix.at[key][0]
	ix.at[key] = ix.at[key][1:]
	k := e.Key()
	at := ix.at[k]
	j, _ := slices.BinarySearch(at, i)
	ix.at[k] = slices.Insert(at, j, i)
}

// rebuildMergedForRefine is the refinement loop's merged-context rebuild.
// After rebuilding it transfers the previous context's memoized relation
// results for every endpoint NOT forward-reachable from the pins of the
// exceptions added this iteration: an exception-only rebuild changes
// nothing but exceptions, and a new exception can only complete at
// endpoints its pins reach, so relation results everywhere else are
// untouched. The invalidated endpoints also lose their recorded pass
// outcomes.
func (mg *Merger) rebuildMergedForRefine() error {
	prev := mg.mctx
	pending := mg.memo.pending
	mg.memo.pending = nil
	if err := mg.rebuildMergedExcOnly(); err != nil {
		return err
	}
	if mg.opt.Slow.NoCacheTransfer {
		mg.memo.invalidate(nil)
		return nil
	}
	affected := mg.affectedEndpoints(pending)
	if affected == nil {
		mg.memo.invalidate(nil)
		return nil
	}
	mg.mctx.AdoptRelationResults(prev, func(end graph.NodeID) bool { return !affected[end] })
	mg.memo.invalidate(affected)
	return nil
}

// affectedEndpoints marks the nodes forward-reachable from the pins of
// the given exceptions. It returns nil when the effect cannot be bounded
// (an exception that names no graph pins — e.g. clock-to-clock scoping —
// can complete anywhere) and the caller must invalidate everything.
func (mg *Merger) affectedEndpoints(excs []*sdc.Exception) []bool {
	var seeds []graph.NodeID
	for _, e := range excs {
		pins := 0
		collect := func(pl *sdc.PointList) bool {
			if pl == nil {
				return true
			}
			for _, p := range pl.Pins {
				id, ok := mg.g.NodeByName(p.Name)
				if !ok {
					return false
				}
				seeds = append(seeds, id)
				pins++
			}
			return true
		}
		if !collect(e.From) {
			return nil
		}
		for _, t := range e.Throughs {
			if !collect(t) {
				return nil
			}
		}
		if !collect(e.To) {
			return nil
		}
		if pins == 0 {
			return nil
		}
	}
	if len(seeds) == 0 {
		// No new exceptions at all: nothing is invalidated.
		return make([]bool, mg.g.NumNodes())
	}
	return mg.g.ForwardReach(seeds)
}

// pass3 compares one forwarded (start, end) pair at through-point
// granularity, walking the merged mode's through nodes in topological
// order with each node's keys sorted, so emitted fixes (and thus merged
// output and provenance) and res are deterministic. Only groups the
// merged mode times through a node are compared. When refining, it
// collects per (launch, capture, check, target) the frontier of fixed
// nodes not downstream of an already chosen one and emits one constraint
// per frontier. Refinement skips two kinds of node that the equivalence
// check still classifies: the pair's own start and end, which carry the
// whole pair group (pass 2's granularity), and merged nodes marked
// Ambiguous. It returns how many constraints it added.
func (mg *Merger) pass3(sc *cmpScratch, pair [2]graph.NodeID, perModeTR [][]sta.ThroughRel, mergedTR []sta.ThroughRel, res *EquivalenceResult) int {
	// Member through rows per node, mapped into the merged namespace
	// when the merged mode times that node.
	perMode := make([]map[graph.NodeID][]sta.Rel, len(mg.ctxs))
	for m, trs := range perModeTR {
		perMode[m] = make(map[graph.NodeID][]sta.Rel, len(trs))
		for _, tr := range trs {
			perMode[m][tr.Node] = tr.States
		}
	}

	type fixKey struct {
		launch, capture int32
		check           relation.CheckType
		state           relation.State
	}
	chosen := map[fixKey][]graph.NodeID{}
	var chosenOrder []fixKey
	covered := map[fixKey][]bool{} // per key: nodes already downstream of a fix
	// Clock pairs the merged mode times anywhere in this cone; when only
	// one exists, emitted false paths can skip the clock scoping.
	allPairs := map[[2]int32]bool{}

	markCovered := func(k fixKey, n graph.NodeID) {
		reach := mg.g.ForwardReach([]graph.NodeID{n})
		cov := covered[k]
		if cov == nil {
			cov = make([]bool, mg.g.NumNodes())
			covered[k] = cov
		}
		for i, r := range reach {
			if r {
				cov[i] = true
			}
		}
	}

	for _, tr := range mergedTR {
		n := tr.Node
		if res == nil && (n == pair[0] || n == pair[1]) {
			continue
		}
		for m := range mg.ctxs {
			mg.mapRows(sc, m, perMode[m][n])
		}
		mg.mapRows(sc, len(mg.ctxs), tr.States)
		for _, g := range mg.gatherGroups(sc) {
			if g.merged.Empty() {
				continue // only groups the merged mode times through n
			}
			k := g.key
			covKey := fixKey{launch: k.launch, capture: k.capture, check: k.check}
			allPairs[[2]int32{k.launch, k.capture}] = true
			if cov := covered[covKey]; cov != nil && cov[n] {
				continue
			}
			v, target, merged := g.compare()
			switch {
			case v == ambiguous:
				// Reconverging subclasses: a later node resolves them.
			case res != nil:
				res.record(mg, v, k, tr.Name, target, merged)
			case tr.Ambiguous:
				// Some exception matches only part of the through paths
				// here: no fix at any of the node's groups.
			case v == pessimistic:
				mg.Report.PessimisticGroups++
			case v == excess || v == optimistic:
				// Constrain paths through this node to the target state.
				mg.Report.Pass3Mismatch++
				fk := fixKey{k.launch, k.capture, k.check, target}
				if len(chosen[fk]) == 0 {
					chosenOrder = append(chosenOrder, fk)
				}
				chosen[fk] = append(chosen[fk], n)
				markCovered(covKey, n)
			}
		}
	}

	startName, endName := mg.g.Node(pair[0]).Name, mg.g.Node(pair[1]).Name
	for _, fk := range chosenOrder {
		e := fixException(fk.state, fk.check)
		e.Comment = "inferred by pass-3 refinement"
		e.From = &sdc.PointList{Pins: []sdc.ObjRef{mg.objRefFor(startName)}}
		e.Throughs = []*sdc.PointList{{Pins: mg.nodeRefs(chosen[fk])}}
		e.To = &sdc.PointList{Pins: []sdc.ObjRef{mg.objRefFor(endName)}}
		if len(allPairs) > 1 {
			// Several clock pairs share the cone: keep the fix scoped to
			// its own launch/capture clocks (pins move into throughs).
			e.Throughs = append([]*sdc.PointList{{Pins: e.From.Pins}}, e.Throughs...)
			e.Throughs = append(e.Throughs, &sdc.PointList{Pins: e.To.Pins})
			e.From = &sdc.PointList{Clocks: []string{mg.ids.names[fk.launch]}}
			e.To = &sdc.PointList{Clocks: []string{mg.ids.names[fk.capture]}}
		}
		mg.addFalsePath(e, "data_refine/pass3", "§3.2 pass-3 through-point refinement",
			"mismatch localized to through points inside the start-end cone")
	}
	return len(chosenOrder)
}

// objRefFor builds a pin or port reference for a flat name.
func (mg *Merger) objRefFor(name string) sdc.ObjRef {
	if mg.design.PortByName(name) != nil {
		return sdc.ObjRef{Kind: sdc.PortObj, Name: name}
	}
	return sdc.ObjRef{Kind: sdc.PinObj, Name: name}
}
