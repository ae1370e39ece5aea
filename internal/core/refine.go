package core

import (
	"context"
	"fmt"
	"maps"
	"runtime"
	"sort"
	"strings"
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

// mergedTimes reports whether the merged mode actually times the group
// (non-empty and not purely false).
func mergedTimes(gs *groupStates) bool {
	return !gs.merged.Empty() && !gs.merged.Equal(relation.NewSet(relation.StateFalse))
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
// and 2).
func (r *EquivalenceResult) record(v verdict, k sta.RelKey, through string, target, merged relation.State) {
	switch v {
	case match:
		r.MatchedGroups++
	case pessimistic, excess:
		r.PessimisticGroups++
	case optimistic:
		if through != "" {
			through = "-through " + through
		}
		r.OptimisticMismatches = append(r.OptimisticMismatches,
			fmt.Sprintf("%s %s-> %s [%s/%s %s]: individual=%s merged=%s",
				k.Start, through, k.End, k.Launch, k.Capture, k.Check, target, merged))
	}
}

// mapRelKey rewrites a mode-local relation key into the merged clock
// namespace.
func (mg *Merger) mapRelKey(m int, k sta.RelKey) sta.RelKey {
	k.Launch = mg.cmap.mapName(m, k.Launch)
	k.Capture = mg.cmap.mapName(m, k.Capture)
	return k
}

// gatherGroups aligns relation maps of all modes and the merged mode.
// groupStates and their per-mode slices carve out of block arenas — one
// gather allocates a handful of blocks instead of two tiny objects per
// path group.
func (mg *Merger) gatherGroups(perMode []map[sta.RelKey]relation.Set, merged map[sta.RelKey]relation.Set) map[sta.RelKey]*groupStates {
	nModes := len(perMode) // one entry per scenario context, not per base mode
	// First arena block sized to the expected group count (the merged map
	// is normally the union key space); per-endpoint gathers hold a few
	// dozen groups, so a fixed-size block would mostly be waste.
	blockSize := len(merged) + 8
	out := make(map[sta.RelKey]*groupStates, blockSize)
	var gsArena []groupStates
	var setArena []relation.Set
	get := func(k sta.RelKey) *groupStates {
		gs := out[k]
		if gs == nil {
			if len(gsArena) == 0 {
				gsArena = make([]groupStates, blockSize)
				setArena = make([]relation.Set, blockSize*nModes)
			}
			gs = &gsArena[0]
			gsArena = gsArena[1:]
			gs.perMode = setArena[:nModes:nModes]
			setArena = setArena[nModes:]
			out[k] = gs
		}
		return gs
	}
	for m, rels := range perMode {
		for k, set := range rels {
			mk := mg.mapRelKey(m, k)
			gs := get(mk)
			gs.perMode[m].AddSet(set)
		}
	}
	for k, set := range merged {
		get(k).merged = set
	}
	return out
}

// nameSet accumulates deduplicated names with deterministic extraction;
// threePass collects the endpoints pass 1 forwards to pass 2 in it.
type nameSet map[string]bool

func (s nameSet) add(name string) { s[name] = true }

// sorted returns the names in ascending order.
func (s nameSet) sorted() []string {
	out := make([]string, 0, len(s))
	for name := range s {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// sortedRelKeys extracts a relation (or group) map's keys in the
// canonical end/start/launch/capture/check order, so per-endpoint
// classification visits groups deterministically instead of in map
// order.
func sortedRelKeys[V any](m map[sta.RelKey]V) []sta.RelKey {
	keys := make([]sta.RelKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sta.SortRelKeys(keys)
	return keys
}

// epOutcome records one endpoint's complete pass-1 (or pass-2) effect in
// an iteration that produced no fixes for it: the report-counter deltas
// and the startpoints of its ambiguous groups, which it forwarded to the
// next pass (pass-1 keys all start at "*"). An unaffected endpoint — not
// forward-reachable from any exception added since — classifies
// identically in the next iteration (member relations never change and
// its merged relations are untouched), so the recorded outcome replays
// without recomputing or even touching the relation maps. Endpoints that
// produced fixes never replay: a fix's pins always include the endpoint
// itself, so it lands in the invalidation frontier.
type epOutcome struct {
	ambiguous, mismatch, pessim int
	forwardStarts               []string
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

	// ---- Pass 1: endpoint granularity ----
	p1 := sp.Child("pass1")
	ends := mg.g.Endpoints()
	pass2 := nameSet{} // ambiguous endpoints forwarded to pass 2
	n, err := mg.comparePass(cx, p1, ends, endpointPass{
		idx:       0,
		stage:     "data_refine/pass1",
		rule:      "§3.2 pass-1 endpoint comparison",
		fill:      (*sta.Context).FillEndpointRelations,
		relations: (*sta.Context).EndpointRelationsAt,
		ambiguous: &mg.Report.Pass1Ambiguous,
		mismatch:  &mg.Report.Pass1Mismatch,
	}, res, func(end graph.NodeID, _ []string) { pass2.add(mg.g.Node(end).Name) })
	p1.Finish()
	added += n
	if err != nil {
		return added, err
	}

	// ---- Pass 2: startpoint–endpoint granularity ----
	p2 := sp.Child("pass2")
	pass2Ends := pass2.sorted()
	pass2IDs := make([]graph.NodeID, len(pass2Ends))
	for i, name := range pass2Ends {
		id, ok := mg.g.NodeByName(name)
		if !ok {
			p2.Finish()
			return added, fmt.Errorf("internal: endpoint %q not in graph", name)
		}
		pass2IDs[i] = id
	}
	type sePair struct{ start, end string }
	pass3 := map[sePair]bool{}
	n, err = mg.comparePass(cx, p2, pass2IDs, endpointPass{
		idx:       1,
		stage:     "data_refine/pass2",
		rule:      "§3.2 pass-2 start-end comparison",
		fill:      (*sta.Context).FillStartEndRelations,
		relations: (*sta.Context).StartEndRelations,
		ambiguous: &mg.Report.Pass2Ambiguous,
		mismatch:  &mg.Report.Pass2Mismatch,
	}, res, func(end graph.NodeID, starts []string) {
		name := mg.g.Node(end).Name
		for _, start := range starts {
			pass3[sePair{start, name}] = true
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
	var pairs []sePair
	for p := range pass3 {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].start != pairs[j].start {
			return pairs[i].start < pairs[j].start
		}
		return pairs[i].end < pairs[j].end
	})
	// Relations per pair compute in parallel; comparison and constraint
	// emission stay sequential and deterministic.
	type p3data struct {
		perMode [][]sta.ThroughRel
		merged  []sta.ThroughRel
		ids     [2]graph.NodeID
		replay  *pairOutcome
		err     error
	}
	data := make([]p3data, len(pairs))
	forEachParallel(cx, len(pairs), mg.opt.parallelism(), func(i int) {
		startID, ok1 := mg.g.NodeByName(pairs[i].start)
		endID, ok2 := mg.g.NodeByName(pairs[i].end)
		if !ok1 || !ok2 {
			data[i].err = fmt.Errorf("internal: pass-3 pair %s→%s not in graph", pairs[i].start, pairs[i].end)
			return
		}
		data[i].ids = [2]graph.NodeID{startID, endID}
		if o := mg.memo.p3Out[data[i].ids]; o != nil {
			data[i].replay = o
			return
		}
		perMode := make([][]sta.ThroughRel, len(mg.ctxs))
		for m, ctx := range mg.ctxs {
			perMode[m] = ctx.ThroughRelations(startID, endID)
		}
		data[i].perMode = perMode
		data[i].merged = mg.mctx.ThroughRelations(startID, endID)
	})
	if err := cx.Err(); err != nil {
		return added, err
	}
	p3Replayed := 0
	for i := range pairs {
		if data[i].err != nil {
			return added, data[i].err
		}
		if o := data[i].replay; o != nil {
			p3Replayed++
			mg.Report.Pass3Mismatch += o.mismatch
			mg.Report.PessimisticGroups += o.pessim
			continue
		}
		mis0, pes0 := mg.Report.Pass3Mismatch, mg.Report.PessimisticGroups
		n := mg.pass3(data[i].ids, data[i].perMode, data[i].merged, res)
		added += n
		if n == 0 && res == nil {
			// An emitting pair invalidates its own endpoint (the fix pins
			// include it); only silent pairs are replayable.
			mg.memo.recordP3(data[i].ids, &pairOutcome{
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
// Passes 1 and 2 run the same loop and differ only in the relation maps
// they fill and compare and in what an ambiguous group forwards.
type endpointPass struct {
	idx         int // refineMemo.epOut slot: 0 for pass 1, 1 for pass 2
	stage, rule string
	fill        func(ctx *sta.Context, ends []graph.NodeID)
	relations   func(ctx *sta.Context, end graph.NodeID) map[sta.RelKey]relation.Set
	// ambiguous and mismatch point at the pass's Report counters.
	ambiguous, mismatch *int
}

// comparePass runs one endpoint-keyed pass over ends and returns how many
// constraints it added (always 0 when classifying into res). When
// refining, endpoints with an outcome recorded in the previous iteration
// replay it without touching any relation map. Every context first fills
// the maps of the endpoints without a replay (pass.fill, one batched
// cone propagation), in parallel across contexts; the per-endpoint
// gathers then run in parallel as memo reads. Classification and fix emission stay sequential, in ends
// order with sorted keys, so emitted constraints, counters and res are
// deterministic.
// forward receives each endpoint that has ambiguous groups, with their
// startpoints in key order.
func (mg *Merger) comparePass(cx context.Context, sp *obs.Span, ends []graph.NodeID,
	pass endpointPass, res *EquivalenceResult, forward func(end graph.NodeID, starts []string)) (int, error) {
	recorded := mg.memo.epOut[pass.idx]
	type endpointWork struct {
		replay *epOutcome
		groups map[sta.RelKey]*groupStates
		keys   []sta.RelKey
	}
	var cold []graph.NodeID
	for _, end := range ends {
		if recorded[end] == nil {
			cold = append(cold, end)
		}
	}
	mg.eachContext(cx, func(ctx *sta.Context) { pass.fill(ctx, cold) })
	work := make([]endpointWork, len(ends))
	forEachParallel(cx, len(ends), mg.opt.parallelism(), func(i int) {
		end := ends[i]
		if o := recorded[end]; o != nil {
			work[i].replay = o
			return
		}
		perMode := make([]map[sta.RelKey]relation.Set, len(mg.ctxs))
		for m, ctx := range mg.ctxs {
			perMode[m] = pass.relations(ctx, end)
		}
		work[i].groups = mg.gatherGroups(perMode, pass.relations(mg.mctx, end))
		work[i].keys = sortedRelKeys(work[i].groups)
	})
	if err := cx.Err(); err != nil {
		return 0, err
	}
	// Replayed endpoints' groups are absent from `groups`, as are those of
	// computed endpoints without fixes. That is safe for emitFixes: its
	// closure checks only ever look up groups at the endpoints of the
	// fixes themselves, and fix endpoints' groups are all present. Fixes
	// accumulate across endpoints so the emission step can aggregate
	// clock-pair kills into few constraints (keys are unique per
	// endpoint, so merging the maps is safe).
	groups := map[sta.RelKey]*groupStates{}
	var fixes []fixEntry
	nGroups, replayed := 0, 0
	for i := range work {
		end := ends[i]
		o := work[i].replay
		if o != nil {
			replayed++
		} else {
			o = &epOutcome{}
			var endFixes []fixEntry
			for _, key := range work[i].keys {
				v, target, merged := work[i].groups[key].compare()
				switch {
				case v == ambiguous:
					o.ambiguous++
					// Keys sort by start, so a repeated start is adjacent.
					if n := len(o.forwardStarts); n == 0 || o.forwardStarts[n-1] != key.Start {
						o.forwardStarts = append(o.forwardStarts, key.Start)
					}
				case res != nil:
					res.record(v, key, "", target, merged)
				case v == pessimistic:
					o.mismatch++
					o.pessim++
				case v == excess || v == optimistic:
					o.mismatch++
					endFixes = append(endFixes, fixEntry{key: key, state: target})
				}
			}
			nGroups += len(work[i].keys)
			if len(endFixes) > 0 {
				fixes = append(fixes, endFixes...)
				maps.Copy(groups, work[i].groups)
			} else if res == nil {
				// Fixless outcome: replayable next iteration while the
				// endpoint stays outside the invalidation frontier.
				mg.memo.recordEp(pass.idx, end, o)
			}
		}
		*pass.ambiguous += o.ambiguous
		*pass.mismatch += o.mismatch
		mg.Report.PessimisticGroups += o.pessim
		if len(o.forwardStarts) > 0 {
			forward(end, o.forwardStarts)
		}
	}
	added := mg.emitFixes(fixes, groups, pass.stage, pass.rule)
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
	key   sta.RelKey
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
//   - Pass-1 entries (start "*") aggregate over endpoints only.
//   - Corrective setup and hold twins collapse into one unrestricted
//     exception (see addFalsePath).
func (mg *Merger) emitFixes(fixes []fixEntry, groups map[sta.RelKey]*groupStates, stage, rule string) int {
	if len(fixes) == 0 {
		return 0
	}

	// Step 1: when every (launch, capture) pair the merged mode times
	// between one start and one end mismatches with the same false
	// target, one unscoped false path covers the whole group — the
	// paper's "set_false_path -to rX/D" CSTR1 form. The check is safe
	// here because `groups` contains every pair of the group.
	type groupID struct{ start, end string }
	fixedKeys := map[sta.RelKey]bool{}
	for _, f := range fixes {
		fixedKeys[f.key] = true
	}
	groupOK := map[groupID]bool{}
	for _, f := range fixes {
		if f.state == relation.StateFalse {
			groupOK[groupID{f.key.Start, f.key.End}] = true
		}
	}
	// One pass over all groups: any validly timed, unfixed pair disables
	// its (start, end) group.
	for gk, gs := range groups {
		gid := groupID{gk.Start, gk.End}
		if ok, interesting := groupOK[gid]; !interesting || !ok {
			continue
		}
		if gs.merged.Empty() {
			continue
		}
		if !fixedKeys[gk] && !gs.merged.Equal(relation.NewSet(relation.StateFalse)) {
			groupOK[gid] = false
		}
	}
	added := 0
	var rest []fixEntry
	emittedGroup := map[groupID]bool{}
	for _, f := range fixes {
		gid := groupID{f.key.Start, f.key.End}
		if f.state == relation.StateFalse && groupOK[gid] {
			if !emittedGroup[gid] {
				emittedGroup[gid] = true
				e := &sdc.Exception{
					Kind:    sdc.FalsePath,
					From:    &sdc.PointList{},
					To:      &sdc.PointList{Pins: []sdc.ObjRef{mg.objRefFor(gid.end)}},
					Comment: "inferred by relationship refinement",
				}
				if gid.start != "*" && gid.start != "" {
					e.From = &sdc.PointList{Pins: []sdc.ObjRef{mg.objRefFor(gid.start)}}
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
	type aggKey struct {
		launch, capture string
		check           relation.CheckType
		state           relation.State
	}
	byAgg := map[aggKey][]fixEntry{}
	var order []aggKey
	for _, f := range fixes {
		k := aggKey{f.key.Launch, f.key.Capture, f.key.Check, f.state}
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

	emit := func(k aggKey, starts, ends []string) {
		e := fixException(k.state, k.check)
		e.From = &sdc.PointList{Clocks: []string{k.launch}}
		e.To = &sdc.PointList{Clocks: []string{k.capture}}
		if len(starts) > 0 {
			refs := make([]sdc.ObjRef, 0, len(starts))
			for _, s := range starts {
				refs = append(refs, mg.objRefFor(s))
			}
			e.Throughs = append(e.Throughs, &sdc.PointList{Pins: refs})
		}
		refs := make([]sdc.ObjRef, 0, len(ends))
		for _, s := range ends {
			refs = append(refs, mg.objRefFor(s))
		}
		e.Throughs = append(e.Throughs, &sdc.PointList{Pins: refs})
		mg.addFalsePath(e, stage, rule,
			"merged mode relaxes the most restrictive individual-mode relation")
		added++
	}

	for _, k := range order {
		entries := byAgg[k]
		starts := map[string]bool{}
		ends := map[string]bool{}
		pairs := map[[2]string]bool{}
		for _, f := range entries {
			start := f.key.Start
			if start == "*" {
				start = ""
			}
			starts[start] = true
			ends[f.key.End] = true
			pairs[[2]string{start, f.key.End}] = true
		}
		sortedKeys := func(m map[string]bool) []string {
			out := make([]string, 0, len(m))
			for s := range m {
				out = append(out, s)
			}
			sort.Strings(out)
			return out
		}
		ss, es := sortedKeys(starts), sortedKeys(ends)
		// Cartesian closure: a pair absent from the fixes may still be
		// safely covered when its path group either has no live paths
		// (constraining nothing is harmless) or is already false in the
		// merged mode. Only pairs the merged mode validly times exclude
		// their startpoint from the aggregate.
		closureSafe := func(s, e string) bool {
			if pairs[[2]string{s, e}] {
				return true
			}
			start := s
			if start == "" {
				start = "*"
			}
			gk := sta.RelKey{Start: start, End: e, Launch: k.launch, Capture: k.capture, Check: k.check}
			gs, exists := groups[gk]
			if !exists {
				return true // no such path group
			}
			return fixedKeys[gk] || !mergedTimes(gs)
		}
		var aggStarts, soloStarts []string
		for _, s := range ss {
			ok := true
			for _, e := range es {
				if !closureSafe(s, e) {
					ok = false
					break
				}
			}
			if ok {
				aggStarts = append(aggStarts, s)
			} else {
				soloStarts = append(soloStarts, s)
			}
		}
		if len(aggStarts) > 0 {
			if len(aggStarts) == 1 && aggStarts[0] == "" {
				emit(k, nil, es)
			} else {
				emit(k, aggStarts, es)
			}
		}
		// Startpoints with a validly timed pair keep exactly their own
		// endpoints, grouped by identical endpoint signature.
		bySig := map[string][]string{}
		sigEnds := map[string][]string{}
		var sigOrder []string
		for _, s := range soloStarts {
			var myEnds []string
			for _, e := range es {
				if pairs[[2]string{s, e}] {
					myEnds = append(myEnds, e)
				}
			}
			sig := strings.Join(myEnds, "\x00")
			if _, seen := bySig[sig]; !seen {
				sigOrder = append(sigOrder, sig)
				sigEnds[sig] = myEnds
			}
			bySig[sig] = append(bySig[sig], s)
		}
		for _, sig := range sigOrder {
			group := bySig[sig]
			if len(group) == 1 && group[0] == "" {
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
		for i, have := range mg.merged.Exceptions {
			if have.Key() == twinKey {
				both := e.Clone()
				both.SetupHold = sdc.MinMaxBoth
				mg.merged.Exceptions[i] = both
				mg.memo.pending = append(mg.memo.pending, both)
				mg.provException(stage, rule, both, "", detail+" (merged with setup/hold twin)")
				return
			}
		}
	}
	mg.merged.Exceptions = append(mg.merged.Exceptions, e)
	mg.memo.pending = append(mg.memo.pending, e)
	mg.Report.AddedFalsePaths++
	mg.provException(stage, rule, e, "", detail)
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
func (mg *Merger) pass3(ids [2]graph.NodeID, perModeTR [][]sta.ThroughRel, mergedTR []sta.ThroughRel, res *EquivalenceResult) int {
	// Member through relations per node, keys in the merged namespace.
	perMode := make([]map[graph.NodeID]map[sta.RelKey]relation.Set, len(mg.ctxs))
	for m := range mg.ctxs {
		perMode[m] = make(map[graph.NodeID]map[sta.RelKey]relation.Set, len(perModeTR[m]))
		for _, tr := range perModeTR[m] {
			mapped := make(map[sta.RelKey]relation.Set, len(tr.States))
			for k, set := range tr.States {
				mapped[mg.mapRelKey(m, k)] = set
			}
			perMode[m][tr.Node] = mapped
		}
	}

	type fixKey struct {
		launch, capture string
		check           relation.CheckType
		state           relation.State
	}
	chosen := map[fixKey][]graph.NodeID{}
	var chosenOrder []fixKey
	covered := map[fixKey][]bool{} // per key: nodes already downstream of a fix
	// Clock pairs the merged mode times anywhere in this cone; when only
	// one exists, emitted false paths can skip the clock scoping.
	allPairs := map[[2]string]bool{}

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

	gs := groupStates{perMode: make([]relation.Set, len(mg.ctxs))}
	for _, tr := range mergedTR {
		n := tr.Node
		if res == nil && (n == ids[0] || n == ids[1]) {
			continue
		}
		for _, k := range sortedRelKeys(tr.States) {
			covKey := fixKey{launch: k.Launch, capture: k.Capture, check: k.Check}
			allPairs[[2]string{k.Launch, k.Capture}] = true
			if cov := covered[covKey]; cov != nil && cov[n] {
				continue
			}
			for m := range perMode {
				gs.perMode[m] = perMode[m][n][k]
			}
			gs.merged = tr.States[k]
			v, target, merged := gs.compare()
			switch {
			case v == ambiguous:
				// Reconverging subclasses: a later node resolves them.
			case res != nil:
				res.record(v, k, tr.Name, target, merged)
			case tr.Ambiguous:
				// Some exception matches only part of the through paths
				// here: no fix at any of the node's groups.
			case v == pessimistic:
				mg.Report.PessimisticGroups++
			case v == excess || v == optimistic:
				// Constrain paths through this node to the target state.
				mg.Report.Pass3Mismatch++
				fk := fixKey{k.Launch, k.Capture, k.Check, target}
				if len(chosen[fk]) == 0 {
					chosenOrder = append(chosenOrder, fk)
				}
				chosen[fk] = append(chosen[fk], n)
				markCovered(covKey, n)
			}
		}
	}

	startName, endName := mg.g.Node(ids[0]).Name, mg.g.Node(ids[1]).Name
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
			e.From = &sdc.PointList{Clocks: []string{fk.launch}}
			e.To = &sdc.PointList{Clocks: []string{fk.capture}}
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
