package sta

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"

	"modemerge/internal/graph"
	"modemerge/internal/relation"
	"modemerge/internal/sdc"
)

// RelKey identifies one timing-relationship path group. Clock names are in
// the context's local namespace; the merging core maps them into the
// merged namespace before comparing across modes.
type RelKey struct {
	Start   string // "*" at endpoint granularity
	End     string
	Launch  string
	Capture string
	Check   relation.CheckType
}

// EndpointRelations computes pass-1 timing relationships: for every
// endpoint and (launch clock, capture clock, check side), the set of
// constraint states over all paths reaching it. Path groups with no live
// paths are absent; callers treat absence as "not timed" (false).
//
// It is one FillEndpointRelations over every endpoint followed by map
// assembly, so repeated calls across refinement iterations are pure
// assembly from the context's relation memo (relcache.go). Cancelling cx
// aborts the assembly early; the returned map is then partial and the
// caller must consult cx.Err() before trusting it.
func (ctx *Context) EndpointRelations(cx context.Context) map[RelKey]relation.Set {
	sp := ctx.Opt.Span.Child("endpoint_relations")
	defer sp.Finish()
	ends := ctx.G.Endpoints()
	sp.Add("endpoints", int64(len(ends)))
	hits0, misses0 := ctx.RelCacheStats()
	defer func() {
		hits1, misses1 := ctx.RelCacheStats()
		sp.Add("cache_hits", hits1-hits0)
		sp.Add("cache_misses", misses1-misses0)
	}()
	ctx.FillEndpointRelations(ends)
	out := map[RelKey]relation.Set{}
	for _, end := range ends {
		if cx.Err() != nil {
			return out
		}
		maps.Copy(out, ctx.EndpointRelationsAt(end))
	}
	sp.Add("path_groups", int64(len(out)))
	return out
}

// accumulateRelations folds one endpoint's tags into relation sets.
// startLabel overrides the start field ("*" for pass 1); when empty the
// tag's tracked startpoint name is used.
//
// Entries group by (startpoint, launch clock) first: a relation key is a
// function of exactly that pair (plus the loop's capture/check), so each
// key's state set folds from one group — with a single map write per key
// instead of a read-modify-write per tag entry, and with the
// completed()/Winner computation memoized per (vec, trans, capture,
// check), which start-tracked tag sets repeat heavily across startpoints.
// States still Add in tag-entry order within the group, so every set's
// first-insertion order — and thus Set.String() everywhere downstream —
// is byte-identical to the naive per-entry fold.
func (ctx *Context) accumulateRelations(out map[RelKey]relation.Set, end graph.NodeID, m tagMap, startLabel string) {
	if len(m.entries) == 0 {
		return
	}
	endName := ctx.G.Node(end).Name
	captures := ctx.CaptureClocksAt(end)
	// Group key: the tag's startpoint, or one shared bucket when
	// startLabel overrides it (distinct startpoints would collapse onto
	// the same relation key, and splitting them could reorder state
	// insertion).
	type groupKey struct {
		start  graph.NodeID
		launch ClockID
	}
	// Two-pass grouping into one exact-size index arena: assign each
	// entry a dense group id, count, then fill — no per-group slice
	// growth. Group order is first-appearance order, entry order is
	// preserved within each group.
	gidOf := make(map[groupKey]int32)
	var order []groupKey
	var counts []int32
	entryGid := make([]int32, len(m.entries))
	used := 0
	for i := range m.entries {
		tag := m.entries[i].tag
		if tag.launch == NoClock {
			entryGid[i] = -1
			continue
		}
		gk := groupKey{start: tag.start, launch: tag.launch}
		if startLabel != "" {
			gk.start = -2
		}
		gid, seen := gidOf[gk]
		if !seen {
			gid = int32(len(order))
			gidOf[gk] = gid
			order = append(order, gk)
			counts = append(counts, 0)
		}
		entryGid[i] = gid
		counts[gid]++
		used++
	}
	idxArena := make([]int32, used)
	groupIdx := make([][]int32, len(order))
	{
		off := int32(0)
		for gid, c := range counts {
			groupIdx[gid] = idxArena[off : off : off+c]
			off += c
		}
		for i, gid := range entryGid {
			if gid >= 0 {
				groupIdx[gid] = append(groupIdx[gid], int32(i))
			}
		}
	}
	// stateRow memoizes, per distinct (vec, trans), the winner state for
	// every (capture, check) combination — one map lookup per tag entry
	// in the fold below instead of one per combination.
	checks := [2]relation.CheckType{relation.Setup, relation.Hold}
	type rowKey struct {
		vec   int32
		trans sdc.EdgeSel
	}
	rowMemo := make(map[rowKey][]relation.State)
	stateRow := func(vec int32, trans sdc.EdgeSel) []relation.State {
		k := rowKey{vec: vec, trans: trans}
		if row, ok := rowMemo[k]; ok {
			return row
		}
		row := make([]relation.State, 2*len(captures))
		for ci, ct := range captures {
			for hi, check := range checks {
				winner := sdc.Winner(ctx.exc.completed(vec, end, ct.Clock, trans, check))
				st := stateOf(winner)
				if winner != nil {
					// Normalize kinds that do not apply to this side.
					switch {
					case check == relation.Setup && winner.Kind == sdc.MinDelay:
						st = relation.StateValid
					case check == relation.Hold && winner.Kind == sdc.MaxDelay:
						st = relation.StateValid
					}
				}
				row[2*ci+hi] = st
			}
		}
		rowMemo[k] = row
		return row
	}
	var rows [][]relation.State // scratch, reused across groups
	for gi, gk := range order {
		start := startLabel
		if start == "" {
			if gk.start < 0 {
				start = "*"
			} else {
				start = ctx.G.Node(gk.start).Name
			}
		}
		launchName := ctx.Clocks[gk.launch].Def.Name
		idxs := groupIdx[gi]
		rows = rows[:0]
		for _, i := range idxs {
			tag := m.entries[i].tag
			rows = append(rows, stateRow(tag.vec, tag.trans))
		}
		for ci, ct := range captures {
			capName := ctx.Clocks[ct.Clock].Def.Name
			excl := ctx.Exclusive(gk.launch, ct.Clock)
			for hi, check := range checks {
				key := RelKey{Start: start, End: endName, Launch: launchName, Capture: capName, Check: check}
				set := out[key]
				if excl {
					set.Add(relation.StateFalse)
				} else {
					for _, row := range rows {
						set.Add(row[2*ci+hi])
					}
				}
				out[key] = set
			}
		}
	}
}

// ThroughRel is the pass-3 result for one candidate through node between a
// startpoint and an endpoint.
type ThroughRel struct {
	Node graph.NodeID
	Name string
	// States holds the per-(launch, capture, check) state sets of all
	// paths start→node→end. Keys carry Start and End names.
	States map[RelKey]relation.Set
	// Ambiguous marks nodes where some exception matched only part of the
	// through paths — a finer granularity than pass 3 would be required,
	// which the algorithm does not expect (paper: "No ambiguity is
	// expected at this phase"). The affected groups hold both V and FP;
	// refinement places no pass-3 fix at such a merged node at all.
	Ambiguous bool
}

// suffix-completion status for the pass-3 DP.
type suffStatus int8

const (
	suffNone suffStatus = iota
	suffAll
	suffSome
)

func combineSuff(a, b suffStatus) suffStatus {
	if a == b {
		return a
	}
	return suffSome
}

// ThroughRelations computes pass-3 timing relationships: for every node on
// a path between start and end, the constraint states of the path subset
// through that node. It combines forward tags (prefix exception progress)
// from a propagation seeded at start and restricted to the start→end cone
// with a backward all/none/some completion DP per exception. Results are
// memoized per (start, end) pair unless DisableRelationMemo. The returned
// slice is shared and must not be mutated.
func (ctx *Context) ThroughRelations(start, end graph.NodeID) []ThroughRel {
	if ctx.Opt.DisableRelationMemo {
		return ctx.throughRelations(start, end)
	}
	rc := ctx.relSlots()
	key := [2]graph.NodeID{start, end}
	if v, ok := rc.through.Load(key); ok {
		rc.hits.Add(1)
		return v.([]ThroughRel)
	}
	out := ctx.throughRelations(start, end)
	rc.through.Store(key, out)
	rc.misses.Add(1)
	return out
}

func (ctx *Context) throughRelations(start, end graph.NodeID) []ThroughRel {
	g := ctx.G
	fwd := g.ForwardReach([]graph.NodeID{start})
	bwd := g.BackwardReach([]graph.NodeID{end})
	cone := make([]bool, g.NumNodes())
	var coneNodes []graph.NodeID
	for _, id := range g.Topo() {
		if fwd[id] && bwd[id] {
			cone[id] = true
			coneNodes = append(coneNodes, id)
		}
	}
	if len(coneNodes) == 0 {
		return nil
	}

	tags, release := ctx.propagate(propOpts{
		withStart:  true,
		nodeFilter: cone,
		seedFilter: func(s graph.NodeID) bool { return s == start },
	})
	defer release()

	// Backward DP per exception: status[n][p] with p = progress after n.
	// The DP for one matcher is independent of the others, so it computes
	// lazily on first consultation — a tag's progress vector leaves most
	// matchers dead, and dead matchers are never consulted.
	nExc := len(ctx.exc.matchers)
	type excDP struct {
		full          int8
		edgeSensitive bool
		status        map[graph.NodeID][]suffStatus // nil until ensured
	}
	dps := make([]excDP, nExc)
	for i := range dps {
		m := &ctx.exc.matchers[i]
		dp := excDP{full: int8(len(m.throughs))}
		if m.toEdge != sdc.EdgeBoth {
			dp.edgeSensitive = true
		}
		for _, e := range m.thruEdges {
			if e != sdc.EdgeBoth {
				dp.edgeSensitive = true
			}
		}
		dps[i] = dp
	}
	ensureDP := func(i int32) *excDP {
		dp := &dps[i]
		if dp.status != nil {
			return dp
		}
		m := &ctx.exc.matchers[i]
		dp.status = make(map[graph.NodeID][]suffStatus, len(coneNodes))
		// Reverse topological order over cone nodes.
		for ci := len(coneNodes) - 1; ci >= 0; ci-- {
			n := coneNodes[ci]
			st := make([]suffStatus, dp.full+1)
			for p := int8(0); p <= dp.full; p++ {
				if n == end {
					if p == dp.full {
						st[p] = suffAll
					} else {
						st[p] = suffNone
					}
					continue
				}
				first := true
				var acc suffStatus
				for _, ai := range g.OutArcs(n) {
					if ctx.ArcDisabled[ai] {
						continue
					}
					a := g.Arc(ai)
					if !cone[a.To] || a.Kind == graph.LaunchArc && n != start {
						continue
					}
					succ := a.To
					pp := advanceOne(m, p, succ, sdc.EdgeBoth)
					sStat := dp.status[succ][pp]
					if first {
						acc = sStat
						first = false
					} else {
						acc = combineSuff(acc, sStat)
					}
				}
				if first {
					acc = suffNone
				}
				st[p] = acc
			}
			dp.status[n] = st
		}
		return dp
	}

	endName := g.Node(end).Name
	startName := g.Node(start).Name
	captures := ctx.CaptureClocksAt(end)
	liveBwd := ctx.liveBwdMemo(end)

	// Per-node state sets accumulate in a dense (launch, capture, check)
	// scratch matrix instead of a RelKey-keyed map: every key of one
	// node's States shares Start/End, so the map's read-modify-write per
	// (entry, capture, check) — each hashing a four-string key — collapses
	// to an index. The map materializes once per node; each cell's state
	// insertion order is untouched (same Add sequence as before).
	checks := [2]relation.CheckType{relation.Setup, relation.Hold}
	nCaps := len(captures)
	cells := make([]relation.Set, len(ctx.Clocks)*nCaps*2)
	cellGen := make([]int32, len(cells))
	gen := int32(0)
	var touched []int32

	var out []ThroughRel
	for _, n := range coneNodes {
		entries := tags[n].entries
		if len(entries) == 0 || !liveBwd[n] {
			// No live paths start→n or n→end in this mode: the node's
			// path subset is empty here and contributes no states.
			continue
		}
		tr := ThroughRel{Node: n, Name: g.Node(n).Name}
		gen++
		touched = touched[:0]
		for _, te := range entries {
			tag := te.tag
			if tag.launch == NoClock {
				continue
			}
			vec := ctx.exc.vec(tag.vec)
			alive := ctx.exc.aliveCandidates(tag.vec)
			for ci, ct := range captures {
				for hi, check := range checks {
					idx := (int(tag.launch)*nCaps+ci)*2 + hi
					if cellGen[idx] != gen {
						cellGen[idx] = gen
						cells[idx] = relation.Set{}
						touched = append(touched, int32(idx))
					}
					set := &cells[idx]
					if ctx.Exclusive(tag.launch, ct.Clock) {
						set.Add(relation.StateFalse)
						continue
					}
					var winners []*sdc.Exception
					ambiguous := false
					for _, i := range alive {
						mi := &ctx.exc.matchers[i]
						if !mi.appliesTo(check) {
							continue
						}
						toAcc := len(mi.toNodes) == 0 && len(mi.toClocks) == 0 ||
							mi.toNodes[end] || mi.toClocks[ct.Clock]
						if !toAcc {
							continue
						}
						dp := ensureDP(i)
						var stat suffStatus
						if n == end {
							if vec[i] == dp.full {
								stat = suffAll
							} else {
								stat = suffNone
							}
						} else {
							stat = dp.status[n][vec[i]]
						}
						if dp.edgeSensitive && stat != suffNone {
							ambiguous = true
							continue
						}
						switch stat {
						case suffAll:
							winners = append(winners, mi.e)
						case suffSome:
							ambiguous = true
						}
					}
					if ambiguous {
						tr.Ambiguous = true
						// Record both possibilities so comparisons see an
						// ambiguous (multi-state) set.
						set.Add(relation.StateValid)
						set.Add(relation.StateFalse)
					} else {
						set.Add(stateOf(sdc.Winner(winners)))
					}
				}
			}
		}
		tr.States = make(map[RelKey]relation.Set, len(touched))
		for _, idx := range touched {
			launch := ClockID(int(idx) / (nCaps * 2))
			ci := (int(idx) / 2) % nCaps
			hi := int(idx) % 2
			key := RelKey{
				Start:   startName,
				End:     endName,
				Launch:  ctx.Clocks[launch].Def.Name,
				Capture: ctx.Clocks[captures[ci].Clock].Def.Name,
				Check:   checks[hi],
			}
			tr.States[key] = cells[idx]
		}
		out = append(out, tr)
	}
	return out
}

// liveBackwardReach marks the nodes from which the endpoint is reachable
// over arcs live in this mode (disabled arcs, disabled nodes and
// case-constant nodes block).
func (ctx *Context) liveBackwardReach(end graph.NodeID) []bool {
	g := ctx.G
	mark := make([]bool, g.NumNodes())
	if ctx.NodeDisabled[end] || ctx.Consts[end].Known() {
		return mark
	}
	mark[end] = true
	stack := []graph.NodeID{end}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ai := range g.InArcs(id) {
			if ctx.ArcDisabled[ai] {
				continue
			}
			from := g.Arc(ai).From
			if mark[from] || ctx.NodeDisabled[from] || ctx.Consts[from].Known() {
				continue
			}
			mark[from] = true
			stack = append(stack, from)
		}
	}
	return mark
}

// RelationTable renders a relation map as sorted rows (debug/report aid).
func RelationTable(rels map[RelKey]relation.Set) []string {
	var keys []RelKey
	for k := range rels {
		keys = append(keys, k)
	}
	SortRelKeys(keys)
	var out []string
	for _, k := range keys {
		out = append(out, fmt.Sprintf("%s -> %s [%s/%s %s]: %s",
			k.Start, k.End, k.Launch, k.Capture, k.Check, rels[k].String()))
	}
	return out
}

// SortRelKeys sorts relation keys by (End, Start, Launch, Capture,
// Check) — the deterministic comparison order shared by the refinement
// passes and the equivalence checker.
func SortRelKeys(keys []RelKey) {
	slices.SortFunc(keys, func(a, b RelKey) int {
		if c := strings.Compare(a.End, b.End); c != 0 {
			return c
		}
		if c := strings.Compare(a.Start, b.Start); c != 0 {
			return c
		}
		if c := strings.Compare(a.Launch, b.Launch); c != 0 {
			return c
		}
		if c := strings.Compare(a.Capture, b.Capture); c != 0 {
			return c
		}
		return int(a.Check) - int(b.Check)
	})
}
