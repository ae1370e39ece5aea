package sta

import (
	"cmp"
	"context"
	"slices"
	"strings"

	"modemerge/internal/graph"
	"modemerge/internal/relation"
	"modemerge/internal/sdc"
)

// AnyStart is the Start of an endpoint-granularity (pass-1) key: the
// group of all startpoints, rendered "*".
const AnyStart graph.NodeID = -1

// RelKey identifies one timing-relationship path group by integers:
// graph nodes for its start and end, and clock ids of the context that
// computed it. The merging core maps the clock ids into the merged
// namespace before comparing across modes; names appear only when a key
// is rendered (RelName).
type RelKey struct {
	Start, End      graph.NodeID // Start is AnyStart at endpoint granularity
	Launch, Capture ClockID
	Check           relation.CheckType
}

// Rel is one path group's relation row: its key and the constraint
// states of all its paths.
type Rel struct {
	Key    RelKey
	States relation.Set
}

// RelName is a relation key rendered with node and clock names, the form
// it takes once it leaves the engine.
type RelName struct {
	Start   string // "*" at endpoint granularity
	End     string
	Launch  string
	Capture string
	Check   relation.CheckType
}

// NodeName renders a relation key's node: its name, or "*" for AnyStart.
func NodeName(g *graph.Graph, id graph.NodeID) string {
	if id == AnyStart {
		return "*"
	}
	return g.Node(id).Name
}

// NodeRank orders relation-key nodes by name, AnyStart first.
func NodeRank(g *graph.Graph, id graph.NodeID) int32 {
	if id == AnyStart {
		return -1
	}
	return g.NameRank()[id]
}

// RelName renders a key of this context with its node and clock names.
func (ctx *Context) RelName(k RelKey) RelName {
	return RelName{
		Start:   NodeName(ctx.G, k.Start),
		End:     NodeName(ctx.G, k.End),
		Launch:  ctx.Clocks[k.Launch].Def.Name,
		Capture: ctx.Clocks[k.Capture].Def.Name,
		Check:   k.Check,
	}
}

// RelNames renders relation rows of this context as a name-keyed map.
func (ctx *Context) RelNames(rows []Rel) map[RelName]relation.Set {
	out := make(map[RelName]relation.Set, len(rows))
	for _, r := range rows {
		out[ctx.RelName(r.Key)] = r.States
	}
	return out
}

// compareRelKeys orders keys by (End, Start, Launch, Capture, Check)
// with nodes and clocks compared by name — SortRelNames' order on the
// rendered keys. Every row slice the context returns is in this order.
func (ctx *Context) compareRelKeys(a, b RelKey) int {
	if c := cmp.Compare(NodeRank(ctx.G, a.End), NodeRank(ctx.G, b.End)); c != 0 {
		return c
	}
	if c := cmp.Compare(NodeRank(ctx.G, a.Start), NodeRank(ctx.G, b.Start)); c != 0 {
		return c
	}
	if c := cmp.Compare(ctx.clockRank[a.Launch], ctx.clockRank[b.Launch]); c != 0 {
		return c
	}
	if c := cmp.Compare(ctx.clockRank[a.Capture], ctx.clockRank[b.Capture]); c != 0 {
		return c
	}
	return cmp.Compare(a.Check, b.Check)
}

// EndpointRelations computes pass-1 timing relationships: for every
// endpoint and (launch clock, capture clock, check side), the set of
// constraint states over all paths reaching it, keyed by name. Path
// groups with no live paths are absent; callers treat absence as "not
// timed" (false).
//
// It is one FillEndpointRelations over every endpoint followed by
// rendering the memoized rows (relcache.go), so repeated calls are pure
// rendering. Cancelling cx aborts the rendering early; the returned map
// is then partial and the caller must consult cx.Err() before trusting
// it.
func (ctx *Context) EndpointRelations(cx context.Context) map[RelName]relation.Set {
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
	out := map[RelName]relation.Set{}
	for _, end := range ends {
		if cx.Err() != nil {
			return out
		}
		for _, r := range ctx.EndpointRelationsAt(end) {
			out[ctx.RelName(r.Key)] = r.States
		}
	}
	sp.Add("path_groups", int64(len(out)))
	return out
}

// captureClocks appends to dst the distinct clocks that capture at end,
// in clock-name order. A clock can capture on both edges; relation
// states depend on the clock alone, so its two tags share one row.
func (ctx *Context) captureClocks(dst []ClockID, end graph.NodeID) []ClockID {
	for _, ct := range ctx.CaptureClocksAt(end) {
		if !slices.Contains(dst, ct.Clock) {
			dst = append(dst, ct.Clock)
		}
	}
	slices.SortFunc(dst, func(a, b ClockID) int { return cmp.Compare(ctx.clockRank[a], ctx.clockRank[b]) })
	return dst
}

// relFolder folds endpoints' tags into relation rows. Its scratch state
// is reused from one endpoint to the next, and the rows it returns carve
// out of shared chunks, so a fill over many endpoints allocates a few
// chunks rather than a dozen objects per endpoint.
type relFolder struct {
	ctx          *Context
	startTracked bool

	captures []ClockID
	gidOf    map[relGroup]int32
	order    []relGroup
	counts   []int32
	entryGid []int32
	idxArena []int32
	groupIdx [][]int32
	sorted   []int32
	// rowAt memoizes, per distinct (vec, trans), the offset in states of
	// the winner state for every (capture, check) combination.
	rowAt  map[rowKey]int32
	states []relation.State
	rows   []int32 // scratch: one group's row offsets

	chunk []Rel // the rest of the current output chunk
}

// relGroup is a (startpoint, launch clock) pair: every key of one group
// shares them.
type relGroup struct {
	start  graph.NodeID
	launch ClockID
}

type rowKey struct {
	vec   int32
	trans sdc.EdgeSel
}

var relChecks = [2]relation.CheckType{relation.Setup, relation.Hold}

func (ctx *Context) newRelFolder(startTracked bool) *relFolder {
	return &relFolder{ctx: ctx, startTracked: startTracked,
		gidOf: map[relGroup]int32{}, rowAt: map[rowKey]int32{}}
}

// take returns an empty slice with capacity n from the output chunk,
// starting a new chunk when the current one is too small.
func (f *relFolder) take(n int) []Rel {
	if n == 0 {
		return nil
	}
	if len(f.chunk) < n {
		f.chunk = make([]Rel, max(n, 512))
	}
	out := f.chunk[:0:n]
	f.chunk = f.chunk[n:]
	return out
}

// fold folds one endpoint's tags into relation rows in compareRelKeys
// order. Without startTracked every key's start is AnyStart (pass 1);
// with it, the tag's tracked startpoint (pass 2).
//
// Entries group by (startpoint, launch clock) first: a relation key is a
// function of exactly that pair (plus the loop's capture/check), so each
// key's state set folds from one group, with the winner computation
// memoized per (vec, trans, capture, check), which
// start-tracked tag sets repeat heavily across startpoints. States Add
// in tag-entry order within the group, so every set's first-insertion
// order is that of the naive per-entry fold.
func (f *relFolder) fold(end graph.NodeID, m tagSet) []Rel {
	if len(m.entries) == 0 {
		return nil
	}
	ctx := f.ctx
	f.captures = ctx.captureClocks(f.captures[:0], end)
	captures := f.captures
	// Two-pass grouping into one exact-size index arena: assign each
	// entry a dense group id, count, then fill. Entry order is preserved
	// within each group.
	clear(f.gidOf)
	f.order, f.counts = f.order[:0], f.counts[:0]
	f.entryGid = slices.Grow(f.entryGid[:0], len(m.entries))[:len(m.entries)]
	used := 0
	for i := range m.entries {
		tag := m.entries[i].tag
		if tag.launch == NoClock {
			f.entryGid[i] = -1
			continue
		}
		gk := relGroup{start: AnyStart, launch: tag.launch}
		if f.startTracked && tag.start >= 0 {
			gk.start = tag.start
		}
		gid, seen := f.gidOf[gk]
		if !seen {
			gid = int32(len(f.order))
			f.gidOf[gk] = gid
			f.order = append(f.order, gk)
			f.counts = append(f.counts, 0)
		}
		f.entryGid[i] = gid
		f.counts[gid]++
		used++
	}
	f.idxArena = slices.Grow(f.idxArena[:0], used)[:used]
	f.groupIdx = slices.Grow(f.groupIdx[:0], len(f.order))[:len(f.order)]
	off := int32(0)
	for gid, c := range f.counts {
		f.groupIdx[gid] = f.idxArena[off : off : off+c]
		off += c
	}
	for i, gid := range f.entryGid {
		if gid >= 0 {
			f.groupIdx[gid] = append(f.groupIdx[gid], int32(i))
		}
	}
	// rowOf memoizes, per distinct (vec, trans), the winner state for
	// every (capture, check) combination — one map lookup per tag entry
	// in the fold below instead of one per combination.
	clear(f.rowAt)
	f.states = f.states[:0]
	rowOf := func(vec int32, trans sdc.EdgeSel) int32 {
		k := rowKey{vec: vec, trans: trans}
		if at, ok := f.rowAt[k]; ok {
			return at
		}
		at := int32(len(f.states))
		for _, capture := range captures {
			for _, check := range relChecks {
				f.states = append(f.states, stateOf(ctx.exc.winner(vec, end, capture, trans, check)))
			}
		}
		f.rowAt[k] = at
		return at
	}
	// Groups in key order: captures are already in clock-name order and
	// checks in Check order, so the rows come out sorted.
	f.sorted = f.sorted[:0]
	for i := range f.order {
		f.sorted = append(f.sorted, int32(i))
	}
	slices.SortFunc(f.sorted, func(a, b int32) int {
		ka, kb := f.order[a], f.order[b]
		if c := cmp.Compare(NodeRank(ctx.G, ka.start), NodeRank(ctx.G, kb.start)); c != 0 {
			return c
		}
		return cmp.Compare(ctx.clockRank[ka.launch], ctx.clockRank[kb.launch])
	})
	out := f.take(len(f.order) * len(captures) * len(relChecks))
	for _, gi := range f.sorted {
		gk := f.order[gi]
		f.rows = f.rows[:0]
		for _, i := range f.groupIdx[gi] {
			tag := m.entries[i].tag
			f.rows = append(f.rows, rowOf(tag.vec, tag.trans))
		}
		for ci, capture := range captures {
			excl := ctx.Exclusive(gk.launch, capture)
			for hi, check := range relChecks {
				var set relation.Set
				if excl {
					set.Add(relation.StateFalse)
				} else {
					for _, at := range f.rows {
						set.Add(f.states[int(at)+2*ci+hi])
					}
				}
				out = append(out, Rel{
					Key:    RelKey{Start: gk.start, End: end, Launch: gk.launch, Capture: capture, Check: check},
					States: set,
				})
			}
		}
	}
	return out
}

// ThroughRel is the pass-3 result for one candidate through node between a
// startpoint and an endpoint.
type ThroughRel struct {
	Node graph.NodeID
	Name string
	// States holds the per-(launch, capture, check) state sets of all
	// paths start→node→end, in compareRelKeys order. Keys carry the
	// pair's start and end.
	States []Rel
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

// ThroughRelations computes pass-3 timing relationships: for every node
// of the cone between start and end, the constraint states of the path
// subset through that node. It combines forward tags (prefix exception
// progress) from a propagation seeded at start and restricted to the
// cone with a backward all/none/some completion DP per exception. The
// cone depends on the graph alone, so callers comparing several modes
// build it once per pair. Results are memoized per (start, end) pair
// unless DisableRelationMemo. The returned slice is shared and must not
// be mutated.
func (ctx *Context) ThroughRelations(cone *graph.Cone) []ThroughRel {
	if ctx.Opt.DisableRelationMemo {
		return ctx.throughRelations(cone)
	}
	rc := ctx.relSlots()
	key := [2]graph.NodeID{cone.Start, cone.End}
	if v, ok := rc.through.Load(key); ok {
		rc.hits.Add(1)
		return v.([]ThroughRel)
	}
	out := ctx.throughRelations(cone)
	rc.through.Store(key, out)
	rc.misses.Add(1)
	return out
}

func (ctx *Context) throughRelations(cone *graph.Cone) []ThroughRel {
	g := ctx.G
	start, end, coneNodes := cone.Start, cone.End, cone.Nodes
	if len(coneNodes) == 0 {
		return nil
	}

	tags, release := ctx.propagate(propOpts{
		withStart:  true,
		nodeFilter: cone.In,
		seedFilter: func(s graph.NodeID) bool { return s == start },
		tagsOnly:   true,
	})
	defer release()

	// Backward DP per exception: dps[i][row(n)*(full+1)+p] is the suffix
	// completion from n with progress p after n. The DP for one matcher
	// is independent of the others, so it computes lazily on first
	// consultation — a tag's progress vector leaves most matchers dead,
	// and dead matchers are never consulted.
	exc := ctx.exc
	dps := make([][]suffStatus, len(exc.matchers))
	ensureDP := func(i int32) []suffStatus {
		if dps[i] != nil {
			return dps[i]
		}
		full := exc.matchers[i].nThru
		w := int(full) + 1
		st := make([]suffStatus, len(coneNodes)*w)
		// Reverse topological order over cone nodes.
		for ci := len(coneNodes) - 1; ci >= 0; ci-- {
			n := coneNodes[ci]
			at := cone.Index(n) * w
			for p := int8(0); p <= full; p++ {
				acc := suffNone
				if n == end {
					if p == full {
						acc = suffAll
					}
					st[at+int(p)] = acc
					continue
				}
				first := true
				for _, ai := range g.OutArcs(n) {
					if ctx.ArcDisabled[ai] {
						continue
					}
					a := g.Arc(ai)
					if !cone.In[a.To] || a.Kind == graph.LaunchArc && n != start {
						continue
					}
					pp := exc.advanceOne(i, p, a.To, sdc.EdgeBoth)
					sStat := st[cone.Index(a.To)*w+int(pp)]
					if first {
						acc = sStat
						first = false
					} else {
						acc = combineSuff(acc, sStat)
					}
				}
				st[at+int(p)] = acc
			}
		}
		dps[i] = st
		return st
	}

	captures := ctx.captureClocks(nil, end)
	liveBwd := ctx.liveBwdMemo(end)

	// Per-node state sets accumulate in a dense (launch, capture, check)
	// scratch matrix: every key of one node's States shares Start/End, so
	// a key is an index. The rows materialize once per node.
	nCaps := len(captures)
	cells := make([]relation.Set, len(ctx.Clocks)*nCaps*2)
	cellGen := make([]int32, len(cells))
	gen := int32(0)
	var touched []int32

	var out []ThroughRel
	for _, n := range coneNodes {
		entries := tags[n].entries
		if len(entries) == 0 || !liveBwd.has(n) {
			// No live paths start→n or n→end in this mode: the node's
			// path subset is empty here and contributes no states.
			continue
		}
		tr := ThroughRel{Node: n, Name: g.Node(n).Name}
		nRow := cone.Index(n)
		gen++
		touched = touched[:0]
		for _, te := range entries {
			tag := te.tag
			if tag.launch == NoClock {
				continue
			}
			rec := exc.rec(tag.vec)
			for ci, capture := range captures {
				for hi, check := range relChecks {
					idx := (int(tag.launch)*nCaps+ci)*2 + hi
					if cellGen[idx] != gen {
						cellGen[idx] = gen
						cells[idx] = relation.Set{}
						touched = append(touched, int32(idx))
					}
					set := &cells[idx]
					if ctx.Exclusive(tag.launch, capture) {
						set.Add(relation.StateFalse)
						continue
					}
					var winner *sdc.Exception
					ambiguous := false
					for _, i := range rec.alive {
						mi := &exc.matchers[i]
						if !mi.appliesTo(check) || !exc.toMatches(i, end, capture, sdc.EdgeBoth) {
							continue
						}
						stat := ensureDP(i)[nRow*(int(mi.nThru)+1)+int(rec.v[i])]
						if mi.edgeSensitive && stat != suffNone {
							ambiguous = true
							continue
						}
						switch stat {
						case suffAll:
							winner = sdc.Prefer(winner, mi.e)
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
						set.Add(stateOf(winner))
					}
				}
			}
		}
		tr.States = make([]Rel, 0, len(touched))
		for _, idx := range touched {
			tr.States = append(tr.States, Rel{
				Key: RelKey{
					Start:   start,
					End:     end,
					Launch:  ClockID(int(idx) / (nCaps * 2)),
					Capture: captures[(int(idx)/2)%nCaps],
					Check:   relChecks[int(idx)%2],
				},
				States: cells[idx],
			})
		}
		slices.SortFunc(tr.States, func(a, b Rel) int { return ctx.compareRelKeys(a.Key, b.Key) })
		out = append(out, tr)
	}
	return out
}

// nodeBits is a set of graph nodes, one bit per node.
type nodeBits []uint64

func newNodeBits(n int) nodeBits { return make(nodeBits, (n+63)/64) }

func (b nodeBits) has(id graph.NodeID) bool { return b[id>>6]&(1<<(uint32(id)&63)) != 0 }

func (b nodeBits) set(id graph.NodeID) { b[id>>6] |= 1 << (uint32(id) & 63) }

// liveBackwardReach marks the nodes from which the endpoint is reachable
// over arcs live in this mode (disabled arcs, disabled nodes and
// case-constant nodes block).
func (ctx *Context) liveBackwardReach(end graph.NodeID) nodeBits {
	g := ctx.G
	mark := newNodeBits(g.NumNodes())
	if ctx.NodeDisabled[end] || ctx.Consts[end].Known() {
		return mark
	}
	mark.set(end)
	stack := []graph.NodeID{end}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ai := range g.InArcs(id) {
			if ctx.ArcDisabled[ai] {
				continue
			}
			from := g.Arc(ai).From
			if mark.has(from) || ctx.NodeDisabled[from] || ctx.Consts[from].Known() {
				continue
			}
			mark.set(from)
			stack = append(stack, from)
		}
	}
	return mark
}

// SortRelNames sorts rendered relation keys by (End, Start, Launch,
// Capture, Check): the canonical key order, which the context's row
// slices and the merging core's comparisons follow on the ids.
func SortRelNames(keys []RelName) {
	slices.SortFunc(keys, func(a, b RelName) int {
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
