package sta

import (
	"sort"

	"modemerge/internal/graph"
	"modemerge/internal/library"
	"modemerge/internal/netlist"
)

// Frontier records where an unjustified clock first appears during a
// refinement traversal: the clock name and the nodes to block it at.
type Frontier struct {
	Clock string
	Nodes []graph.NodeID
}

// ExtraClocks re-propagates this context's clocks through the clock
// network, asking the justify callback at every node whether each clock is
// allowed there (i.e. present at that node in at least one individual
// mode). Unjustified clocks are blocked on the spot — exactly the paper's
// §3.1.8 breadth-first clock refinement — and the blocking frontier is
// returned so the merger can emit set_clock_sense -stop_propagation
// constraints. Blocking is applied on the fly, so downstream nodes only
// see justified clocks and the frontier is minimal.
func (ctx *Context) ExtraClocks(justify func(node graph.NodeID, clock string) bool) []Frontier {
	g := ctx.G
	type key = clockKey
	tags := make([]map[key]bool, g.NumNodes())
	frontier := map[string][]graph.NodeID{}
	var order []string

	rootAt := map[graph.NodeID][]ClockID{}
	genAt := map[graph.NodeID][]ClockID{}
	for _, c := range ctx.Clocks {
		for _, n := range c.SrcNodes {
			if c.Def.Generated {
				genAt[n] = append(genAt[n], c.ID)
			} else {
				rootAt[n] = append(rootAt[n], c.ID)
			}
		}
	}

	for _, id := range g.Topo() {
		cur := map[key]bool{}
		if !ctx.NodeDisabled[id] && !ctx.Consts[id].Known() {
			for _, ai := range g.InArcs(id) {
				if ctx.ArcDisabled[ai] {
					continue
				}
				a := g.Arc(ai)
				if a.Kind == graph.LaunchArc {
					continue
				}
				for t := range tags[a.From] {
					switch a.Unate() {
					case library.PositiveUnate:
						cur[key{t.clock, t.inv}] = true
					case library.NegativeUnate:
						cur[key{t.clock, !t.inv}] = true
					default:
						cur[key{t.clock, false}] = true
						cur[key{t.clock, true}] = true
					}
				}
			}
		}
		for _, gid := range genAt[id] {
			gc := ctx.Clocks[gid]
			masterID, ok := ctx.clockByName[gc.Def.Master]
			if ok {
				found := false
				for t := range cur {
					if t.clock == masterID {
						found = true
						if !gc.Def.Add {
							delete(cur, t)
						}
					}
				}
				if found {
					cur[key{gid, gc.Def.Invert}] = true
				}
			}
		}
		for _, cid := range rootAt[id] {
			if !ctx.Consts[id].Known() && !ctx.NodeDisabled[id] {
				cur[key{cid, false}] = true
			}
		}
		// Justify every clock present; block the unjustified ones here.
		// Visit keys in (clock, polarity) order: when several clocks are
		// first blocked at the same node, the frontier order — and with it
		// the merged SDC's set_clock_sense order — must not depend on map
		// iteration.
		keys := make([]key, 0, len(cur))
		for t := range cur {
			keys = append(keys, t)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].clock != keys[j].clock {
				return keys[i].clock < keys[j].clock
			}
			return !keys[i].inv && keys[j].inv
		})
		blocked := map[ClockID]bool{}
		for _, t := range keys {
			if blocked[t.clock] {
				delete(cur, t)
				continue
			}
			name := ctx.Clocks[t.clock].Def.Name
			if !justify(id, name) {
				blocked[t.clock] = true
				if _, seen := frontier[name]; !seen {
					order = append(order, name)
				}
				frontier[name] = append(frontier[name], id)
				delete(cur, t)
			}
		}
		// A second sweep: blocking one polarity removes the other too.
		for t := range cur {
			if blocked[t.clock] {
				delete(cur, t)
			}
		}
		if len(cur) > 0 {
			tags[id] = cur
		}
	}

	out := make([]Frontier, 0, len(order))
	for _, name := range order {
		out = append(out, Frontier{Clock: name, Nodes: frontier[name]})
	}
	return out
}

// FlowFrontier describes where unjustified launch-clock data flows must
// be blocked: whole nodes (every path of the clock through them dies) and
// individual from→to hops (only that arc dies — e.g. the deselected leg
// of a scan mux whose select is cased differently across modes).
type FlowFrontier struct {
	Clock string
	Nodes []graph.NodeID
	Arcs  [][2]graph.NodeID
}

// ExtraLaunchFlows propagates launch-clock identities through the data
// network at arc granularity — the paper's §3.2 first data-refinement
// step. seedJustify is asked whether some individual mode launches the
// clock at a seed node (register output or input port); arcJustify is
// asked whether some individual mode actually propagates the clock's data
// across a given arc. Unjustified flows are blocked on the fly so the
// frontier stays minimal, then blocked hops collapse to node blocks where
// every attempted flow into (preferred, matching the paper's pin lists)
// or out of a node died.
func (ctx *Context) ExtraLaunchFlows(
	seedJustify func(node graph.NodeID, clock string) bool,
	arcJustify func(arc int32, clock string) bool,
) []FlowFrontier {
	g := ctx.G
	// tags is a node×clock presence matrix: row id*nc..id*nc+nc-1 holds
	// which launch clocks reach node id. Clock counts are tiny, so flat
	// bool rows beat one map per node, and iterating a row visits clocks
	// in ClockID order for free — the order the frontier (and with it the
	// merged SDC's false-path order) must follow regardless of how the
	// flows were discovered.
	nc := len(ctx.Clocks)
	tags := make([]bool, g.NumNodes()*nc)

	// Per-(node,clock) attempt/block counters, same flat layout.
	inAttempt := make([]int32, g.NumNodes()*nc)
	inBlocked := make([]int32, g.NumNodes()*nc)
	outAttempt := make([]int32, g.NumNodes()*nc)
	outBlocked := make([]int32, g.NumNodes()*nc)
	blockedArcs := map[ClockID][]int32{}
	blockedSeeds := map[ClockID][]graph.NodeID{}
	var clockOrder []ClockID
	seenClock := make([]bool, nc)
	noteClock := func(c ClockID) {
		if !seenClock[c] {
			seenClock[c] = true
			clockOrder = append(clockOrder, c)
		}
	}

	for _, id := range g.Topo() {
		if ctx.NodeDisabled[id] || ctx.Consts[id].Known() {
			continue
		}
		cur := tags[int(id)*nc : int(id)*nc+nc]
		addSeed := func(c ClockID) {
			name := ctx.Clocks[c].Def.Name
			if seedJustify(id, name) {
				cur[c] = true
			} else {
				noteClock(c)
				blockedSeeds[c] = append(blockedSeeds[c], id)
			}
		}
		for _, ai := range g.InArcs(id) {
			if ctx.ArcDisabled[ai] {
				continue
			}
			a := g.Arc(ai)
			if a.Kind == graph.LaunchArc {
				// Launch: the clocks at the register clock pin become
				// launch clocks of the data at the output.
				for _, ct := range ctx.ClockTags[a.From] {
					if !cur[ct.Clock] {
						addSeed(ct.Clock)
					}
				}
				continue
			}
			from := int(a.From) * nc
			for c := ClockID(0); int(c) < nc; c++ {
				if !tags[from+int(c)] {
					continue
				}
				name := ctx.Clocks[c].Def.Name
				outAttempt[from+int(c)]++
				inAttempt[int(id)*nc+int(c)]++
				if arcJustify(ai, name) {
					cur[c] = true
				} else {
					noteClock(c)
					outBlocked[from+int(c)]++
					inBlocked[int(id)*nc+int(c)]++
					blockedArcs[c] = append(blockedArcs[c], ai)
				}
			}
		}
		node := g.Node(id)
		if node.Port != nil && node.Port.Dir == netlist.In {
			for _, d := range ctx.inputDelays(id) {
				if d.Clock != "" {
					if cid, ok := ctx.clockByName[d.Clock]; ok && !cur[cid] {
						addSeed(cid)
					}
				}
			}
		}
	}

	var out []FlowFrontier
	for _, c := range clockOrder {
		f := FlowFrontier{Clock: ctx.Clocks[c].Def.Name}
		nodeChosen := map[graph.NodeID]bool{}
		for _, n := range blockedSeeds[c] {
			if !nodeChosen[n] {
				nodeChosen[n] = true
				f.Nodes = append(f.Nodes, n)
			}
		}
		for _, ai := range blockedArcs[c] {
			a := g.Arc(ai)
			if nodeChosen[a.From] || nodeChosen[a.To] {
				continue
			}
			// Prefer blocking at the sink when every attempted in-flow
			// died and nothing else (seed) revives the clock there.
			to := int(a.To)*nc + int(c)
			if inBlocked[to] == inAttempt[to] && !tags[to] {
				nodeChosen[a.To] = true
				f.Nodes = append(f.Nodes, a.To)
				continue
			}
			fr := int(a.From)*nc + int(c)
			if outBlocked[fr] == outAttempt[fr] {
				nodeChosen[a.From] = true
				f.Nodes = append(f.Nodes, a.From)
				continue
			}
			f.Arcs = append(f.Arcs, [2]graph.NodeID{a.From, a.To})
		}
		// Drop arc blocks made redundant by later node choices.
		var arcs [][2]graph.NodeID
		for _, pair := range f.Arcs {
			if !nodeChosen[pair[0]] && !nodeChosen[pair[1]] {
				arcs = append(arcs, pair)
			}
		}
		f.Arcs = arcs
		if len(f.Nodes) > 0 || len(f.Arcs) > 0 {
			out = append(out, f)
		}
	}
	return out
}

// LaunchClockTable returns, for each requested clock name, a node-indexed
// presence vector: whether data launched by that clock reaches the node
// (full-design propagation). Unknown or empty names yield nil rows. One
// pass over the cached tags replaces per-query entry scans — the merger's
// flow justification asks this question once per arc per clock.
func (ctx *Context) LaunchClockTable(names []string) [][]bool {
	rows := make([][]bool, len(names))
	rowsOf := make([][]int32, len(ctx.Clocks))
	any := false
	for i, name := range names {
		if name == "" {
			continue
		}
		if cid, ok := ctx.clockByName[name]; ok {
			rows[i] = make([]bool, ctx.G.NumNodes())
			rowsOf[cid] = append(rowsOf[cid], int32(i))
			any = true
		}
	}
	if !any {
		return rows
	}
	for id, m := range ctx.tags() {
		for _, te := range m.entries {
			if te.tag.launch == NoClock {
				continue
			}
			for _, ri := range rowsOf[te.tag.launch] {
				rows[ri][id] = true
			}
		}
	}
	return rows
}

// ArcDisabledAt exposes arc liveness for the merger's cross-mode flow
// justification (arc indices are shared across contexts on one graph).
func (ctx *Context) ArcDisabledAt(ai int32) bool { return ctx.ArcDisabled[ai] }

// ConstPortsNeverTiming returns input ports that are case-constant (so
// they never launch data), used by the merger to infer set_disable_timing
// when case statements are dropped.
func (ctx *Context) ConstPortsNeverTiming() []string {
	var out []string
	for _, p := range ctx.G.Design.Ports {
		if p.Dir != netlist.In {
			continue
		}
		if id, ok := ctx.G.NodeByName(p.Name); ok && ctx.Consts[id].Known() {
			out = append(out, p.Name)
		}
	}
	return out
}

// ConstValueAt returns the case-analysis constant at a named node.
func (ctx *Context) ConstValueAt(name string) (library.Logic, bool) {
	id, ok := ctx.G.NodeByName(name)
	if !ok {
		return library.LX, false
	}
	v := ctx.Consts[id]
	return v, v.Known()
}

// StartpointLaunchClocks returns the clock names that can launch paths
// anchored at the given -from object in this mode: for register pins, the
// clocks present at the register's clock pin; for input ports, the
// reference clocks of their input delays.
func (ctx *Context) StartpointLaunchClocks(pinName string) []string {
	id, ok := ctx.G.NodeByName(pinName)
	if !ok {
		return nil
	}
	id = expandStartpoint(ctx.G, id)
	node := ctx.G.Node(id)
	if node.IsRegClock {
		return ctx.ClockNamesAt(id)
	}
	if node.Port != nil {
		var out []string
		seen := map[string]bool{}
		for _, d := range ctx.inputDelays(id) {
			if d.Clock != "" && !seen[d.Clock] {
				seen[d.Clock] = true
				out = append(out, d.Clock)
			}
		}
		return out
	}
	return nil
}

// AllClockNames lists every clock defined in this mode.
func (ctx *Context) AllClockNames() []string {
	out := make([]string, len(ctx.Clocks))
	for i, c := range ctx.Clocks {
		out[i] = c.Def.Name
	}
	return out
}
