package sta

import (
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

// ExtraClocks is the paper's §3.1.8 breadth-first clock refinement: the
// clock network propagation (clockNetwork) with the justify callback
// asked at every node whether each clock is allowed there (i.e. present
// at that node in at least one individual mode). Unjustified clocks are
// blocked on the spot, so downstream nodes only see justified clocks and
// the returned frontier, where the merger emits set_clock_sense
// -stop_propagation, is minimal. The context's own stop_propagation
// senses apply first.
func (ctx *Context) ExtraClocks(justify func(node graph.NodeID, clock string) bool) []Frontier {
	// NewContext already ran this propagation unfiltered, so it cannot
	// fail here.
	_, frontiers, _ := ctx.clockNetwork(justify)
	return frontiers
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
	out, _ := ctx.launchFlows(seedJustify, arcJustify)
	return out
}

// launchFlows is ExtraLaunchFlows' propagation. It also returns the
// node×clock presence matrix of the justified flows: entry
// id*len(ctx.Clocks)+c is set when clock c's data reaches node id. Nil
// justifiers justify every flow.
func (ctx *Context) launchFlows(
	seedJustify func(node graph.NodeID, clock string) bool,
	arcJustify func(arc int32, clock string) bool,
) ([]FlowFrontier, []bool) {
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
			if seedJustify == nil || seedJustify(id, ctx.Clocks[c].Def.Name) {
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
				outAttempt[from+int(c)]++
				inAttempt[int(id)*nc+int(c)]++
				if arcJustify == nil || arcJustify(ai, ctx.Clocks[c].Def.Name) {
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
	return out, tags
}

// LaunchClockTable returns, for each requested clock name, a node-indexed
// presence vector: whether data launched by that clock reaches the node,
// projected from one unfiltered launchFlows run. Unknown or empty names
// yield nil rows. The merger's flow justification asks this question
// once per arc per clock, so it reads rows, not the propagation.
func (ctx *Context) LaunchClockTable(names []string) [][]bool {
	rows := make([][]bool, len(names))
	var tags []bool
	nc := len(ctx.Clocks)
	for i, name := range names {
		cid, ok := ctx.clockByName[name]
		if !ok || name == "" {
			continue
		}
		if tags == nil {
			_, tags = ctx.launchFlows(nil, nil)
		}
		rows[i] = make([]bool, ctx.G.NumNodes())
		for id := range rows[i] {
			rows[i][id] = tags[id*nc+int(cid)]
		}
	}
	return rows
}

// ArcDisabledAt exposes arc liveness for the merger's cross-mode flow
// justification (arc indices are shared across contexts on one graph).
func (ctx *Context) ArcDisabledAt(ai int32) bool { return ctx.ArcDisabled[ai] }

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
