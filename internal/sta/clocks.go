package sta

import (
	"fmt"

	"modemerge/internal/graph"
	"modemerge/internal/library"
	"modemerge/internal/sdc"
)

// clockKey identifies one polarity of one clock during propagation.
type clockKey struct {
	clock ClockID
	inv   bool
}

// propagateClocks computes the set of clocks (with polarity and min/max
// network arrival) present at every node: the unfiltered clockNetwork.
func (ctx *Context) propagateClocks() error {
	tags, _, err := ctx.clockNetwork(nil)
	ctx.ClockTags = tags
	return err
}

// clockNetwork walks the propagation arcs in topological order and
// returns a fresh node array of the clocks present at every node. Rules:
//
//   - A root clock seeds its source nodes with arrival 0.
//   - A generated clock replaces its master at the generated clock's
//     source nodes (the master does not continue past them).
//   - Clocks traverse net and combinational cell arcs; negative-unate arcs
//     flip polarity, non-unate arcs fan out to both polarities.
//   - Clocks never cross a register (launch arcs are data-side).
//   - Constant nodes, disabled arcs and set_clock_sense -stop_propagation
//     block propagation; a stopped clock is absent from the blocking node
//     itself, matching the paper's "stops the propagation of the clock
//     from that point onwards".
//
// With a non-nil justify, each clock still present at a node after
// stop_propagation is asked justify(node, clock); a rejected clock is
// dropped there in both polarities and the node joins its frontier once.
// Frontiers list clocks in order of first block, nodes in topological
// order. Only the unfiltered run warns: it is the one NewContext makes.
func (ctx *Context) clockNetwork(justify func(node graph.NodeID, clock string) bool) ([][]ClockAtNode, []Frontier, error) {
	g := ctx.G
	out := make([][]ClockAtNode, g.NumNodes())
	warnf := ctx.warnf
	if justify != nil {
		warnf = func(string, ...any) {}
	}

	// Index seeds.
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

	// Stop-propagation: node → clock set (nil set = all clocks).
	stop := map[graph.NodeID]map[ClockID]bool{}
	for _, s := range ctx.Mode.ClockSenses {
		if !s.StopPropagation {
			warnf("set_clock_sense without -stop_propagation ignored")
			continue
		}
		var clocks []ClockID
		for _, name := range s.Clocks {
			id, ok := ctx.clockByName[name]
			if !ok {
				return nil, nil, fmt.Errorf("set_clock_sense: unknown clock %q", name)
			}
			clocks = append(clocks, id)
		}
		for _, pin := range s.Pins {
			id, ok := g.NodeByName(pin.Name)
			if !ok {
				return nil, nil, fmt.Errorf("set_clock_sense: object %q not in design", pin.Name)
			}
			set := stop[id]
			if set == nil {
				set = map[ClockID]bool{}
				stop[id] = set
			}
			if len(clocks) == 0 {
				set[NoClock] = true // marker: all clocks
			}
			for _, c := range clocks {
				set[c] = true
			}
		}
	}
	stopped := func(n graph.NodeID, c ClockID) bool {
		set := stop[n]
		if set == nil {
			return false
		}
		return set[NoClock] || set[c]
	}

	// frontier collects each rejected clock's blocking nodes.
	frontier := map[ClockID][]graph.NodeID{}
	var order []ClockID

	type acc struct{ arrMin, arrMax float64 }
	for _, id := range g.Topo() {
		tags := map[clockKey]acc{}
		add := func(k clockKey, arrMin, arrMax float64) {
			if a, ok := tags[k]; ok {
				if arrMin < a.arrMin {
					a.arrMin = arrMin
				}
				if arrMax > a.arrMax {
					a.arrMax = arrMax
				}
				tags[k] = a
			} else {
				tags[k] = acc{arrMin, arrMax}
			}
		}
		// Incoming clock tags.
		if !ctx.NodeDisabled[id] && !ctx.Consts[id].Known() {
			for _, ai := range g.InArcs(id) {
				if ctx.ArcDisabled[ai] {
					continue
				}
				a := g.Arc(ai)
				if a.Kind == graph.LaunchArc {
					continue // clocks do not cross registers
				}
				for _, t := range out[a.From] {
					emit := func(inv bool) {
						trans := sdc.EdgeRise
						if inv {
							trans = sdc.EdgeFall
						}
						d := &ctx.delays[ai]
						add(clockKey{t.Clock, inv},
							t.ArrMin+d.sel(trans, false), t.ArrMax+d.sel(trans, true))
					}
					switch a.Unate() {
					case library.PositiveUnate:
						emit(t.Inv)
					case library.NegativeUnate:
						emit(!t.Inv)
					default:
						emit(false)
						emit(true)
					}
				}
			}
		}
		// Generated clocks start here; without -add they replace their
		// master downstream.
		if gens := genAt[id]; len(gens) > 0 {
			for _, gid := range gens {
				gc := ctx.Clocks[gid]
				masterID, ok := ctx.clockByName[gc.Def.Master]
				if !ok {
					return nil, nil, fmt.Errorf("generated clock %s: unknown master %q", gc.Def.Name, gc.Def.Master)
				}
				first := true
				var inherit acc
				for k, a := range tags {
					if k.clock == masterID {
						if first || a.arrMax > inherit.arrMax {
							inherit = a
						}
						first = false
						if !gc.Def.Add {
							delete(tags, k)
						}
					}
				}
				if first {
					warnf("generated clock %s: master %s does not reach source %s",
						gc.Def.Name, gc.Def.Master, g.Node(id).Name)
					continue
				}
				add(clockKey{gid, gc.Def.Invert}, inherit.arrMin, inherit.arrMax)
			}
		}
		// Root clocks seed here.
		for _, cid := range rootAt[id] {
			if !ctx.Consts[id].Known() && !ctx.NodeDisabled[id] {
				add(clockKey{cid, false}, 0, 0)
			}
		}
		// Apply stop_propagation.
		for k := range tags {
			if stopped(id, k.clock) {
				delete(tags, k)
			}
		}
		if len(tags) == 0 {
			continue
		}
		here := make([]ClockAtNode, 0, len(tags))
		for k, a := range tags {
			here = append(here, ClockAtNode{Clock: k.clock, Inv: k.inv, ArrMin: a.arrMin, ArrMax: a.arrMax})
		}
		// Deterministic order for reports, comparisons and frontiers.
		sortClockTags(here)
		if justify != nil {
			// One verdict per clock covers both polarities.
			kept := here[:0]
			last, ok := NoClock, false
			for _, t := range here {
				if t.Clock != last {
					last, ok = t.Clock, justify(id, ctx.Clocks[t.Clock].Def.Name)
					if !ok {
						if frontier[t.Clock] == nil {
							order = append(order, t.Clock)
						}
						frontier[t.Clock] = append(frontier[t.Clock], id)
					}
				}
				if ok {
					kept = append(kept, t)
				}
			}
			if here = kept; len(here) == 0 {
				continue
			}
		}
		out[id] = here
	}

	fronts := make([]Frontier, len(order))
	for i, c := range order {
		fronts[i] = Frontier{Clock: ctx.Clocks[c].Def.Name, Nodes: frontier[c]}
	}
	return out, fronts, nil
}

func sortClockTags(tags []ClockAtNode) {
	for i := 1; i < len(tags); i++ {
		for j := i; j > 0 && lessClockTag(tags[j], tags[j-1]); j-- {
			tags[j], tags[j-1] = tags[j-1], tags[j]
		}
	}
}

func lessClockTag(a, b ClockAtNode) bool {
	if a.Clock != b.Clock {
		return a.Clock < b.Clock
	}
	return !a.Inv && b.Inv
}

// ClocksAt returns the clock tags at a node.
func (ctx *Context) ClocksAt(id graph.NodeID) []ClockAtNode { return ctx.ClockTags[id] }

// ClockNamesAt returns the (deduplicated) clock names present at a node,
// for cross-mode comparison during merging.
func (ctx *Context) ClockNamesAt(id graph.NodeID) []string {
	var out []string
	seen := map[ClockID]bool{}
	for _, t := range ctx.ClockTags[id] {
		if !seen[t.Clock] {
			seen[t.Clock] = true
			out = append(out, ctx.Clocks[t.Clock].Def.Name)
		}
	}
	return out
}

// CaptureClocksAt lists capture clock tags at a register clock pin or the
// IO-delay reference clocks at an output port.
func (ctx *Context) CaptureClocksAt(end graph.NodeID) []ClockAtNode {
	node := ctx.G.Node(end)
	if node.IsRegData {
		// The register's clock pin node.
		inst := node.Inst
		cp := inst.Cell.ClockPin()
		if cpID, ok := ctx.G.NodeByName(inst.Name + "/" + cp); ok {
			return ctx.ClockTags[cpID]
		}
		return nil
	}
	// Output port: reference clocks of its output delays, as virtual
	// capture tags with ideal arrival.
	var out []ClockAtNode
	for _, d := range ctx.ioByPort[end] {
		if d.IsInput || d.Clock == "" {
			continue
		}
		id, ok := ctx.clockByName[d.Clock]
		if !ok {
			continue
		}
		out = append(out, ClockAtNode{Clock: id, Inv: d.ClockFall})
	}
	sortClockTags(out)
	return out
}

// modeHasIODelay reports whether the port node has any matching delay.
func (ctx *Context) outputDelays(end graph.NodeID) []*sdc.IODelay {
	var out []*sdc.IODelay
	for _, d := range ctx.ioByPort[end] {
		if !d.IsInput {
			out = append(out, d)
		}
	}
	return out
}

func (ctx *Context) inputDelays(port graph.NodeID) []*sdc.IODelay {
	var out []*sdc.IODelay
	for _, d := range ctx.ioByPort[port] {
		if d.IsInput {
			out = append(out, d)
		}
	}
	return out
}

// ClockActive reports whether the clock participates in any timing check
// in this mode: it reaches at least one register clock pin, or an IO
// delay references it. Clocks that are defined but fully replaced or
// blocked are inactive — the exclusivity inference of the merger treats
// two clocks as coexisting only when both are active in the same mode.
func (ctx *Context) ClockActive(id ClockID) bool {
	ctx.activeOnce()
	return ctx.clockActive[id]
}

func (ctx *Context) activeOnce() {
	ctx.activeGuard.Do(ctx.computeActive)
}

func (ctx *Context) computeActive() {
	active := make([]bool, len(ctx.Clocks))
	for nid := range ctx.ClockTags {
		node := ctx.G.Node(graph.NodeID(nid))
		if !node.IsRegClock {
			continue
		}
		for _, t := range ctx.ClockTags[nid] {
			active[t.Clock] = true
		}
	}
	for _, delays := range ctx.ioByPort {
		for _, d := range delays {
			if d.Clock != "" {
				if cid, ok := ctx.clockByName[d.Clock]; ok {
					active[cid] = true
				}
			}
		}
	}
	ctx.clockActive = active
}
