package sta

import (
	"math"

	"modemerge/internal/graph"
	"modemerge/internal/library"
	"modemerge/internal/netlist"
	"modemerge/internal/sdc"
)

// dataTag identifies one class of timing paths at a node: launch clock,
// launching clock edge, current data transition and the exception progress
// vector. Start is the startpoint node when start-tracking is enabled
// (pass-2 analysis) and -1 otherwise — classic tag-based STA merges
// startpoints whose exception behaviour is identical.
type dataTag struct {
	launch     ClockID
	launchEdge sdc.EdgeSel
	trans      sdc.EdgeSel
	start      graph.NodeID // -1 unless start tracking
	vec        int32
}

// arrival carries the min/max path arrival for one tag.
type arrival struct{ min, max float64 }

// tagEntry pairs a tag with its arrival bounds.
type tagEntry struct {
	tag dataTag
	arr arrival
}

// tagMap is the tag set of one node: a slice (cheap to allocate and
// iterate) with a hash index built lazily once the set grows past the
// point where linear scans lose (start-tracked pass-2 propagations can
// hold hundreds of tags per node).
type tagMap = tagSet

type tagSet struct {
	entries []tagEntry
	index   map[dataTag]int32
}

const tagIndexThreshold = 16

// reserve pre-sizes the entry slice for an expected entry count (an
// upper bound: duplicate tags collapse). The hash index still builds
// lazily at the threshold — pre-creating it per node costs more in map
// allocation than the linear pre-index scans it would save.
func (m *tagSet) reserve(n int) {
	if n == 0 || m.entries != nil {
		return
	}
	m.entries = make([]tagEntry, 0, n)
}

func (m *tagSet) add(t dataTag, a arrival) {
	if m.index == nil {
		for i := range m.entries {
			if m.entries[i].tag == t {
				m.entries[i].arr.merge(a)
				return
			}
		}
		m.entries = append(m.entries, tagEntry{tag: t, arr: a})
		if len(m.entries) > tagIndexThreshold {
			m.index = make(map[dataTag]int32, 2*len(m.entries))
			for i := range m.entries {
				m.index[m.entries[i].tag] = int32(i)
			}
		}
		return
	}
	if i, ok := m.index[t]; ok {
		m.entries[i].arr.merge(a)
		return
	}
	m.index[t] = int32(len(m.entries))
	m.entries = append(m.entries, tagEntry{tag: t, arr: a})
}

// merge widens the arrival window.
func (a *arrival) merge(b arrival) {
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
}

// propOpts configures a data propagation run.
type propOpts struct {
	// withStart tags paths with their startpoint.
	withStart bool
	// nodeFilter, when non-nil, restricts propagation to marked nodes.
	nodeFilter []bool
	// seedFilter, when non-nil, restricts which startpoints seed tags.
	seedFilter func(graph.NodeID) bool
}

// propagate runs one transient data propagation (propagateInto) on a
// node-indexed tag array borrowed from the context pool; release clears
// the touched entries and returns the array. No propagation outlives its
// caller, and pooling matters: the relation passes run one per fill or
// pair, and a fresh O(nodes) array per call is pure GC churn.
func (ctx *Context) propagate(o propOpts) (tags []tagMap, release func()) {
	if v := ctx.tagArrayPool.Get(); v != nil {
		tags = v.([]tagMap)
	} else {
		tags = make([]tagMap, ctx.G.NumNodes())
	}
	touched := ctx.propagateInto(o, tags)
	return tags, func() {
		for _, id := range touched {
			tags[id] = tagMap{}
		}
		ctx.tagArrayPool.Put(tags)
	}
}

// propagateInto performs forward data propagation over the timing graph
// into a zeroed array, returning the node ids it stored tags at.
//
// Paths are launched at register clock pins (one tag per clock present at
// the pin, via the clk→Q launch arc) and at input ports carrying
// set_input_delay (one tag per reference clock). Tags move over net and
// combinational arcs, transitions follow arc unateness, and exception
// progress vectors advance at every traversed node.
func (ctx *Context) propagateInto(o propOpts, out []tagMap) (touched []graph.NodeID) {
	g := ctx.G
	allow := func(id graph.NodeID) bool {
		return o.nodeFilter == nil || o.nodeFilter[id]
	}
	startOf := func(s graph.NodeID) graph.NodeID {
		if o.withStart {
			return s
		}
		return -1
	}

	for _, id := range g.Topo() {
		if !allow(id) || ctx.NodeDisabled[id] || ctx.Consts[id].Known() {
			continue
		}
		var m tagMap
		node := g.Node(id)

		// Upper-bound the node's tag count from its in-arc sources so the
		// set allocates once (and indexes up front past the threshold).
		est := 0
		for _, ai := range g.InArcs(id) {
			if ctx.ArcDisabled[ai] {
				continue
			}
			a := g.Arc(ai)
			if !allow(a.From) {
				continue
			}
			if a.Kind == graph.LaunchArc {
				est += 2 * len(ctx.ClockTags[a.From])
				continue
			}
			switch a.Unate() {
			case library.PositiveUnate, library.NegativeUnate:
				est += len(out[a.From].entries)
			default:
				est += 2 * len(out[a.From].entries)
			}
		}
		m.reserve(est)

		// Arc-driven tags.
		for _, ai := range g.InArcs(id) {
			if ctx.ArcDisabled[ai] {
				continue
			}
			a := g.Arc(ai)
			if !allow(a.From) {
				continue
			}
			if a.Kind == graph.LaunchArc {
				// Launch: clock tags at the register clock pin become
				// data tags at the output.
				cpNode := a.From
				if o.seedFilter != nil && !o.seedFilter(cpNode) {
					continue
				}
				for _, ct := range ctx.ClockTags[cpNode] {
					launchEdge := sdc.EdgeRise
					if ct.Inv {
						launchEdge = sdc.EdgeFall
					}
					base := arrival{0, 0}
					if ctx.Clocks[ct.Clock].Propagated {
						base = arrival{ct.ArrMin, ct.ArrMax}
					}
					for _, trans := range []sdc.EdgeSel{sdc.EdgeRise, sdc.EdgeFall} {
						vec := ctx.exc.seedVec(cpNode, ct.Clock, launchEdge, launchEdge)
						vec = ctx.exc.advance(vec, id, trans)
						d := &ctx.delays[ai]
						m.add(dataTag{
							launch:     ct.Clock,
							launchEdge: launchEdge,
							trans:      trans,
							start:      startOf(cpNode),
							vec:        vec,
						}, arrival{base.min + d.sel(trans, false), base.max + d.sel(trans, true)})
					}
				}
				continue
			}
			for _, te := range out[a.From].entries {
				switch a.Unate() {
				case library.PositiveUnate:
					ctx.emit(&m, te.tag, te.tag.trans, id, ai, te.arr)
				case library.NegativeUnate:
					ctx.emit(&m, te.tag, flip(te.tag.trans), id, ai, te.arr)
				default:
					ctx.emit(&m, te.tag, sdc.EdgeRise, id, ai, te.arr)
					ctx.emit(&m, te.tag, sdc.EdgeFall, id, ai, te.arr)
				}
			}
		}

		// Input-port seeds.
		if node.Port != nil && node.Port.Dir == netlist.In {
			if o.seedFilter == nil || o.seedFilter(id) {
				ctx.seedInputPort(&m, id, startOf(id))
			}
		}

		if len(m.entries) > 0 {
			out[id] = m
			touched = append(touched, id)
		}
	}
	return touched
}

// emit adds a tag advanced through node id with the given transition,
// applying the arc's corner delays for that transition.
func (ctx *Context) emit(m *tagMap, t dataTag, trans sdc.EdgeSel, id graph.NodeID, ai int32, base arrival) {
	d := &ctx.delays[ai]
	nt := t
	nt.trans = trans
	nt.vec = ctx.exc.advance(t.vec, id, trans)
	m.add(nt, arrival{base.min + d.sel(trans, false), base.max + d.sel(trans, true)})
}

func flip(e sdc.EdgeSel) sdc.EdgeSel {
	switch e {
	case sdc.EdgeRise:
		return sdc.EdgeFall
	case sdc.EdgeFall:
		return sdc.EdgeRise
	default:
		return sdc.EdgeBoth
	}
}

// seedInputPort seeds tags for a port's input delays. Delays on the same
// reference clock and edge combine (min of mins, max of maxes).
func (ctx *Context) seedInputPort(m *tagMap, id graph.NodeID, start graph.NodeID) {
	type key struct {
		clock ClockID
		edge  sdc.EdgeSel
	}
	acc := map[key]arrival{}
	for _, d := range ctx.inputDelays(id) {
		cid := NoClock
		if d.Clock != "" {
			if c, ok := ctx.clockByName[d.Clock]; ok {
				cid = c
			}
		}
		edge := sdc.EdgeRise
		if d.ClockFall {
			edge = sdc.EdgeFall
		}
		k := key{cid, edge}
		a, have := acc[k]
		switch d.Level {
		case sdc.MinOnly:
			if !have {
				a = arrival{d.Value, math.Inf(-1)}
			} else if d.Value < a.min {
				a.min = d.Value
			}
		case sdc.MaxOnly:
			if !have {
				a = arrival{math.Inf(1), d.Value}
			} else if d.Value > a.max {
				a.max = d.Value
			}
		default:
			if !have {
				a = arrival{d.Value, d.Value}
			} else {
				if d.Value < a.min {
					a.min = d.Value
				}
				if d.Value > a.max {
					a.max = d.Value
				}
			}
		}
		acc[k] = a
	}
	for k, a := range acc {
		if math.IsInf(a.min, 1) {
			a.min = a.max
		}
		if math.IsInf(a.max, -1) {
			a.max = a.min
		}
		for _, trans := range []sdc.EdgeSel{sdc.EdgeRise, sdc.EdgeFall} {
			vec := ctx.exc.seedVec(id, k.clock, k.edge, trans)
			m.add(dataTag{
				launch:     k.clock,
				launchEdge: k.edge,
				trans:      trans,
				start:      start,
				vec:        vec,
			}, a)
		}
	}
}
