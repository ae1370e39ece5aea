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

// tagSet is the tag set of one node: its entries in first-insertion
// order, valid until the propagation's arena is released.
type tagSet struct {
	entries []tagEntry
}

// tagIndexThreshold is the entry count past which the node being filled
// dedupes through the arena's hash index instead of a linear scan
// (start-tracked pass-2 propagations can hold hundreds of tags per node).
const tagIndexThreshold = 16

// slabEntries sizes a pooled slab at 64 KiB of 32-byte entries: small
// slabs keep the pooled bytes close to what the propagations in flight
// use.
const slabEntries = 2048

type tagSlab [slabEntries]tagEntry

// The free lists serve every context, so a fresh one (a sign-off run, a
// cache miss) reuses what an earlier one released.
var (
	slabList  freeList[tagSlab]
	arenaList freeList[propArena]
)

// propArena is the transient storage of one data propagation. Each
// node's entries are a sub-slice of a pooled slab with the node's upper
// bound as capacity, so a node past its bound would reallocate on append
// rather than write into the next node's entries; once the node is done
// they are trimmed to their length. The node being filled dedupes
// through one open-addressed table shared by every node.
type propArena struct {
	tags    []tagSet
	touched []graph.NodeID
	slabs   []*tagSlab // borrowed; the last one is being carved
	off     int        // entries carved from the last slab

	// The node being filled: its entries, whether they were carved, and
	// past tagIndexThreshold its table, slots[:mask+1] of entry
	// positions + 1 (0 is empty).
	cur    []tagEntry
	carved bool
	slots  []int32
	mask   uint32

	// plain gives every node a heap slice of its own and dedupes by
	// linear scan: the reference the arena tests compare against.
	plain bool
}

// newArena borrows an arena with a zeroed tag array of n nodes.
func newArena(n int) *propArena {
	a := arenaList.get()
	if a == nil {
		a = &propArena{}
	}
	if cap(a.tags) < n {
		a.tags = make([]tagSet, n)
	}
	a.tags = a.tags[:n]
	return a
}

// release clears the touched nodes and returns the slabs and the arena.
func (a *propArena) release() {
	for _, id := range a.touched {
		a.tags[id] = tagSet{}
	}
	a.touched = a.touched[:0]
	for i, s := range a.slabs {
		slabList.put(s)
		a.slabs[i] = nil
	}
	a.slabs, a.off, a.cur = a.slabs[:0], 0, nil
	arenaList.put(a)
}

// begin starts filling a node whose tag count is at most est.
func (a *propArena) begin(est int) {
	a.carved, a.mask = false, 0
	switch {
	case est == 0:
		a.cur = nil
	case a.plain || est > slabEntries:
		a.cur = make([]tagEntry, 0, est)
	default:
		a.carved = true
		if len(a.slabs) == 0 || a.off+est > slabEntries {
			s := slabList.get()
			if s == nil {
				s = new(tagSlab)
			}
			a.slabs = append(a.slabs, s)
			a.off = 0
		}
		a.cur = a.slabs[len(a.slabs)-1][a.off : a.off : a.off+est]
	}
}

// finish stores the filled node's entries. If they are still in their
// slab, the space past them goes to the next node.
func (a *propArena) finish(id graph.NodeID) {
	n := len(a.cur)
	if n == 0 {
		return
	}
	if a.carved && &a.cur[0] == &a.slabs[len(a.slabs)-1][a.off] {
		a.off += n
	}
	a.tags[id] = tagSet{entries: a.cur[:n:n]}
	a.touched = append(a.touched, id)
}

func (a *propArena) add(t dataTag, arr arrival) {
	if a.mask == 0 {
		for i := range a.cur {
			if a.cur[i].tag == t {
				a.cur[i].arr.merge(arr)
				return
			}
		}
		a.cur = append(a.cur, tagEntry{tag: t, arr: arr})
		if len(a.cur) > tagIndexThreshold && !a.plain {
			a.reindex(cap(a.cur))
		}
		return
	}
	s := a.slot(t)
	if *s != 0 {
		a.cur[*s-1].arr.merge(arr)
		return
	}
	a.cur = append(a.cur, tagEntry{tag: t, arr: arr})
	*s = int32(len(a.cur))
	if 2*len(a.cur) > int(a.mask) {
		a.reindex(2 * len(a.cur))
	}
}

// reindex sizes the dedupe table for n entries at load ≤ 1/2 and
// inserts the node's entries.
func (a *propArena) reindex(n int) {
	size := 64
	for size < 2*n {
		size <<= 1
	}
	if cap(a.slots) < size {
		a.slots = make([]int32, size)
	}
	a.slots = a.slots[:size]
	clear(a.slots)
	a.mask = uint32(size - 1)
	for i := range a.cur {
		*a.slot(a.cur[i].tag) = int32(i + 1)
	}
}

// slot returns the table slot holding t's position, or the empty one
// where it belongs.
func (a *propArena) slot(t dataTag) *int32 {
	for i := t.hash() & a.mask; ; i = (i + 1) & a.mask {
		s := &a.slots[i]
		if *s == 0 || a.cur[*s-1].tag == t {
			return s
		}
	}
}

func (t dataTag) hash() uint32 {
	h := uint64(uint32(t.launch)) | uint64(uint8(t.launchEdge))<<32 | uint64(uint8(t.trans))<<40
	h = h*0x9e3779b97f4a7c15 ^ (uint64(uint32(t.start))<<32 | uint64(uint32(t.vec)))
	h *= 0xbf58476d1ce4e5b9
	return uint32(h >> 32)
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

// propagate runs one transient data propagation (propagateInto) into a
// pooled arena; release returns it. No propagation outlives its caller,
// and pooling matters: the relation passes run one per fill or pair, and
// fresh per-node storage per call is pure GC churn.
func (ctx *Context) propagate(o propOpts) (tags []tagSet, release func()) {
	a := newArena(ctx.G.NumNodes())
	ctx.propagateInto(o, a)
	return a.tags, a.release
}

// propagateInto performs forward data propagation over the timing graph
// into an arena with a zeroed tag array.
//
// Paths are launched at register clock pins (one tag per clock present at
// the pin, via the clk→Q launch arc) and at input ports carrying
// set_input_delay (one tag per reference clock). Tags move over net and
// combinational arcs, transitions follow arc unateness, and exception
// progress vectors advance at every traversed node.
func (ctx *Context) propagateInto(o propOpts, ar *propArena) {
	g := ctx.G
	out := ar.tags
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
		node := g.Node(id)
		seeds := node.Port != nil && node.Port.Dir == netlist.In &&
			(o.seedFilter == nil || o.seedFilter(id))

		// Upper-bound the node's tag count from its in-arc sources and
		// input delays so its entries are carved from a slab once.
		est := 0
		if seeds {
			est = 2 * len(ctx.ioByPort[id])
		}
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
		ar.begin(est)

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
						ar.add(dataTag{
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
					ctx.emit(ar, te.tag, te.tag.trans, id, ai, te.arr)
				case library.NegativeUnate:
					ctx.emit(ar, te.tag, flip(te.tag.trans), id, ai, te.arr)
				default:
					ctx.emit(ar, te.tag, sdc.EdgeRise, id, ai, te.arr)
					ctx.emit(ar, te.tag, sdc.EdgeFall, id, ai, te.arr)
				}
			}
		}

		// Input-port seeds.
		if seeds {
			ctx.seedInputPort(ar, id, startOf(id))
		}
		ar.finish(id)
	}
}

// emit adds a tag advanced through node id with the given transition,
// applying the arc's corner delays for that transition.
func (ctx *Context) emit(a *propArena, t dataTag, trans sdc.EdgeSel, id graph.NodeID, ai int32, base arrival) {
	d := &ctx.delays[ai]
	nt := t
	nt.trans = trans
	nt.vec = ctx.exc.advance(t.vec, id, trans)
	a.add(nt, arrival{base.min + d.sel(trans, false), base.max + d.sel(trans, true)})
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
// reference clock and edge combine (min of mins, max of maxes), and the
// seeds follow the order in which each (clock, edge) first appears.
func (ctx *Context) seedInputPort(a *propArena, id graph.NodeID, start graph.NodeID) {
	type seed struct {
		clock ClockID
		edge  sdc.EdgeSel
		arr   arrival
	}
	var buf [8]seed
	seeds := buf[:0]
	for _, d := range ctx.ioByPort[id] {
		if !d.IsInput {
			continue
		}
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
		k := 0
		for k < len(seeds) && (seeds[k].clock != cid || seeds[k].edge != edge) {
			k++
		}
		if k == len(seeds) {
			seeds = append(seeds, seed{cid, edge, arrival{math.Inf(1), math.Inf(-1)}})
		}
		w := &seeds[k].arr
		if d.Level != sdc.MaxOnly && d.Value < w.min {
			w.min = d.Value
		}
		if d.Level != sdc.MinOnly && d.Value > w.max {
			w.max = d.Value
		}
	}
	for _, sd := range seeds {
		w := sd.arr
		if math.IsInf(w.min, 1) {
			w.min = w.max
		}
		if math.IsInf(w.max, -1) {
			w.max = w.min
		}
		for _, trans := range []sdc.EdgeSel{sdc.EdgeRise, sdc.EdgeFall} {
			vec := ctx.exc.seedVec(id, sd.clock, sd.edge, trans)
			a.add(dataTag{
				launch:     sd.clock,
				launchEdge: sd.edge,
				trans:      trans,
				start:      start,
				vec:        vec,
			}, w)
		}
	}
}
