package sta

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"modemerge/internal/gen"
	"modemerge/internal/graph"
	"modemerge/internal/library"
	"modemerge/internal/sdc"
)

// arenaFixture builds the small design E of relationFixtures under its
// first generated mode plus three kinds of extra constraints: two more
// clocks (-add) on the first clock's port, so start-tracked nodes pass
// tagIndexThreshold; a second input delay (another clock, falling edge,
// separate -min and -max) on every seeded input port, so ports seed
// several tags in a fixed order; and nThrough exceptions through
// combinational output pins, so progress vectors advance along the
// paths.
func arenaFixture(t *testing.T, nThrough int) *Context {
	t.Helper()
	gd, err := gen.Generate(gen.DesignSpec{Name: "designE", Seed: 0xE, Domains: 3, BlocksPerDomain: 3,
		Stages: 5, RegsPerStage: 3, CloudDepth: 4, CrossPaths: 6})
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(gd.Design)
	if err != nil {
		t.Fatal(err)
	}
	base := gd.Modes(gen.FamilySpec{Groups: 1, ModesPerGroup: []int{5}, BasePeriod: 2})[0]
	mode, _, err := sdc.Parse(base.Name, base.Text, g.Design)
	if err != nil {
		t.Fatal(err)
	}
	clocks := mode.ClockNames()
	var extra strings.Builder
	for i, period := range []float64{3, 5} {
		fmt.Fprintf(&extra, "create_clock -name extra%d -period %g -add [get_ports %s]\n",
			i, period, mode.Clocks[0].Sources[0].Name)
	}
	for _, d := range mode.IODelays {
		if !d.IsInput || d.Clock == "" {
			continue
		}
		other := clocks[0]
		if other == d.Clock {
			other = clocks[1]
		}
		for _, p := range d.Ports {
			fmt.Fprintf(&extra, "set_input_delay 0.3 -max -clock %s -clock_fall -add_delay [get_ports %s]\n", other, p.Name)
			fmt.Fprintf(&extra, "set_input_delay 0.1 -min -clock %s -clock_fall -add_delay [get_ports %s]\n", other, p.Name)
		}
	}
	var pins []string
	for _, id := range g.Topo() {
		n := g.Node(id)
		if n.Inst != nil && !n.Inst.Cell.Sequential && n.Inst.Cell.Pins[n.Pin].Dir == library.Output {
			pins = append(pins, n.Name)
		}
	}
	for i := 0; i < nThrough; i++ {
		p, q := pins[(7*i)%len(pins)], pins[(7*i+3)%len(pins)]
		switch i % 3 {
		case 0:
			fmt.Fprintf(&extra, "set_multicycle_path 2 -setup -through [get_pins %s]\n", p)
		case 1:
			fmt.Fprintf(&extra, "set_false_path -hold -through [get_pins %s] -through [get_pins %s]\n", p, q)
		default:
			fmt.Fprintf(&extra, "set_max_delay 5 -through [get_pins %s]\n", p)
		}
	}
	mode, _, err = sdc.Parse(base.Name, base.Text+"\n"+extra.String(), g.Design)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(g, mode, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ctx.exc.matchers); got != len(mode.Exceptions) || got < nThrough {
		t.Fatalf("context compiled %d exceptions, want at least %d", got, nThrough)
	}
	return ctx
}

// plainPropagation is the reference for the arena: every node's entries
// in a heap slice of their own, deduped by linear scan, in a fresh tag
// array that is never pooled.
func plainPropagation(ctx *Context, o propOpts) []tagSet {
	a := &propArena{tags: make([]tagSet, ctx.G.NumNodes()), plain: true}
	ctx.propagateInto(o, a)
	return a.tags
}

// tagDiffs lists the nodes whose entries (tag, arrival and order)
// differ; with tagsOnly, whose tags or their order differ.
func tagDiffs(g *graph.Graph, got, want []tagSet, tagsOnly bool) []string {
	same := func(a, b tagEntry) bool { return a == b }
	if tagsOnly {
		same = func(a, b tagEntry) bool { return a.tag == b.tag }
	}
	var out []string
	for id := range want {
		if !slices.EqualFunc(got[id].entries, want[id].entries, same) {
			out = append(out, g.Node(graph.NodeID(id)).Name)
		}
	}
	return out
}

// sharedNodes counts the nodes whose entries are another node's.
func sharedNodes(tags []tagSet) int {
	first := map[*tagEntry]bool{}
	n := 0
	for _, m := range tags {
		if len(m.entries) == 0 {
			continue
		}
		if p := &m.entries[0]; first[p] {
			n++
		} else {
			first[p] = true
		}
	}
	return n
}

// poisonSlabs returns n slabs full of a tag no propagation makes to the
// pool, so a propagation that read entries it had not written would
// show them.
func poisonSlabs(n int) {
	bad := tagEntry{tag: dataTag{launch: 1 << 20, start: 1 << 20, vec: 1 << 20}, arr: arrival{-1e9, 1e9}}
	for i := 0; i < n; i++ {
		s := new(tagSlab)
		for j := range s {
			s[j] = bad
		}
		slabList.put(s)
	}
}

// TestPropagateArenaIdentity checks that propagations into pooled arenas
// give every node the same entries, in the same order, as the plain
// reference: repeated on one context, concurrently on one context, and
// after poisoned slabs went into the pool. The fixture seeds several
// tags at input ports, tracks startpoints (pass 2, past
// tagIndexThreshold at some nodes) and advances through-exceptions.
// The relation-mode (tagsOnly) cases, whose single-fanin nodes share
// their source's entries, must match the reference's tags and order on
// every node and share at least minShared nodes; after each of their
// runs an arrival-reading pass-3 cone propagation, the narrowest, must
// reuse the released arena (and poisoned slabs) and still match its
// reference exactly. No node of a propagation outgrows its estimate, so
// a direct arena check overfills a carved node and confirms that it and
// the next node keep their entries.
func TestPropagateArenaIdentity(t *testing.T) {
	ctx := arenaFixture(t, 12)
	g := ctx.G
	var cone []bool
	var end graph.NodeID
	for _, e := range g.Endpoints() {
		if len(ctx.G.InArcs(e)) > 0 {
			cone, end = g.BackwardReach([]graph.NodeID{e}), e
		}
	}
	rows := ctx.StartEndRelations(end)
	if len(rows) == 0 {
		t.Fatalf("endpoint %s has no start-end rows", g.Node(end).Name)
	}
	start := rows[0].Key.Start
	p3 := propOpts{withStart: true, nodeFilter: g.Cone(start, end).In,
		seedFilter: func(s graph.NodeID) bool { return s == start }}
	rel := func(o propOpts) propOpts { o.tagsOnly = true; return o }
	p3Want := plainPropagation(ctx, p3)
	cases := []struct {
		name      string
		o         propOpts
		minShared int
	}{
		{"pass1", propOpts{}, 0},
		{"pass2", propOpts{withStart: true}, 0},
		{"pass2-cone", propOpts{withStart: true, nodeFilter: cone}, 0},
		{"rel-pass1", rel(propOpts{}), 1700},
		{"rel-pass2", rel(propOpts{withStart: true}), 1700},
		{"rel-pass2-cone", rel(propOpts{withStart: true, nodeFilter: cone}), 20},
		{"rel-pass3-cone", rel(p3), 15},
	}
	for _, c := range cases {
		want := plainPropagation(ctx, c.o)
		maxTags, seeded, advanced := 0, 0, 0
		for id := range want {
			n := g.Node(graph.NodeID(id))
			if n.Port != nil && len(g.InArcs(graph.NodeID(id))) == 0 && len(want[id].entries) > 1 {
				seeded++
			}
			maxTags = max(maxTags, len(want[id].entries))
			for _, te := range want[id].entries {
				if slices.ContainsFunc(ctx.exc.vec(te.tag.vec), func(p int8) bool { return p > 0 }) {
					advanced++
				}
			}
		}
		if c.o.nodeFilter == nil && (seeded == 0 || advanced == 0) {
			t.Fatalf("%s: fixture covers %d multi-seed input ports and %d advanced tags; want both", c.name, seeded, advanced)
		}
		if c.o.withStart && c.o.nodeFilter == nil && maxTags <= tagIndexThreshold {
			t.Fatalf("%s: at most %d tags per node; the dedupe index is never used", c.name, maxTags)
		}

		if n := sharedNodes(want); n != 0 {
			t.Fatalf("%s: the reference shares %d nodes' entries", c.name, n)
		}

		poisonSlabs(4)
		for i := 0; i < 3; i++ {
			tags, release := ctx.propagate(c.o)
			if diff := tagDiffs(g, tags, want, c.o.tagsOnly); len(diff) > 0 {
				t.Errorf("%s: repeat %d differs from the reference at %v", c.name, i, diff)
			}
			shared := sharedNodes(tags)
			switch {
			case !c.o.tagsOnly && shared != 0:
				t.Errorf("%s: %d nodes share entries though arrivals are read", c.name, shared)
			case shared < c.minShared:
				t.Errorf("%s: %d nodes share their source's entries, want at least %d", c.name, shared, c.minShared)
			}
			release()
			if c.o.tagsOnly {
				poisonSlabs(2)
				tags, release := ctx.propagate(p3)
				if diff := tagDiffs(g, tags, p3Want, false); len(diff) > 0 {
					t.Errorf("%s: a pass-3 cone run after repeat %d differs from the reference at %v", c.name, i, diff)
				}
				release()
			}
		}
		var wg sync.WaitGroup
		errs := make([][]string, 4)
		for w := range errs {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 2; i++ {
					tags, release := ctx.propagate(c.o)
					errs[w] = append(errs[w], tagDiffs(g, tags, want, c.o.tagsOnly)...)
					release()
				}
			}(w)
		}
		wg.Wait()
		for w, diff := range errs {
			if len(diff) > 0 {
				t.Errorf("%s: concurrent propagation %d differs from the reference at %v", c.name, w, diff)
			}
		}
	}

	// A carved node that outgrows its estimate reallocates instead of
	// writing into the next node's entries.
	a := newArena(3)
	tag := func(i int) dataTag { return dataTag{launch: ClockID(i), start: -1} }
	a.begin(2)
	for i := 0; i < 5; i++ {
		a.add(tag(i), arrival{float64(i), float64(i)})
	}
	a.finish(0)
	a.begin(3)
	for i := 10; i < 13; i++ {
		a.add(tag(i), arrival{float64(i), float64(i)})
	}
	a.finish(1)
	for id, first := range []int{0, 10} {
		n := 5
		if id == 1 {
			n = 3
		}
		got := a.tags[id].entries
		if len(got) != n {
			t.Fatalf("node %d holds %d entries, want %d", id, len(got), n)
		}
		for i, te := range got {
			if te.tag != tag(first+i) || te.arr.max != float64(first+i) {
				t.Errorf("node %d entry %d = %+v, want tag %d", id, i, te, first+i)
			}
		}
	}
	a.release()
}

// TestExcVectorScratch checks advance and seedVec, which build their
// candidate vector in a stack buffer (heap past 64 exceptions), against
// the copying algorithm they replace: both intern, so equal vectors get
// equal ids. It runs with 12 and with 70 exceptions.
func TestExcVectorScratch(t *testing.T) {
	for _, n := range []int{12, 70} {
		ctx := arenaFixture(t, n)
		s := ctx.exc
		if n > 64 && len(s.matchers) <= 64 {
			t.Fatalf("%d exceptions compiled; the heap fallback is not reached", len(s.matchers))
		}
		refSeed := func(start graph.NodeID, launch ClockID, edge, trans sdc.EdgeSel) int32 {
			v := make([]int8, len(s.matchers))
			for i := range s.matchers {
				i := int32(i)
				if s.matchers[i].inert || !s.fromMatches(i, start, launch, edge) {
					v[i] = progDead
					continue
				}
				v[i] = s.advanceOne(i, 0, start, trans)
			}
			return s.internVec(v)
		}
		refAdvance := func(id int32, node graph.NodeID, trans sdc.EdgeSel) int32 {
			v := s.vec(id)
			var out []int8
			for i := range v {
				if v[i] == progDead {
					continue
				}
				if np := s.advanceOne(int32(i), v[i], node, trans); np != v[i] {
					if out == nil {
						out = append([]int8(nil), v...)
					}
					out[i] = np
				}
			}
			if out == nil {
				return id
			}
			return s.internVec(out)
		}
		edges := []sdc.EdgeSel{sdc.EdgeRise, sdc.EdgeFall}
		vecs := map[int32]bool{}
		var queue []int32
		for _, start := range ctx.G.Startpoints() {
			for launch := NoClock; int(launch) < len(ctx.Clocks); launch++ {
				for _, edge := range edges {
					for _, trans := range edges {
						want := refSeed(start, launch, edge, trans)
						if got := s.seedVec(start, launch, edge, trans); got != want {
							t.Fatalf("%d exceptions: seedVec(%s) = %d, want %d", n, ctx.G.Node(start).Name, got, want)
						}
						if !vecs[want] {
							vecs[want] = true
							queue = append(queue, want)
						}
					}
				}
			}
		}
		// Walk vectors breadth-first from the seeds through every node
		// with a through anchor, up to 400 distinct vectors.
		advanced := 0
		for k := 0; k < len(queue); k++ {
			id := queue[k]
			for _, node := range ctx.G.Topo() {
				if len(s.anchors(node)) == 0 {
					continue
				}
				for _, trans := range edges {
					want := refAdvance(id, node, trans)
					if got := s.advance(id, node, trans); got != want {
						t.Fatalf("%d exceptions: advance(%d, %s) = %d, want %d", n, id, ctx.G.Node(node).Name, got, want)
					}
					if want != id {
						advanced++
					}
					if !vecs[want] && len(queue) < 400 {
						vecs[want] = true
						queue = append(queue, want)
					}
				}
			}
		}
		if advanced == 0 {
			t.Fatalf("%d exceptions: no vector advanced", n)
		}
	}
}
