package sta

import (
	"reflect"
	"slices"
	"testing"

	"modemerge/internal/graph"
	"modemerge/internal/relation"
	"modemerge/internal/sdc"
)

var refChecks = [2]relation.CheckType{relation.Setup, relation.Hold}

// refFold is a reference name-keyed relation fold: one map write per (tag
// entry, capture tag, check), every capture tag of the endpoint included,
// as a fold over names reads the tags.
type refFold map[RelName]relation.Set

func (f refFold) add(k RelName, st relation.State) {
	set := f[k]
	set.Add(st)
	f[k] = set
}

// refEndpointFold folds one endpoint's tags of a full propagation into
// name-keyed pass-1 (or, startTracked, pass-2) relations.
func refEndpointFold(ctx *Context, tags []tagSet, end graph.NodeID, startTracked bool) refFold {
	out := refFold{}
	for _, te := range tags[end].entries {
		tag := te.tag
		if tag.launch == NoClock {
			continue
		}
		start := "*"
		if startTracked {
			start = ctx.G.Node(tag.start).Name
		}
		for _, ct := range ctx.CaptureClocksAt(end) {
			for _, check := range refChecks {
				k := RelName{Start: start, End: ctx.G.Node(end).Name,
					Launch: ctx.Clocks[tag.launch].Def.Name, Capture: ctx.Clocks[ct.Clock].Def.Name, Check: check}
				if ctx.Exclusive(tag.launch, ct.Clock) {
					out.add(k, relation.StateFalse)
					continue
				}
				winner := sdc.Winner(ctx.exc.completed(nil, tag.vec, end, ct.Clock, tag.trans, check))
				st := stateOf(winner)
				if winner != nil && (check == relation.Setup && winner.Kind == sdc.MinDelay ||
					check == relation.Hold && winner.Kind == sdc.MaxDelay) {
					st = relation.StateValid
				}
				out.add(k, st)
			}
		}
	}
	return out
}

// refThroughFold computes the pass-3 relations of one (start, end) pair
// by name: for every node of the start→end cone with live paths, each
// tag entry's state per capture tag and check, with every exception's
// completion over the node's suffix paths found by a memoized recursive
// walk (all, none or some of the suffixes complete it).
func refThroughFold(ctx *Context, start, end graph.NodeID) map[string]refFold {
	g := ctx.G
	fwd := g.ForwardReach([]graph.NodeID{start})
	bwd := g.BackwardReach([]graph.NodeID{end})
	cone := make([]bool, g.NumNodes())
	for id := range cone {
		cone[id] = fwd[id] && bwd[id]
	}
	tags, release := ctx.propagate(propOpts{withStart: true, nodeFilter: cone,
		seedFilter: func(s graph.NodeID) bool { return s == start }})
	defer release()
	live := ctx.liveBackwardReach(end)

	type memoKey struct {
		matcher int32
		node    graph.NodeID
		prog    int8
	}
	memo := map[memoKey]suffStatus{}
	var suffix func(i int32, n graph.NodeID, p int8) suffStatus
	suffix = func(i int32, n graph.NodeID, p int8) suffStatus {
		if n == end {
			if p == ctx.exc.matchers[i].nThru {
				return suffAll
			}
			return suffNone
		}
		k := memoKey{i, n, p}
		if st, ok := memo[k]; ok {
			return st
		}
		var acc suffStatus
		first := true
		for _, ai := range g.OutArcs(n) {
			a := g.Arc(ai)
			if ctx.ArcDisabled[ai] || !cone[a.To] || a.Kind == graph.LaunchArc && n != start {
				continue
			}
			st := suffix(i, a.To, ctx.exc.advanceOne(i, p, a.To, sdc.EdgeBoth))
			if first {
				acc, first = st, false
			} else if acc != st {
				acc = suffSome
			}
		}
		if first {
			acc = suffNone
		}
		memo[k] = acc
		return acc
	}
	edgeSensitive := func(m *excMatcher) bool {
		if m.e.To.Edge != sdc.EdgeBoth {
			return true
		}
		for _, t := range m.e.Throughs {
			if t.Edge != sdc.EdgeBoth {
				return true
			}
		}
		return false
	}

	out := map[string]refFold{}
	for id, in := range cone {
		n := graph.NodeID(id)
		if !in || len(tags[n].entries) == 0 || !live[n] {
			continue
		}
		fold := refFold{}
		for _, te := range tags[n].entries {
			tag := te.tag
			if tag.launch == NoClock {
				continue
			}
			vec := ctx.exc.vec(tag.vec)
			for _, ct := range ctx.CaptureClocksAt(end) {
				for _, check := range refChecks {
					k := RelName{Start: g.Node(start).Name, End: g.Node(end).Name,
						Launch: ctx.Clocks[tag.launch].Def.Name, Capture: ctx.Clocks[ct.Clock].Def.Name, Check: check}
					if ctx.Exclusive(tag.launch, ct.Clock) {
						fold.add(k, relation.StateFalse)
						continue
					}
					var winners []*sdc.Exception
					ambiguous := false
					for i := range vec {
						i := int32(i)
						m := &ctx.exc.matchers[i]
						if vec[i] == progDead || !m.appliesTo(check) || !ctx.exc.toMatches(i, end, ct.Clock, sdc.EdgeBoth) {
							continue
						}
						st := suffix(i, n, vec[i])
						switch {
						case edgeSensitive(m) && st != suffNone, st == suffSome:
							ambiguous = true
						case st == suffAll:
							winners = append(winners, m.e)
						}
					}
					if ambiguous {
						fold.add(k, relation.StateValid)
						fold.add(k, relation.StateFalse)
					} else {
						fold.add(k, stateOf(sdc.Winner(winners)))
					}
				}
			}
		}
		out[g.Node(n).Name] = fold
	}
	return out
}

// checkRowOrder reports rows whose rendered keys are not strictly
// ascending in SortRelNames order.
func checkRowOrder(t *testing.T, ctx *Context, what string, rows []Rel) {
	t.Helper()
	names := make([]RelName, len(rows))
	for i, r := range rows {
		names[i] = ctx.RelName(r.Key)
	}
	sorted := append([]RelName(nil), names...)
	SortRelNames(sorted)
	if !slices.Equal(names, sorted) {
		t.Errorf("%s: rows are not in SortRelNames order: %v", what, names)
	}
	for i := 1; i < len(names); i++ {
		if names[i] == names[i-1] {
			t.Errorf("%s: two rows render as %v", what, names[i])
		}
	}
}

// TestPackedRowsMatchNameFold checks the packed relation rows of passes
// 1, 2 and 3, rendered to names, against the reference name-keyed folds
// above on every fixture mode, and that every row slice is in
// SortRelNames order of its rendered keys. DeepEqual also compares each
// set's first-insertion order. The negative control renders one mode's
// rows against another mode's fold; at least one endpoint must differ.
func TestPackedRowsMatchNameFold(t *testing.T) {
	for _, fx := range relationFixtures(t) {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			t.Parallel()
			ends := fx.g.Endpoints()
			var folds [][]refFold // per mode, per endpoint: pass-2 folds
			var ctxs []*Context
			for _, mode := range fx.modes {
				ctx, err := NewContext(fx.g, mode, Options{})
				if err != nil {
					t.Fatal(err)
				}
				ctxs = append(ctxs, ctx)
				var pass2 []refFold
				for _, pass := range relPasses {
					tags, release := ctx.propagate(propOpts{withStart: pass.startTracked})
					for _, end := range ends {
						want := refEndpointFold(ctx, tags, end, pass.startTracked)
						rows := pass.query(ctx, end)
						what := mode.Name + " " + pass.name + " " + fx.g.Node(end).Name
						if got := ctx.RelNames(rows); len(got) != len(rows) || !reflect.DeepEqual(got, map[RelName]relation.Set(want)) {
							t.Errorf("%s: rows %v, want %v", what, got, want)
						}
						checkRowOrder(t, ctx, what, rows)
						if pass.startTracked {
							pass2 = append(pass2, want)
						}
					}
					release()
				}
				folds = append(folds, pass2)

				// Pass 3 on up to 40 (start, end) pairs: every distinct
				// startpoint of an endpoint's pass-2 rows.
				pairs := 0
				for _, end := range ends {
					var last graph.NodeID = AnyStart
					for _, r := range ctx.StartEndRelations(end) {
						if r.Key.Start == last || pairs >= 40 {
							continue
						}
						last = r.Key.Start
						pairs++
						want := refThroughFold(ctx, r.Key.Start, end)
						got := map[string]refFold{}
						for _, tr := range ctx.ThroughRelations(ctx.G.Cone(r.Key.Start, end)) {
							what := mode.Name + " pass3 " + fx.g.Node(r.Key.Start).Name + " -through " + tr.Name + " -> " + fx.g.Node(end).Name
							checkRowOrder(t, ctx, what, tr.States)
							if len(tr.States) > 0 {
								got[tr.Name] = refFold(ctx.RelNames(tr.States))
							}
						}
						if !reflect.DeepEqual(got, want) {
							t.Errorf("%s pass3 %s -> %s: rows %v, want %v", mode.Name,
								fx.g.Node(r.Key.Start).Name, fx.g.Node(end).Name, got, want)
						}
					}
				}
				if pairs == 0 {
					t.Errorf("%s: no pass-3 pair checked", mode.Name)
				}
			}

			// Negative control: the first mode's pass-2 rows against the
			// second mode's fold.
			differs := false
			for i, end := range ends {
				if !reflect.DeepEqual(ctxs[0].RelNames(ctxs[0].StartEndRelations(end)), map[RelName]relation.Set(folds[1][i])) {
					differs = true
				}
			}
			if !differs {
				t.Errorf("%s and %s fold alike: the comparison cannot tell modes apart", fx.modes[0].Name, fx.modes[1].Name)
			}
		})
	}
}

// TestAdoptRelationResultsClockTable checks that relation rows, which
// carry clock ids, move only between contexts that number their clocks
// alike: an exception-only rebuild and a fresh build of the same mode
// adopt; a mode whose clocks are ordered or named differently adopts
// nothing.
func TestAdoptRelationResultsClockTable(t *testing.T) {
	fx := relationFixtures(t)[0]
	ends := fx.g.Endpoints()
	mode := fx.modes[0]
	parse := func(src string) *sdc.Mode {
		m, _, err := sdc.Parse("m", src, fx.g.Design)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	newCtx := func(m *sdc.Mode) *Context {
		ctx, err := NewContext(fx.g, m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return ctx
	}
	prev := newCtx(mode)
	prev.FillEndpointRelations(ends)
	prev.FillStartEndRelations(ends)
	adopted := func(ctx *Context) int {
		n := 0
		rc := ctx.relSlots()
		for _, end := range ends {
			if rc.pass1[end].Load() != nil {
				n++
			}
			if rc.startEnd[end].Load() != nil {
				n++
			}
		}
		return n
	}
	all := func(graph.NodeID) bool { return true }
	for _, c := range []struct {
		name  string
		ctx   *Context
		adopt bool
	}{
		{"exception-only rebuild", DeriveExceptionsOnly(prev, mode, Options{}), true},
		{"fresh build of the same mode", newCtx(mode), true},
		{"clocks in another order", newCtx(parse(`
create_clock -name clkB -period 5 [get_ports clk1]
create_clock -name clkA -period 10 -add [get_ports clk1]
`)), false},
		{"clock renamed", newCtx(parse(`
create_clock -name clkZ -period 10 [get_ports clk1]
`)), false},
	} {
		c.ctx.AdoptRelationResults(prev, all)
		switch n := adopted(c.ctx); {
		case c.adopt && n != 2*len(ends):
			t.Errorf("%s: adopted %d of %d endpoint rows", c.name, n, 2*len(ends))
		case !c.adopt && n != 0:
			t.Errorf("%s: adopted %d endpoint rows from a different clock table", c.name, n)
		}
		if c.adopt {
			for _, end := range ends {
				if !reflect.DeepEqual(c.ctx.EndpointRelationsAt(end), prev.EndpointRelationsAt(end)) {
					t.Errorf("%s: adopted rows at %s differ", c.name, fx.g.Node(end).Name)
				}
			}
		}
	}
}
