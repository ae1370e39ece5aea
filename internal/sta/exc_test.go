package sta

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"modemerge/internal/gen"
	"modemerge/internal/graph"
	"modemerge/internal/sdc"
)

// refExc is one exception resolved by name, straight from the SDC
// point lists: the reference the compiled anchor table must agree with.
type refExc struct {
	e              *sdc.Exception
	from, to       map[graph.NodeID]bool
	fromClk, toClk map[ClockID]bool
	thru           []map[graph.NodeID]bool
	inert          bool
}

// refExcs resolves every exception of the context's mode by name. A
// register's -from pin stands for the register's clock pin.
func refExcs(ctx *Context) []refExc {
	g := ctx.G
	clockID := map[string]ClockID{}
	for id, c := range ctx.Clocks {
		clockID[c.Def.Name] = ClockID(id)
	}
	pinSet := func(l *sdc.PointList, startpoint bool) map[graph.NodeID]bool {
		set := map[graph.NodeID]bool{}
		for _, pin := range l.Pins {
			id, ok := g.NodeByName(pin.Name)
			if !ok {
				continue
			}
			if inst := g.Node(id).Inst; startpoint && inst != nil && inst.Cell.Sequential {
				id, _ = g.NodeByName(inst.Name + "/" + inst.Cell.ClockPin())
			}
			set[id] = true
		}
		return set
	}
	clockSet := func(l *sdc.PointList) map[ClockID]bool {
		set := map[ClockID]bool{}
		for _, name := range l.Clocks {
			if id, ok := clockID[name]; ok {
				set[id] = true
			}
		}
		return set
	}
	var out []refExc
	for _, e := range ctx.Mode.Exceptions {
		r := refExc{e: e, from: pinSet(e.From, true), to: pinSet(e.To, false),
			fromClk: clockSet(e.From), toClk: clockSet(e.To)}
		r.inert = len(e.From.Pins)+len(e.From.Clocks) > 0 && len(r.from)+len(r.fromClk) == 0 ||
			len(e.To.Pins)+len(e.To.Clocks) > 0 && len(r.to)+len(r.toClk) == 0
		for _, t := range e.Throughs {
			set := pinSet(t, false)
			r.thru = append(r.thru, set)
			r.inert = r.inert || len(set) == 0
		}
		out = append(out, r)
	}
	return out
}

func refEdgeOK(want, have sdc.EdgeSel) bool {
	return want == sdc.EdgeBoth || have == sdc.EdgeBoth || want == have
}

func (r *refExc) fromMatches(start graph.NodeID, launch ClockID, edge sdc.EdgeSel) bool {
	if len(r.e.From.Pins)+len(r.e.From.Clocks) == 0 {
		return true
	}
	return refEdgeOK(r.e.From.Edge, edge) && (r.from[start] || r.fromClk[launch])
}

func (r *refExc) toMatches(end graph.NodeID, capture ClockID, trans sdc.EdgeSel) bool {
	if len(r.e.To.Pins)+len(r.e.To.Clocks) == 0 {
		return true
	}
	return refEdgeOK(r.e.To.Edge, trans) && (r.to[end] || r.toClk[capture])
}

func (r *refExc) advance(p int8, n graph.NodeID, trans sdc.EdgeSel) int8 {
	for int(p) < len(r.thru) && r.thru[p][n] && refEdgeOK(r.e.Throughs[p].Edge, trans) {
		p++
	}
	return p
}

// excTableFixture is the paper circuit under a mode whose exceptions
// list a pin twice, put a register's Q and D (one startpoint) in one
// -from, hold a node in two consecutive through groups, carry rise/fall
// selectors and an unresolved pin, and pile enough anchors on a few
// nodes that the table's sort sees many equal keys.
func excTableFixture(t *testing.T) *Context {
	t.Helper()
	d := gen.PaperCircuit()
	g, err := graph.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	var src strings.Builder
	src.WriteString(`create_clock -name clkA -period 10 [get_ports clk1]
create_clock -name clkB -period 20 [get_ports clk2]
set_false_path -from [list [get_pins rA/Q] [get_pins rA/Q]] -to [get_pins rX/D]
set_multicycle_path 2 -from [get_pins {rC/Q rC/D}] -to [get_clocks clkA]
set_false_path -through [get_pins inv1/Z] -through [get_pins {inv1/Z and1/A}] -through [get_pins inv2/Z]
set_max_delay 5 -rise_from [get_clocks clkA] -fall_through [get_pins and1/Z] -to [get_pins rY/D]
set_false_path -from [get_clocks clkB] -fall_to [get_pins {rZ/D rY/D}]
set_min_delay 1 -from [get_pins rB/CP] -through [get_pins and1/B] -to [get_clocks {clkA clkB}]
`)
	pins := []string{"inv1/Z", "and1/Z", "inv2/Z", "rY/D", "rX/D", "inv3/Z"}
	for k := 0; k < 24; k++ {
		a, b := pins[k%len(pins)], pins[(k+1)%len(pins)]
		switch k % 4 {
		case 0:
			fmt.Fprintf(&src, "set_false_path -setup -through [get_pins %s] -through [get_pins {%s %s}]\n", a, a, b)
		case 1:
			fmt.Fprintf(&src, "set_multicycle_path %d -from [get_pins {rA/Q rB/D}] -through [get_pins %s] -to [get_pins %s]\n", 2+k%3, a, b)
		case 2:
			fmt.Fprintf(&src, "set_false_path -hold -rise_through [get_pins %s] -to [get_pins {%s rY/D}]\n", a, b)
		default:
			fmt.Fprintf(&src, "set_max_delay %d -from [get_pins %s] -to [get_pins %s]\n", 3+k%5, a, b)
		}
	}
	mode, _, err := sdc.Parse("m", src.String(), d)
	if err != nil {
		t.Fatal(err)
	}
	// The parser keeps a doubled pin of a list; check it still does.
	if from := mode.Exceptions[0].From.Pins; len(from) != 2 || from[0] != from[1] {
		t.Fatalf("fixture: -from list %v does not list rA/Q twice", from)
	}
	ghost := sdc.ObjRef{Kind: sdc.PinObj, Name: "ghost/Z"}
	rA := sdc.ObjRef{Kind: sdc.PinObj, Name: "rA/Q"}
	mode.Exceptions = append(mode.Exceptions,
		// An unresolved through group: inert.
		&sdc.Exception{Kind: sdc.FalsePath, From: &sdc.PointList{Pins: []sdc.ObjRef{rA}},
			Throughs: []*sdc.PointList{{Pins: []sdc.ObjRef{ghost}}}, To: &sdc.PointList{}},
		// A -from list with one unresolved pin beside a resolved one.
		&sdc.Exception{Kind: sdc.FalsePath, From: &sdc.PointList{Pins: []sdc.ObjRef{ghost, rA}}, To: &sdc.PointList{}},
	)
	ctx, err := NewContext(g, mode, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

// TestExcTableMatchesNames checks the compiled exception table against
// refExcs: for every exception and every node, the node's anchors,
// fromMatches, toMatches and advanceOne, and for every node as a start,
// the seeded progress vector.
func TestExcTableMatchesNames(t *testing.T) {
	ctx := excTableFixture(t)
	s, g := ctx.exc, ctx.G
	refs := refExcs(ctx)
	if len(s.matchers) != len(refs) {
		t.Fatalf("%d matchers compiled, want %d", len(s.matchers), len(refs))
	}
	inert := 0
	for i, r := range refs {
		if s.matchers[i].inert != r.inert {
			t.Errorf("exception %d (line %d): inert = %v, want %v", i, r.e.Line, s.matchers[i].inert, r.inert)
		}
		if r.inert {
			inert++
		}
	}
	if inert != 1 {
		t.Fatalf("fixture: %d inert exceptions, want 1", inert)
	}
	edges := []sdc.EdgeSel{sdc.EdgeRise, sdc.EdgeFall, sdc.EdgeBoth}
	clocks := []ClockID{NoClock}
	for id := range ctx.Clocks {
		clocks = append(clocks, ClockID(id))
	}
	jumps := 0
	for id := 0; id < g.NumNodes(); id++ {
		n := graph.NodeID(id)
		name := g.Node(n).Name
		var want []excRef
		for i, r := range refs {
			if r.from[n] {
				want = append(want, excRef{int32(i), roleFrom})
			}
			if r.to[n] {
				want = append(want, excRef{int32(i), roleTo})
			}
			for k, set := range r.thru {
				if set[n] {
					want = append(want, excRef{int32(i), int32(k)})
				}
			}
		}
		if got := s.anchors(n); !slices.Equal(got, want) {
			t.Fatalf("%s: anchors %v, want %v", name, got, want)
		}
		for i := range refs {
			r, i32 := &refs[i], int32(i)
			for _, c := range clocks {
				for _, e := range edges {
					if got, want := s.fromMatches(i32, n, c, e), r.fromMatches(n, c, e); got != want {
						t.Errorf("exception %d fromMatches(%s, %d, %v) = %v, want %v", i, name, c, e, got, want)
					}
					if got, want := s.toMatches(i32, n, c, e), r.toMatches(n, c, e); got != want {
						t.Errorf("exception %d toMatches(%s, %d, %v) = %v, want %v", i, name, c, e, got, want)
					}
				}
			}
			for p := int8(0); int(p) <= len(r.thru); p++ {
				for _, e := range edges {
					got, want := s.advanceOne(i32, p, n, e), r.advance(p, n, e)
					if got != want {
						t.Errorf("exception %d advanceOne(%d, %s, %v) = %d, want %d", i, p, name, e, got, want)
					}
					if want > p+1 {
						jumps++
					}
				}
			}
		}
		for _, c := range clocks {
			for _, e := range edges {
				for _, tr := range edges {
					want := make([]int8, len(refs))
					for i := range refs {
						r := &refs[i]
						if r.inert || !r.fromMatches(n, c, e) {
							want[i] = progDead
						} else {
							want[i] = r.advance(0, n, tr)
						}
					}
					if got := s.vec(s.seedVec(n, c, e, tr)); !slices.Equal(got, want) {
						t.Fatalf("seedVec(%s, %d, %v, %v) = %v, want %v", name, c, e, tr, got, want)
					}
				}
			}
		}
	}
	if jumps == 0 {
		t.Fatal("fixture: no node advances past two consecutive through groups")
	}
}
