package graph

import (
	"testing"

	"modemerge/internal/gen"
	"modemerge/internal/library"
	"modemerge/internal/netlist"
)

func paperGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := Build(gen.PaperCircuit())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildPaperCircuit(t *testing.T) {
	g := paperGraph(t)
	if g.NumNodes() == 0 || g.NumArcs() == 0 {
		t.Fatal("empty graph")
	}
	// Startpoints: 6 register CPs + 5 input ports.
	if got := len(g.Startpoints()); got != 11 {
		t.Errorf("startpoints = %d, want 11", got)
	}
	// Endpoints: 6 register D pins + 1 output port.
	if got := len(g.Endpoints()); got != 7 {
		t.Errorf("endpoints = %d, want 7", got)
	}
}

func TestNodeLookupAndKinds(t *testing.T) {
	g := paperGraph(t)
	id, ok := g.NodeByName("rA/CP")
	if !ok {
		t.Fatal("rA/CP missing")
	}
	if !g.Node(id).IsRegClock {
		t.Error("rA/CP not marked register clock")
	}
	id, ok = g.NodeByName("rX/D")
	if !ok || !g.Node(id).IsRegData {
		t.Error("rX/D not marked register data")
	}
	if _, ok := g.NodeByName("clk1"); !ok {
		t.Error("port node clk1 missing")
	}
	if _, ok := g.NodeByName("nope/X"); ok {
		t.Error("bogus lookup succeeded")
	}
}

func TestTopoOrder(t *testing.T) {
	g := paperGraph(t)
	pos := make(map[NodeID]int)
	for i, id := range g.Topo() {
		pos[id] = i
	}
	if len(pos) != g.NumNodes() {
		t.Fatalf("topo covers %d of %d nodes", len(pos), g.NumNodes())
	}
	for i := int32(0); i < int32(g.NumArcs()); i++ {
		a := g.Arc(i)
		if a.Kind == SetupArc || a.Kind == HoldArc {
			continue
		}
		if pos[a.From] >= pos[a.To] {
			t.Errorf("arc %s->%s violates topo order",
				g.Node(a.From).Name, g.Node(a.To).Name)
		}
	}
}

func TestLevels(t *testing.T) {
	g := paperGraph(t)
	for i := int32(0); i < int32(g.NumArcs()); i++ {
		a := g.Arc(i)
		if a.Kind == SetupArc || a.Kind == HoldArc {
			continue
		}
		if g.Node(a.From).Level >= g.Node(a.To).Level {
			t.Errorf("levels not increasing along %s->%s",
				g.Node(a.From).Name, g.Node(a.To).Name)
		}
	}
}

func TestCombinationalLoopDetected(t *testing.T) {
	b := netlist.NewBuilder("loop", library.Default())
	b.Inst("INV", "i1", map[string]string{"A": "n2", "Z": "n1"})
	b.Inst("INV", "i2", map[string]string{"A": "n1", "Z": "n2"})
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(d); err == nil {
		t.Fatal("combinational loop not detected")
	}
}

func TestSequentialLoopOK(t *testing.T) {
	// A register in the loop breaks the combinational cycle.
	b := netlist.NewBuilder("seqloop", library.Default())
	b.Port("clk", netlist.In)
	b.Inst("DFF", "r", map[string]string{"CP": "clk", "D": "n2", "Q": "n1"})
	b.Inst("INV", "i", map[string]string{"A": "n1", "Z": "n2"})
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(d); err != nil {
		t.Fatalf("sequential loop rejected: %v", err)
	}
}

func TestReachability(t *testing.T) {
	g := paperGraph(t)
	rACP, _ := g.NodeByName("rA/CP")
	rXD, _ := g.NodeByName("rX/D")
	rZD, _ := g.NodeByName("rZ/D")
	fwd := g.ForwardReach([]NodeID{rACP})
	if !fwd[rXD] {
		t.Error("rX/D must be reachable from rA/CP")
	}
	if fwd[rZD] {
		t.Error("rZ/D must not be reachable from rA/CP")
	}
	bwd := g.BackwardReach([]NodeID{rXD})
	if !bwd[rACP] {
		t.Error("rA/CP must reach rX/D backward")
	}
}

func TestConeBetween(t *testing.T) {
	g := paperGraph(t)
	rCCP, _ := g.NodeByName("rC/CP")
	rZD, _ := g.NodeByName("rZ/D")
	cone := g.Cone(rCCP, rZD).Nodes
	names := map[string]bool{}
	for _, id := range cone {
		names[g.Node(id).Name] = true
	}
	for _, want := range []string{"rC/CP", "rC/Q", "inv3/A", "inv3/Z", "and2/A", "and2/B", "and2/Z", "rZ/D"} {
		if !names[want] {
			t.Errorf("cone missing %s (have %v)", want, names)
		}
	}
	if names["rA/Q"] || names["inv1/Z"] {
		t.Error("cone contains unrelated nodes")
	}
}

func TestReconvergencePoints(t *testing.T) {
	g := paperGraph(t)
	rCCP, _ := g.NodeByName("rC/CP")
	rZD, _ := g.NodeByName("rZ/D")
	rec := g.ReconvergencePoints(rCCP, rZD)
	found := false
	for _, id := range rec {
		if g.Node(id).Name == "and2/Z" {
			found = true
		}
	}
	if !found {
		t.Errorf("and2/Z must be a reconvergence point between rC/CP and rZ/D")
	}
}

func TestCheckArcs(t *testing.T) {
	g := paperGraph(t)
	rXD, _ := g.NodeByName("rX/D")
	checks := g.CheckArcs(rXD)
	var kinds []ArcKind
	for _, ai := range checks {
		kinds = append(kinds, g.Arc(ai).Kind)
	}
	hasSetup, hasHold := false, false
	for _, k := range kinds {
		if k == SetupArc {
			hasSetup = true
		}
		if k == HoldArc {
			hasHold = true
		}
	}
	if !hasSetup || !hasHold {
		t.Errorf("rX/D check arcs = %v", kinds)
	}
}

func TestArcDelaysPositive(t *testing.T) {
	g := paperGraph(t)
	for i := int32(0); i < int32(g.NumArcs()); i++ {
		a := g.Arc(i)
		switch a.Kind {
		case CellArc, LaunchArc:
			if a.Delay <= 0 {
				t.Errorf("delay arc %s->%s has delay %g",
					g.Node(a.From).Name, g.Node(a.To).Name, a.Delay)
			}
		case NetArc:
			if a.Delay != 0 {
				t.Errorf("net arc has nonzero delay %g", a.Delay)
			}
		}
	}
}

func TestConeSubsetProperty(t *testing.T) {
	g := paperGraph(t)
	starts := g.Startpoints()
	ends := g.Endpoints()
	for _, s := range starts {
		for _, e := range ends {
			fwd := g.ForwardReach([]NodeID{s})
			bwd := g.BackwardReach([]NodeID{e})
			c := g.Cone(s, e)
			cone := c.Nodes
			inCone := map[NodeID]bool{}
			rows := map[int]bool{}
			for _, n := range cone {
				if !fwd[n] || !bwd[n] {
					t.Fatalf("cone node %s outside fwd∩bwd for %s→%s",
						g.Node(n).Name, g.Node(s).Name, g.Node(e).Name)
				}
				inCone[n] = true
				rows[c.Index(n)] = true
			}
			for id, in := range c.In {
				if in != (fwd[id] && bwd[id]) || in != inCone[NodeID(id)] {
					t.Fatalf("Cone.In[%s] = %v for %s→%s", g.Node(NodeID(id)).Name, in,
						g.Node(s).Name, g.Node(e).Name)
				}
			}
			for r := range rows {
				if r < 0 || r >= len(cone) {
					t.Fatalf("Cone.Index row %d outside [0, %d)", r, len(cone))
				}
			}
			if len(rows) != len(cone) {
				t.Fatalf("Cone.Index maps %d nodes onto %d rows", len(cone), len(rows))
			}
			for _, r := range g.ReconvergencePoints(s, e) {
				if !inCone[r] {
					t.Fatalf("reconvergence point %s outside cone", g.Node(r).Name)
				}
			}
			if len(cone) > 0 {
				if cone[0] != s && !inCone[s] {
					t.Fatalf("start missing from nonempty cone %s→%s",
						g.Node(s).Name, g.Node(e).Name)
				}
			}
		}
	}
}

func TestReachabilityMonotone(t *testing.T) {
	g := paperGraph(t)
	// Reach from a superset of seeds is a superset of reach.
	a, _ := g.NodeByName("rA/CP")
	b, _ := g.NodeByName("rB/CP")
	ra := g.ForwardReach([]NodeID{a})
	rab := g.ForwardReach([]NodeID{a, b})
	for i := range ra {
		if ra[i] && !rab[i] {
			t.Fatalf("reach not monotone at %s", g.Node(NodeID(i)).Name)
		}
	}
}

// TestInstPinAndNameRank checks InstPin against the name lookup for every
// pin of every instance, and that NameRank orders all nodes by name.
func TestInstPinAndNameRank(t *testing.T) {
	g := paperGraph(t)
	for i := 0; i < g.NumNodes(); i++ {
		n := g.Node(NodeID(i))
		if n.Inst == nil {
			continue
		}
		for pin := range n.Inst.Cell.Pins {
			want, ok := g.NodeByName(n.Inst.PinName(pin))
			if got := g.InstPin(NodeID(i), pin); !ok || got != want {
				t.Errorf("InstPin(%s, %d) = %d, want %d", n.Name, pin, got, want)
			}
		}
	}
	rank := g.NameRank()
	for a := 0; a < g.NumNodes(); a++ {
		for b := 0; b < g.NumNodes(); b++ {
			na, nb := g.Node(NodeID(a)).Name, g.Node(NodeID(b)).Name
			if (rank[a] < rank[b]) != (na < nb) {
				t.Fatalf("rank %s=%d, %s=%d disagrees with name order", na, rank[a], nb, rank[b])
			}
		}
	}
}
