// Package graph builds the timing graph of a flat netlist: one node per
// instance pin or top-level port, delay arcs for cell timing arcs and net
// connections, and constraint (setup/hold) arcs kept out of the
// propagation topology.
//
// The timing graph is the shared substrate for case-analysis constant
// propagation, clock propagation, timing-relationship propagation and the
// STA engine.
package graph

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"modemerge/internal/library"
	"modemerge/internal/netlist"
)

// NodeID identifies a timing graph node.
type NodeID int32

// Node is one pin of the design: an instance pin or a top-level port.
type Node struct {
	// Inst/Pin identify an instance pin; Inst is nil for port nodes.
	Inst *netlist.Instance
	Pin  int
	// Port is non-nil for top-level port nodes.
	Port *netlist.Port
	// Name is "inst/PIN" for instance pins, the port name for ports.
	Name string
	// IsRegClock marks the clock pin of a sequential cell.
	IsRegClock bool
	// IsRegData marks a data pin of a sequential cell (has a setup arc).
	IsRegData bool
	// Level is the node's depth in the propagation topology.
	Level int32
}

// IsInput reports whether the node receives a signal (instance input pin
// or design input port are signal sources; this reports sink-ness for
// instance pins and output ports).
func (n *Node) IsInput() bool {
	if n.Inst != nil {
		return n.Inst.Cell.Pins[n.Pin].Dir == library.Input
	}
	return n.Port.Dir == netlist.Out
}

// ArcKind classifies a timing graph arc.
type ArcKind int8

// Arc kinds.
const (
	// NetArc connects a driver pin to a sink pin on the same net.
	NetArc ArcKind = iota
	// CellArc is a combinational delay arc through a cell.
	CellArc
	// LaunchArc is the clock→output arc of a sequential cell.
	LaunchArc
	// SetupArc and HoldArc are constraint arcs (data pin → clock pin) and
	// are not part of the propagation topology.
	SetupArc
	HoldArc
)

func (k ArcKind) String() string {
	switch k {
	case NetArc:
		return "net"
	case CellArc:
		return "cell"
	case LaunchArc:
		return "launch"
	case SetupArc:
		return "setup"
	case HoldArc:
		return "hold"
	default:
		return fmt.Sprintf("ArcKind(%d)", int(k))
	}
}

// Arc is a timing graph arc.
type Arc struct {
	From, To NodeID
	Kind     ArcKind
	// Lib is the library arc behind a cell/launch/setup/hold arc; nil for
	// net arcs.
	Lib *library.Arc
	// Delay is the precomputed wire-load-model delay of a delay arc.
	Delay float64
}

// Unate returns the arc's unateness (net arcs are positive-unate).
func (a *Arc) Unate() library.Unateness {
	if a.Lib == nil {
		return library.PositiveUnate
	}
	return a.Lib.Unate
}

// Graph is the timing graph of one design.
type Graph struct {
	Design *netlist.Design

	nodes []Node
	arcs  []Arc
	// out/in hold indices into arcs, only for propagation arcs
	// (net/cell/launch). Constraint arcs live in checks.
	out    [][]int32
	in     [][]int32
	checks [][]int32 // per data-pin node: setup/hold arc indices

	byName map[string]NodeID
	topo   []NodeID

	starts []NodeID // register clock pins + input ports
	ends   []NodeID // register data pins + output ports

	// fp is the lazily computed content digest (see Fingerprint).
	fpOnce sync.Once
	fp     string

	// nameRank is the lazily built node-name order (see NameRank).
	rankOnce sync.Once
	nameRank []int32
}

// Build constructs the timing graph for a design, precomputing wire-load
// delays. It fails on combinational loops.
func Build(d *netlist.Design) (*Graph, error) {
	g := &Graph{Design: d, byName: make(map[string]NodeID)}

	addNode := func(n Node) NodeID {
		id := NodeID(len(g.nodes))
		g.nodes = append(g.nodes, n)
		g.byName[n.Name] = id
		return id
	}

	// Instance pin nodes, then port nodes. One instance's pin nodes are
	// consecutive, in pin order (see InstPin).
	pinID := make(map[*netlist.Instance][]NodeID, len(d.Insts))
	for _, inst := range d.Insts {
		ids := make([]NodeID, len(inst.Cell.Pins))
		clockPin := inst.Cell.ClockPin()
		dataPins := map[string]bool{}
		for _, dp := range inst.Cell.DataPins() {
			dataPins[dp] = true
		}
		for i, p := range inst.Cell.Pins {
			ids[i] = addNode(Node{
				Inst:       inst,
				Pin:        i,
				Name:       inst.Name + "/" + p.Name,
				IsRegClock: inst.Cell.Sequential && p.Name == clockPin,
				IsRegData:  dataPins[p.Name],
			})
		}
		pinID[inst] = ids
	}
	portID := make([]NodeID, len(d.Ports))
	for i, p := range d.Ports {
		portID[i] = addNode(Node{Port: p, Pin: -1, Name: p.Name})
	}

	g.out = make([][]int32, len(g.nodes))
	g.in = make([][]int32, len(g.nodes))
	g.checks = make([][]int32, len(g.nodes))

	addArc := func(a Arc) {
		idx := int32(len(g.arcs))
		g.arcs = append(g.arcs, a)
		switch a.Kind {
		case SetupArc, HoldArc:
			g.checks[a.From] = append(g.checks[a.From], idx)
		default:
			g.out[a.From] = append(g.out[a.From], idx)
			g.in[a.To] = append(g.in[a.To], idx)
		}
	}

	// Net load capacitance per net for the wire-load model.
	netLoad := make([]float64, len(d.Nets))
	for _, n := range d.Nets {
		netLoad[n.Index] = n.LoadCap() + d.Lib.WireLoad.Cap(n.Fanout())
	}

	// Cell arcs.
	for _, inst := range d.Insts {
		ids := pinID[inst]
		for ai := range inst.Cell.Arcs {
			la := &inst.Cell.Arcs[ai]
			var from, to NodeID = -1, -1
			for i, p := range inst.Cell.Pins {
				if p.Name == la.From {
					from = ids[i]
				}
				if p.Name == la.To {
					to = ids[i]
				}
			}
			switch la.Kind {
			case library.CombArc, library.LaunchArc:
				kind := CellArc
				if la.Kind == library.LaunchArc {
					kind = LaunchArc
				}
				delay := 0.0
				toNode := &g.nodes[to]
				if net := inst.Conns[toNode.Pin]; net != nil {
					delay = library.ArcDelay(la, netLoad[net.Index])
				} else {
					delay = la.Intrinsic
				}
				addArc(Arc{From: from, To: to, Kind: kind, Lib: la, Delay: delay})
			case library.SetupArc:
				addArc(Arc{From: from, To: to, Kind: SetupArc, Lib: la})
			case library.HoldArc:
				addArc(Arc{From: from, To: to, Kind: HoldArc, Lib: la})
			}
		}
	}

	// Net arcs: driver pin (or input port) → sink pins (and output ports).
	for _, net := range d.Nets {
		var drivers []NodeID
		var sinks []NodeID
		for _, c := range net.Conns {
			id := pinID[c.Inst][c.Pin]
			if c.Inst.Cell.Pins[c.Pin].Dir == library.Output {
				drivers = append(drivers, id)
			} else {
				sinks = append(sinks, id)
			}
		}
		for _, p := range net.Ports {
			id := portID[p.Index]
			if p.Dir == netlist.In {
				drivers = append(drivers, id)
			} else {
				sinks = append(sinks, id)
			}
		}
		for _, dr := range drivers {
			for _, s := range sinks {
				addArc(Arc{From: dr, To: s, Kind: NetArc})
			}
		}
	}

	if err := g.levelize(); err != nil {
		return nil, err
	}

	// Start/end points.
	for id := range g.nodes {
		n := &g.nodes[id]
		switch {
		case n.IsRegClock:
			g.starts = append(g.starts, NodeID(id))
		case n.Port != nil && n.Port.Dir == netlist.In:
			g.starts = append(g.starts, NodeID(id))
		}
		switch {
		case n.IsRegData:
			g.ends = append(g.ends, NodeID(id))
		case n.Port != nil && n.Port.Dir == netlist.Out:
			g.ends = append(g.ends, NodeID(id))
		}
	}
	return g, nil
}

// levelize computes a topological order over propagation arcs (Kahn) and
// node levels; it reports combinational loops.
func (g *Graph) levelize() error {
	indeg := make([]int32, len(g.nodes))
	for i := range g.nodes {
		indeg[i] = int32(len(g.in[i]))
	}
	queue := make([]NodeID, 0, len(g.nodes))
	for i := range g.nodes {
		if indeg[i] == 0 {
			queue = append(queue, NodeID(i))
		}
	}
	g.topo = g.topo[:0]
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		g.topo = append(g.topo, id)
		for _, ai := range g.out[id] {
			a := &g.arcs[ai]
			if lvl := g.nodes[id].Level + 1; lvl > g.nodes[a.To].Level {
				g.nodes[a.To].Level = lvl
			}
			indeg[a.To]--
			if indeg[a.To] == 0 {
				queue = append(queue, a.To)
			}
		}
	}
	if len(g.topo) != len(g.nodes) {
		for i := range g.nodes {
			if indeg[i] > 0 {
				return fmt.Errorf("combinational loop through %s", g.nodes[i].Name)
			}
		}
	}
	return nil
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumArcs returns the arc count (including constraint arcs).
func (g *Graph) NumArcs() int { return len(g.arcs) }

// Node returns the node with the given id.
func (g *Graph) Node(id NodeID) *Node { return &g.nodes[id] }

// Arc returns the arc at index i.
func (g *Graph) Arc(i int32) *Arc { return &g.arcs[i] }

// InstPin returns the node of pin index pin of the instance that owns
// the instance-pin node id.
func (g *Graph) InstPin(id NodeID, pin int) NodeID {
	return id - NodeID(g.nodes[id].Pin) + NodeID(pin)
}

// NodeByName resolves "inst/PIN" or a port name to a node.
func (g *Graph) NodeByName(name string) (NodeID, bool) {
	id, ok := g.byName[name]
	return id, ok
}

// NameRank returns every node's position in ascending name order, built
// on first use: comparing two nodes' ranks compares their names. The
// slice is shared and must not be mutated.
func (g *Graph) NameRank() []int32 {
	g.rankOnce.Do(func() {
		ids := make([]NodeID, len(g.nodes))
		for i := range ids {
			ids[i] = NodeID(i)
		}
		slices.SortFunc(ids, func(a, b NodeID) int { return strings.Compare(g.nodes[a].Name, g.nodes[b].Name) })
		g.nameRank = make([]int32, len(ids))
		for r, id := range ids {
			g.nameRank[id] = int32(r)
		}
	})
	return g.nameRank
}

// OutArcs returns indices of propagation arcs leaving the node.
func (g *Graph) OutArcs(id NodeID) []int32 { return g.out[id] }

// InArcs returns indices of propagation arcs entering the node.
func (g *Graph) InArcs(id NodeID) []int32 { return g.in[id] }

// CheckArcs returns the setup/hold constraint arcs whose data side is the
// given node.
func (g *Graph) CheckArcs(id NodeID) []int32 { return g.checks[id] }

// Topo returns nodes in topological order of the propagation arcs.
func (g *Graph) Topo() []NodeID { return g.topo }

// Startpoints returns register clock pins and input ports.
func (g *Graph) Startpoints() []NodeID { return g.starts }

// Endpoints returns register data pins and output ports.
func (g *Graph) Endpoints() []NodeID { return g.ends }

// ForwardReach marks all nodes reachable from the seeds over propagation
// arcs (seeds included).
func (g *Graph) ForwardReach(seeds []NodeID) []bool {
	mark := make([]bool, len(g.nodes))
	stack := append([]NodeID(nil), seeds...)
	for _, s := range seeds {
		mark[s] = true
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ai := range g.out[id] {
			to := g.arcs[ai].To
			if !mark[to] {
				mark[to] = true
				stack = append(stack, to)
			}
		}
	}
	return mark
}

// BackwardReach marks all nodes that reach the seeds over propagation arcs
// (seeds included).
func (g *Graph) BackwardReach(seeds []NodeID) []bool {
	mark := make([]bool, len(g.nodes))
	stack := append([]NodeID(nil), seeds...)
	for _, s := range seeds {
		mark[s] = true
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ai := range g.in[id] {
			from := g.arcs[ai].From
			if !mark[from] {
				mark[from] = true
				stack = append(stack, from)
			}
		}
	}
	return mark
}

// Cone is the part of the graph between one start and one end: the
// nodes lying on some propagation path from Start to End (inclusive).
// It depends on the graph alone, so one cone serves every mode that
// inspects the pair.
type Cone struct {
	Start, End NodeID
	In         []bool   // per graph node: inside the cone
	Nodes      []NodeID // the cone's nodes in topological order
	byID       []NodeID // the cone's nodes in id order
}

// Cone builds the start→end cone.
func (g *Graph) Cone(start, end NodeID) *Cone {
	in := g.ForwardReach([]NodeID{start})
	bwd := g.BackwardReach([]NodeID{end})
	for id, b := range bwd {
		in[id] = in[id] && b
	}
	c := &Cone{Start: start, End: end, In: in}
	for _, id := range g.topo {
		if in[id] {
			c.Nodes = append(c.Nodes, id)
		}
	}
	c.byID = slices.Clone(c.Nodes)
	slices.Sort(c.byID)
	return c
}

// Index returns a cone node's position among the cone's nodes in id
// order: a dense row number for per-node cone arrays.
func (c *Cone) Index(n NodeID) int {
	i, _ := slices.BinarySearch(c.byID, n)
	return i
}

// ReconvergencePoints returns the cone nodes between start and end that
// have two or more in-cone fanins — the candidate "through" points pass 3
// of the refinement algorithm inspects.
func (g *Graph) ReconvergencePoints(start, end NodeID) []NodeID {
	c := g.Cone(start, end)
	var out []NodeID
	for _, id := range c.Nodes {
		inCone := 0
		for _, ai := range g.in[id] {
			if c.In[g.arcs[ai].From] {
				inCone++
			}
		}
		if inCone >= 2 {
			out = append(out, id)
		}
	}
	return out
}
