package sta

import (
	"fmt"

	"modemerge/internal/graph"
	"modemerge/internal/library"
	"modemerge/internal/netlist"
	"modemerge/internal/sdc"
)

// Delay calculation runs once per analysis context — it depends on the
// mode's environment constraints (set_load on ports, set_input_transition
// and set_drive on inputs), so every STA run pays for it, exactly as a
// production engine re-times each scenario. The model is a wire-load slew
// model:
//
//	load(net)   = Σ sink pin caps + wireload(fanout) + set_load(ports)
//	slew(out)   = slewIntrinsic + slewPerCap·load         (cell outputs)
//	delay(arc)  = intrinsic + slope·load + slewSens·slew(in)
//
// Net arcs contribute no delay of their own (the wire is folded into the
// driver's load) but forward the driver's slew.
// Each delay arc gets four values — rise/fall × early/late — as a
// production delay calculator produces; falling output transitions are
// slightly slower (NMOS/PMOS asymmetry) and the early corner is derated.
const (
	defaultInputSlew = 0.05
	slewIntrinsic    = 0.03
	slewPerCap       = 0.015
	slewSens         = 0.25
	fallFactor       = 1.08
	earlyDerate      = 0.92
)

// arcDelay carries the four delay-calculation corners of one arc.
type arcDelay struct {
	// [0] rise, [1] fall output transition; each early (min) and late
	// (max).
	riseMin, riseMax float64
	fallMin, fallMax float64
}

// sel picks the corner for a transition and analysis side.
func (d *arcDelay) sel(trans sdc.EdgeSel, late bool) float64 {
	switch {
	case trans == sdc.EdgeFall && late:
		return d.fallMax
	case trans == sdc.EdgeFall:
		return d.fallMin
	case late:
		return d.riseMax
	default:
		return d.riseMin
	}
}

// computeDelays fills ctx.delays (per arc) and ctx.slews (per node).
func (ctx *Context) computeDelays() {
	g := ctx.G
	d := g.Design

	// Mode-dependent extra port loads.
	portLoad := map[*netlist.Net]float64{}
	for _, l := range ctx.Mode.Loads {
		for _, ref := range l.Ports {
			if p := d.PortByName(ref.Name); p != nil {
				portLoad[p.Net] += l.Value
			}
		}
	}
	netLoad := make([]float64, len(d.Nets))
	for _, n := range d.Nets {
		netLoad[n.Index] = n.LoadCap() + d.Lib.WireLoad.Cap(n.Fanout()) + portLoad[n]
	}

	// Input port slews from set_input_transition (max) or the drive
	// model; default otherwise.
	inSlew := map[graph.NodeID]float64{}
	for _, tr := range ctx.Mode.InputTransitions {
		for _, ref := range tr.Ports {
			if id, ok := g.NodeByName(ref.Name); ok {
				if tr.Level != sdc.MinOnly && tr.Value > inSlew[id] {
					inSlew[id] = tr.Value
				}
			}
		}
	}
	for _, dc := range ctx.Mode.DrivingCells {
		if dc.CellName == "" {
			// set_drive: slew ≈ R·C of the port net.
			for _, ref := range dc.Ports {
				if id, ok := g.NodeByName(ref.Name); ok {
					if p := d.PortByName(ref.Name); p != nil {
						s := dc.Resistance * netLoad[p.Net.Index] * 0.1
						if s > inSlew[id] {
							inSlew[id] = s
						}
					}
				}
			}
		}
	}

	// Corner derates: a nil corner applies no multiplications at all,
	// keeping the nominal path bit-identical to corner-less builds.
	earlyScale, lateScale := 1.0, 1.0
	if c := ctx.Opt.Corner; c != nil {
		earlyScale = c.DelayFactor() * c.EarlyFactor()
		lateScale = c.DelayFactor() * c.LateFactor()
	}

	ctx.delays = make([]arcDelay, g.NumArcs())
	ctx.slews = make([]float64, g.NumNodes())
	for _, id := range g.Topo() {
		node := g.Node(id)
		slew := 0.0
		switch {
		case node.Port != nil && node.Port.Dir == netlist.In:
			slew = defaultInputSlew
			if s, ok := inSlew[id]; ok {
				slew = s
			}
		default:
			// Max slew over incoming propagation arcs; output pins also
			// compute their own driven slew below.
			for _, ai := range g.InArcs(id) {
				a := g.Arc(ai)
				if a.Kind == graph.SetupArc || a.Kind == graph.HoldArc {
					continue
				}
				if s := ctx.slews[a.From]; s > slew {
					slew = s
				}
			}
		}
		// A driven cell output regenerates the slew from its load.
		if node.Inst != nil && node.Inst.Cell.Pins[node.Pin].Dir == library.Output {
			load := 0.0
			if net := node.Inst.Conns[node.Pin]; net != nil {
				load = netLoad[net.Index]
			}
			slew = slewIntrinsic + slewPerCap*load
		}
		ctx.slews[id] = slew
		// Delays of arcs leaving this node use its slew.
		for _, ai := range g.OutArcs(id) {
			a := g.Arc(ai)
			switch a.Kind {
			case graph.CellArc, graph.LaunchArc:
				load := 0.0
				toNode := g.Node(a.To)
				if net := toNode.Inst.Conns[toNode.Pin]; net != nil {
					load = netLoad[net.Index]
				}
				rise := a.Lib.Intrinsic + a.Lib.Slope*load + slewSens*slew
				fall := rise * fallFactor
				d := arcDelay{
					riseMin: rise * earlyDerate, riseMax: rise,
					fallMin: fall * earlyDerate, fallMax: fall,
				}
				if ctx.Opt.Corner != nil {
					d.riseMin *= earlyScale
					d.fallMin *= earlyScale
					d.riseMax *= lateScale
					d.fallMax *= lateScale
				}
				ctx.delays[ai] = d
			case graph.NetArc:
				// Wire delay folded into the driver; zero corners.
			}
		}
	}
}

// SlewAt returns the computed transition time at a node.
func (ctx *Context) SlewAt(id graph.NodeID) float64 { return ctx.slews[id] }

// Latch time borrowing: a level-sensitive endpoint's setup check moves to
// the closing edge of the capture clock, letting the data borrow up to
// the transparency window (bounded by set_max_time_borrow).

// resolveBorrows indexes set_max_time_borrow constraints.
func (ctx *Context) resolveBorrows() error {
	for _, mtb := range ctx.Mode.MaxTimeBorrows {
		for _, name := range mtb.Clocks {
			id, ok := ctx.clockByName[name]
			if !ok {
				return fmt.Errorf("set_max_time_borrow: unknown clock %q", name)
			}
			ctx.setBorrowClock(id, mtb.Value)
		}
		for _, obj := range mtb.Objects {
			switch obj.Kind {
			case sdc.PinObj, sdc.PortObj:
				id, ok := ctx.G.NodeByName(obj.Name)
				if !ok {
					return fmt.Errorf("set_max_time_borrow: object %q not in design", obj.Name)
				}
				ctx.setBorrowNode(id, mtb.Value)
			case sdc.CellObj:
				inst := ctx.G.Design.InstByName(obj.Name)
				if inst == nil {
					return fmt.Errorf("set_max_time_borrow: no cell %q", obj.Name)
				}
				for _, dp := range inst.Cell.DataPins() {
					if id, ok := ctx.G.NodeByName(inst.Name + "/" + dp); ok {
						ctx.setBorrowNode(id, mtb.Value)
					}
				}
			}
		}
	}
	return nil
}

func (ctx *Context) setBorrowNode(id graph.NodeID, v float64) {
	if ctx.borrowNode == nil {
		ctx.borrowNode = map[graph.NodeID]float64{}
	}
	if have, ok := ctx.borrowNode[id]; !ok || v < have {
		ctx.borrowNode[id] = v
	}
}

func (ctx *Context) setBorrowClock(id ClockID, v float64) {
	if ctx.borrowClock == nil {
		ctx.borrowClock = map[ClockID]float64{}
	}
	if have, ok := ctx.borrowClock[id]; !ok || v < have {
		ctx.borrowClock[id] = v
	}
}

// borrowAllowance returns the setup-time borrow available at a latch
// endpoint captured by the given clock tag: the transparency window,
// clipped by any set_max_time_borrow. Zero for edge-triggered endpoints.
func (ctx *Context) borrowAllowance(end graph.NodeID, ct ClockAtNode) float64 {
	node := ctx.G.Node(end)
	if node.Inst == nil || !node.Inst.Cell.Level {
		return 0
	}
	c := ctx.Clocks[ct.Clock]
	width := c.FallTime() - c.RiseTime()
	if ct.Inv {
		width = c.Period() - width
	}
	if width < 0 {
		width = 0
	}
	borrow := width
	if lim, ok := ctx.borrowClock[ct.Clock]; ok && lim < borrow {
		borrow = lim
	}
	if lim, ok := ctx.borrowNode[end]; ok && lim < borrow {
		borrow = lim
	}
	return borrow
}
