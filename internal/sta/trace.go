package sta

import (
	"fmt"
	"math"
	"strings"

	"modemerge/internal/graph"
	"modemerge/internal/library"
	"modemerge/internal/sdc"
)

// PathStep is one pin on a traced timing path.
type PathStep struct {
	Node    string
	Trans   sdc.EdgeSel
	Arrival float64 // cumulative max arrival at the pin
	Incr    float64 // delay increment from the previous step
}

// Path is one traced critical path.
type Path struct {
	Launch string // launch clock name ("" for unclocked)
	Steps  []PathStep
}

// String renders the path in report_timing style.
func (p *Path) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  launch clock: %s\n", p.Launch)
	fmt.Fprintf(&b, "  %-36s %5s %9s %9s\n", "point", "edge", "incr", "arrival")
	for _, s := range p.Steps {
		edge := "r"
		if s.Trans == sdc.EdgeFall {
			edge = "f"
		}
		fmt.Fprintf(&b, "  %-36s %5s %9.4f %9.4f\n", s.Node, edge, s.Incr, s.Arrival)
	}
	return b.String()
}

// TraceWorstArrival re-traces the maximum-arrival data path into an
// endpoint by walking the tag lattice backwards. The lattice comes from a
// transient propagation over the endpoint's fan-in cone, which leaves the
// full run's tags at every cone node (see relcache.go), and the walk never
// leaves the cone. It returns false when no clocked data reaches the
// endpoint.
func (ctx *Context) TraceWorstArrival(end graph.NodeID) (*Path, bool) {
	tags, release := ctx.propagate(propOpts{nodeFilter: ctx.G.BackwardReach([]graph.NodeID{end})})
	defer release()
	return ctx.traceWorst(tags, end)
}

// traceWorst is TraceWorstArrival over a given tag lattice.
func (ctx *Context) traceWorst(tags []tagSet, end graph.NodeID) (*Path, bool) {
	m := tags[end]
	var worst dataTag
	worstArr := math.Inf(-1)
	found := false
	for _, te := range m.entries {
		if te.tag.launch == NoClock {
			continue
		}
		if te.arr.max > worstArr {
			worst, worstArr, found = te.tag, te.arr.max, true
		}
	}
	if !found {
		return nil, false
	}
	path := &Path{Launch: ctx.Clocks[worst.launch].Def.Name}
	var rev []PathStep

	cur := end
	curTag := worst
	curArr := worstArr
	const eps = 1e-9
	for {
		rev = append(rev, PathStep{Node: ctx.G.Node(cur).Name, Trans: curTag.trans, Arrival: curArr})
		prevNode, prevTag, prevArr, incr, ok := ctx.traceStep(tags, cur, curTag, curArr, eps)
		if !ok {
			break
		}
		rev[len(rev)-1].Incr = incr
		cur, curTag, curArr = prevNode, prevTag, prevArr
	}
	// Reverse into launch→capture order.
	for i := len(rev) - 1; i >= 0; i-- {
		path.Steps = append(path.Steps, rev[i])
	}
	return path, true
}

// traceStep finds a predecessor (node, tag, arrival) explaining the
// current arrival. It returns ok=false at a path startpoint.
func (ctx *Context) traceStep(tags []tagSet, node graph.NodeID, tag dataTag, arr float64, eps float64) (graph.NodeID, dataTag, float64, float64, bool) {
	g := ctx.G
	for _, ai := range g.InArcs(node) {
		if ctx.ArcDisabled[ai] {
			continue
		}
		a := g.Arc(ai)
		d := ctx.delays[ai].sel(tag.trans, true)
		if a.Kind == graph.LaunchArc {
			// Startpoint: the launch arc from the register clock pin.
			for _, ct := range ctx.ClockTags[a.From] {
				if ct.Clock != tag.launch {
					continue
				}
				base := 0.0
				if ctx.Clocks[ct.Clock].Propagated {
					base = ct.ArrMax
				}
				if math.Abs(base+d-arr) <= eps {
					// One final step at the launching clock pin; the next
					// iteration finds no data predecessor and stops.
					return a.From, dataTag{launch: tag.launch, launchEdge: tag.launchEdge,
						trans: tag.launchEdge, start: tag.start, vec: tag.vec}, base, d, true
				}
			}
			continue
		}
		for _, pte := range tags[a.From].entries {
			pt, pa := pte.tag, pte.arr
			if pt.launch != tag.launch || pt.launchEdge != tag.launchEdge || pt.start != tag.start {
				continue
			}
			// The predecessor transition must map onto ours through the
			// arc's unateness.
			switch a.Unate() {
			case library.PositiveUnate:
				if pt.trans != tag.trans {
					continue
				}
			case library.NegativeUnate:
				if pt.trans == tag.trans {
					continue
				}
			}
			if ctx.exc.advance(pt.vec, node, tag.trans) != tag.vec {
				continue
			}
			if math.Abs(pa.max+d-arr) <= eps {
				return a.From, pt, pa.max, d, true
			}
		}
	}
	return 0, dataTag{}, 0, 0, false
}
