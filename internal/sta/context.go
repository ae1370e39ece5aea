// Package sta is the static timing analysis substrate: per-mode analysis
// contexts with case-analysis constant propagation, clock propagation
// through the clock network, tag-based data propagation with exception
// matching, setup/hold slack analysis, and the timing-relationship
// computations (endpoint, startpoint–endpoint, and through-point
// granularity) that the mode-merging 3-pass algorithm consumes.
package sta

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"

	"modemerge/internal/graph"
	"modemerge/internal/library"
	"modemerge/internal/netlist"
	"modemerge/internal/obs"
	"modemerge/internal/sdc"
)

// ClockID indexes Context.Clocks.
type ClockID int32

// NoClock marks the absence of a clock.
const NoClock ClockID = -1

// ClockInfo is a resolved clock of one analysis context.
type ClockInfo struct {
	ID  ClockID
	Def *sdc.Clock
	// SrcNodes are the graph nodes the clock is rooted on.
	SrcNodes []graph.NodeID
	// Propagated is set by set_propagated_clock.
	Propagated bool
	// Ideal-mode network latency and source latency (min/max).
	LatMin, LatMax       float64
	SrcLatMin, SrcLatMax float64
	// Simple (non inter-clock) uncertainties.
	UncSetup, UncHold float64
}

// Period returns the clock period.
func (c *ClockInfo) Period() float64 { return c.Def.Period }

// RiseTime and FallTime return the waveform edges.
func (c *ClockInfo) RiseTime() float64 { return c.Def.Waveform[0] }

// FallTime returns the falling edge time.
func (c *ClockInfo) FallTime() float64 { return c.Def.Waveform[1] }

// ClockAtNode is one clock present at a node of the clock network.
type ClockAtNode struct {
	Clock ClockID
	// Inv is true when the clock arrives inverted at the node.
	Inv bool
	// ArrMin/ArrMax are the propagated network arrival bounds.
	ArrMin, ArrMax float64
}

// Options tunes an analysis context.
type Options struct {
	// Workers bounds the worker pool of the whole-design endpoint slack
	// analysis (AnalyzeEndpoints); 0 means GOMAXPROCS, 1 forces the
	// sequential path.
	Workers int
	// MaxLaunchEdges caps the hyperperiod expansion when relating two
	// clock waveforms; 0 means the default of 64.
	MaxLaunchEdges int
	// Span, when set, is the parent under which the whole-design analysis
	// loops (EndpointRelations, AnalyzeEndpoints) record child spans.
	// Per-endpoint queries stay uninstrumented — they run in tight
	// parallel loops where per-call spans would swamp the trace. Nil
	// disables tracing.
	Span *obs.Span
	// DisableRelationMemo forces every relation query back onto the
	// uncached per-query propagation path (every pass re-propagates the
	// endpoint cone per call). Results are byte-identical either way —
	// this is a debug/equivalence-test knob, excluded from Fingerprint
	// like Workers and Span.
	DisableRelationMemo bool
	// Corner selects the operating corner the context analyzes: its
	// derates scale the delay calculation and check margins. Nil means
	// the nominal corner-less analysis (bit-identical to builds that
	// predate corners — no factors are applied at all). Unlike the
	// knobs above, the corner changes analysis results, so it is part
	// of Fingerprint.
	Corner *library.Corner
}

// WorkerCount resolves Workers against n work items: at least 1, at most
// n, defaulting to GOMAXPROCS when Workers is 0.
func (o Options) WorkerCount(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Context is the per-mode analysis state: one design + one SDC mode.
type Context struct {
	G    *graph.Graph
	Mode *sdc.Mode
	Opt  Options

	Clocks      []*ClockInfo
	clockByName map[string]ClockID
	// clockRank is each clock's position in ascending name order (ties
	// by id); relation rows sort their clocks by it.
	clockRank []int32

	// Consts holds the case-analysis constant value per node.
	Consts []library.Logic
	// ArcDisabled marks arcs removed by disable_timing, constants or
	// clock-group handling.
	ArcDisabled []bool
	// NodeDisabled marks nodes disabled by set_disable_timing.
	NodeDisabled []bool

	// ClockTags lists the clocks present at each node of the clock
	// network (after stop_propagation and constant blocking).
	ClockTags [][]ClockAtNode

	// exclusive[a][b] reports that clocks a and b never time a path
	// together (set_clock_groups).
	exclusive [][]bool
	// interUnc holds inter-clock uncertainties: [launch][capture] →
	// (setup, hold), represented sparsely.
	interUnc map[[2]ClockID][2]float64

	// ioByPort indexes input/output delays by port node.
	ioByPort map[graph.NodeID][]*sdc.IODelay

	exc *excSet

	// forcedCase records the direct case-analysis values by node.
	forcedCase map[graph.NodeID]library.Logic

	// clockActive caches per-clock activity (lazy, once-protected so a
	// context cached by the incremental engine can be shared by
	// concurrent merges; see ClockActive).
	clockActive []bool
	activeGuard sync.Once

	// rel memoizes relation-query results (per-endpoint pass-1/2 maps,
	// per-pair pass-3 slices and live-path profiles); see relcache.go.
	rel relCache

	// borrowNode/borrowClock hold set_max_time_borrow limits.
	borrowNode  map[graph.NodeID]float64
	borrowClock map[ClockID]float64

	// delays/slews hold the per-mode delay-calculation result (see
	// delaycalc.go).
	delays []arcDelay
	slews  []float64

	// Warnings collects non-fatal analysis notes. preExcWarnings counts
	// the warnings emitted before exception compilation, so a derived
	// context (DeriveExceptionsOnly) can re-run exception compilation
	// without duplicating the earlier notes.
	Warnings       []string
	preExcWarnings int
}

// NewContext resolves a mode against a design's timing graph: clocks,
// constants, disabled arcs and clock propagation. Data propagations run
// per query and are not kept.
func NewContext(g *graph.Graph, mode *sdc.Mode, opt Options) (*Context, error) {
	if opt.MaxLaunchEdges <= 0 {
		opt.MaxLaunchEdges = 64
	}
	ctx := &Context{
		G:           g,
		Mode:        mode,
		Opt:         opt,
		clockByName: make(map[string]ClockID),
		interUnc:    make(map[[2]ClockID][2]float64),
		ioByPort:    make(map[graph.NodeID][]*sdc.IODelay),
	}
	if err := ctx.resolveClocks(); err != nil {
		return nil, err
	}
	if err := ctx.applyEnvironment(); err != nil {
		return nil, err
	}
	if err := ctx.resolveBorrows(); err != nil {
		return nil, err
	}
	ctx.propagateConstants()
	ctx.disableConstArcs()
	ctx.computeDelays()
	if err := ctx.propagateClocks(); err != nil {
		return nil, err
	}
	if err := ctx.buildExclusive(); err != nil {
		return nil, err
	}
	ctx.preExcWarnings = len(ctx.Warnings)
	ctx.exc = newExcSet(ctx)
	return ctx, nil
}

// DeriveExceptionsOnly builds the analysis context of a mode that differs
// from prev's mode ONLY in its timing exceptions. Everything NewContext
// derives ahead of exception compilation — clocks, case constants,
// disables, delays, clock propagation, exclusivity, borrows — depends on
// the other mode sections alone, so the derived context shares those
// (immutable after construction) and re-runs only exception compilation.
// This is the refinement loop's rebuild fast path: each iteration appends
// corrective false paths and nothing else. Lazy state (the relation memo,
// clock activity) starts empty; the caller transfers still-valid
// relation results via AdoptRelationResults. The caller is responsible
// for the only-exceptions-changed precondition — a mode edited anywhere
// else must go through NewContext.
func DeriveExceptionsOnly(prev *Context, mode *sdc.Mode, opt Options) *Context {
	if opt.MaxLaunchEdges <= 0 {
		opt.MaxLaunchEdges = 64
	}
	ctx := &Context{
		G:            prev.G,
		Mode:         mode,
		Opt:          opt,
		Clocks:       prev.Clocks,
		clockByName:  prev.clockByName,
		clockRank:    prev.clockRank,
		Consts:       prev.Consts,
		ArcDisabled:  prev.ArcDisabled,
		NodeDisabled: prev.NodeDisabled,
		ClockTags:    prev.ClockTags,
		exclusive:    prev.exclusive,
		interUnc:     prev.interUnc,
		ioByPort:     prev.ioByPort,
		forcedCase:   prev.forcedCase,
		borrowNode:   prev.borrowNode,
		borrowClock:  prev.borrowClock,
		delays:       prev.delays,
		slews:        prev.slews,
		// Pre-exception warnings carry over; exception compilation below
		// re-emits its own for the full (old + new) exception list, exactly
		// as a fresh NewContext would. Clip so later appends reallocate.
		Warnings: prev.Warnings[:prev.preExcWarnings:prev.preExcWarnings],
	}
	ctx.preExcWarnings = len(ctx.Warnings)
	ctx.exc = newExcSet(ctx)
	return ctx
}

// ClockByName returns the clock id for a name.
func (ctx *Context) ClockByName(name string) (ClockID, bool) {
	id, ok := ctx.clockByName[name]
	return id, ok
}

// Clock returns the clock info for an id.
func (ctx *Context) Clock(id ClockID) *ClockInfo { return ctx.Clocks[id] }

// Exclusive reports whether two clocks never time a path together.
func (ctx *Context) Exclusive(a, b ClockID) bool {
	if a == NoClock || b == NoClock {
		return false
	}
	return ctx.exclusive[a][b]
}

func (ctx *Context) warnf(format string, args ...any) {
	ctx.Warnings = append(ctx.Warnings, fmt.Sprintf(format, args...))
}

func (ctx *Context) resolveClocks() error {
	for _, def := range ctx.Mode.Clocks {
		id := ClockID(len(ctx.Clocks))
		info := &ClockInfo{ID: id, Def: def}
		for _, src := range def.Sources {
			node, ok := ctx.G.NodeByName(src.Name)
			if !ok {
				return fmt.Errorf("clock %s: source %q not in design", def.Name, src.Name)
			}
			info.SrcNodes = append(info.SrcNodes, node)
		}
		ctx.Clocks = append(ctx.Clocks, info)
		ctx.clockByName[def.Name] = id
	}
	byName := make([]ClockID, len(ctx.Clocks))
	for i := range byName {
		byName[i] = ClockID(i)
	}
	slices.SortStableFunc(byName, func(a, b ClockID) int {
		return strings.Compare(ctx.Clocks[a].Def.Name, ctx.Clocks[b].Def.Name)
	})
	ctx.clockRank = make([]int32, len(byName))
	for r, id := range byName {
		ctx.clockRank[id] = int32(r)
	}
	// Latencies.
	for _, lat := range ctx.Mode.ClockLatencies {
		for _, name := range lat.Clocks {
			id, ok := ctx.clockByName[name]
			if !ok {
				return fmt.Errorf("set_clock_latency: unknown clock %q", name)
			}
			c := ctx.Clocks[id]
			if lat.Source {
				applyMinMax(&c.SrcLatMin, &c.SrcLatMax, lat.Value, lat.Level)
			} else {
				applyMinMax(&c.LatMin, &c.LatMax, lat.Value, lat.Level)
			}
		}
		// Pin latencies are accepted but folded into the clock's network
		// latency conservatively.
		for _, pin := range lat.Pins {
			ctx.warnf("set_clock_latency on pin %s treated as clock network latency", pin.Name)
		}
	}
	// Uncertainties.
	for _, unc := range ctx.Mode.ClockUncertainties {
		if unc.FromClock != "" {
			from, ok1 := ctx.clockByName[unc.FromClock]
			to, ok2 := ctx.clockByName[unc.ToClock]
			if !ok1 || !ok2 {
				return fmt.Errorf("set_clock_uncertainty: unknown clock in -from/-to")
			}
			key := [2]ClockID{from, to}
			v := ctx.interUnc[key]
			if unc.Setup {
				v[0] = math.Max(v[0], unc.Value)
			}
			if unc.Hold {
				v[1] = math.Max(v[1], unc.Value)
			}
			ctx.interUnc[key] = v
			continue
		}
		for _, name := range unc.Clocks {
			id, ok := ctx.clockByName[name]
			if !ok {
				return fmt.Errorf("set_clock_uncertainty: unknown clock %q", name)
			}
			c := ctx.Clocks[id]
			if unc.Setup {
				c.UncSetup = math.Max(c.UncSetup, unc.Value)
			}
			if unc.Hold {
				c.UncHold = math.Max(c.UncHold, unc.Value)
			}
		}
		for _, pin := range unc.Pins {
			ctx.warnf("set_clock_uncertainty on pin %s ignored; use clocks", pin.Name)
		}
	}
	// Propagated clocks.
	for _, pc := range ctx.Mode.PropagatedClocks {
		for _, name := range pc.Clocks {
			id, ok := ctx.clockByName[name]
			if !ok {
				return fmt.Errorf("set_propagated_clock: unknown clock %q", name)
			}
			ctx.Clocks[id].Propagated = true
		}
		if len(pc.Pins) > 0 {
			// Propagating from a pin applies to all clocks through it;
			// conservatively propagate every clock.
			for _, c := range ctx.Clocks {
				c.Propagated = true
			}
		}
	}
	return nil
}

func applyMinMax(minV, maxV *float64, v float64, level sdc.MinMax) {
	switch level {
	case sdc.MinOnly:
		*minV = v
	case sdc.MaxOnly:
		*maxV = v
	default:
		*minV, *maxV = v, v
	}
}

// applyEnvironment resolves case analysis, disable_timing and IO delays
// onto graph structures.
func (ctx *Context) applyEnvironment() error {
	n := ctx.G.NumNodes()
	ctx.Consts = make([]library.Logic, n)
	ctx.NodeDisabled = make([]bool, n)
	ctx.ArcDisabled = make([]bool, ctx.G.NumArcs())

	forced := make(map[graph.NodeID]library.Logic)
	for _, ca := range ctx.Mode.Cases {
		for _, obj := range ca.Objects {
			id, ok := ctx.G.NodeByName(obj.Name)
			if !ok {
				return fmt.Errorf("set_case_analysis: object %q not in design", obj.Name)
			}
			if prev, dup := forced[id]; dup && prev != ca.Value {
				return fmt.Errorf("set_case_analysis: conflicting values on %q", obj.Name)
			}
			forced[id] = ca.Value
		}
	}
	ctx.forcedCase = forced

	for _, dis := range ctx.Mode.Disables {
		for _, obj := range dis.Objects {
			switch obj.Kind {
			case sdc.PortObj, sdc.PinObj:
				id, ok := ctx.G.NodeByName(obj.Name)
				if !ok {
					return fmt.Errorf("set_disable_timing: object %q not in design", obj.Name)
				}
				ctx.NodeDisabled[id] = true
			case sdc.CellObj:
				inst := ctx.G.Design.InstByName(obj.Name)
				if inst == nil {
					return fmt.Errorf("set_disable_timing: no cell %q", obj.Name)
				}
				ctx.disableCellArcs(inst, dis.FromPin, dis.ToPin)
			}
		}
	}
	// Node disables imply disabling every arc touching the node.
	for i := int32(0); i < int32(ctx.G.NumArcs()); i++ {
		a := ctx.G.Arc(i)
		if ctx.NodeDisabled[a.From] || ctx.NodeDisabled[a.To] {
			ctx.ArcDisabled[i] = true
		}
	}

	for _, d := range ctx.Mode.IODelays {
		if d.Clock != "" {
			if _, ok := ctx.clockByName[d.Clock]; !ok {
				return fmt.Errorf("io delay: unknown clock %q", d.Clock)
			}
		}
		for _, p := range d.Ports {
			id, ok := ctx.G.NodeByName(p.Name)
			if !ok {
				return fmt.Errorf("io delay: object %q not in design", p.Name)
			}
			ctx.ioByPort[id] = append(ctx.ioByPort[id], d)
		}
	}
	return nil
}

// disableCellArcs disables the instance's arcs, optionally filtered by
// from/to pin names.
func (ctx *Context) disableCellArcs(inst *netlist.Instance, fromPin, toPin string) {
	for i := int32(0); i < int32(ctx.G.NumArcs()); i++ {
		a := ctx.G.Arc(i)
		if a.Kind == graph.NetArc {
			continue
		}
		fromNode := ctx.G.Node(a.From)
		if fromNode.Inst != inst {
			continue
		}
		if fromPin != "" && inst.Cell.Pins[fromNode.Pin].Name != fromPin {
			continue
		}
		toNode := ctx.G.Node(a.To)
		if toPin != "" && inst.Cell.Pins[toNode.Pin].Name != toPin {
			continue
		}
		ctx.ArcDisabled[i] = true
	}
}

// instPinValues returns a reader of the case constants of one instance's
// pins by pin name, and the node it reads from: set *at to any pin node
// of the instance before a call. One reader serves a whole pass, so
// evaluating cell functions allocates nothing.
func (ctx *Context) instPinValues() (at *graph.NodeID, value func(pinName string) library.Logic) {
	at = new(graph.NodeID)
	return at, func(pinName string) library.Logic {
		for i, p := range ctx.G.Node(*at).Inst.Cell.Pins {
			if p.Name == pinName {
				return ctx.Consts[ctx.G.InstPin(*at, i)]
			}
		}
		return library.LX
	}
}

// propagateConstants computes case-analysis constants over the graph.
func (ctx *Context) propagateConstants() {
	g := ctx.G
	at, pinValue := ctx.instPinValues()
	for _, id := range g.Topo() {
		if v, ok := ctx.forcedCase[id]; ok {
			ctx.Consts[id] = v
			continue
		}
		node := g.Node(id)
		switch {
		case node.Inst != nil && node.Inst.Cell.Pins[node.Pin].Dir == library.Output:
			fn, ok := node.Inst.Cell.Functions[node.Inst.Cell.Pins[node.Pin].Name]
			if !ok {
				ctx.Consts[id] = library.LX // sequential output
				continue
			}
			*at = id
			ctx.Consts[id] = fn.Eval(pinValue)
		default:
			// Input pin or port: value comes over net arcs from the
			// driver.
			val := library.LX
			for _, ai := range g.InArcs(id) {
				a := g.Arc(ai)
				if a.Kind == graph.NetArc {
					val = ctx.Consts[a.From]
					break
				}
			}
			ctx.Consts[id] = val
		}
	}
}

// disableConstArcs removes arcs that cannot toggle: either endpoint is
// constant, or the cell function is insensitive to the input under the
// constants (e.g. the deselected leg of a mux whose select is cased, or
// an AND input gated by a constant 0 side input).
func (ctx *Context) disableConstArcs() {
	g := ctx.G
	at, pinValue := ctx.instPinValues()
	for i := int32(0); i < int32(g.NumArcs()); i++ {
		a := g.Arc(i)
		if a.Kind == graph.SetupArc || a.Kind == graph.HoldArc {
			continue
		}
		if ctx.Consts[a.From].Known() || ctx.Consts[a.To].Known() {
			ctx.ArcDisabled[i] = true
			continue
		}
		if a.Kind != graph.CellArc {
			continue
		}
		toNode := g.Node(a.To)
		inst := toNode.Inst
		fn, ok := inst.Cell.Functions[inst.Cell.Pins[toNode.Pin].Name]
		if !ok {
			continue
		}
		fromPin := inst.Cell.Pins[g.Node(a.From).Pin].Name
		*at = a.To
		if !fn.Sensitive(fromPin, pinValue) {
			ctx.ArcDisabled[i] = true
		}
	}
}

// buildExclusive fills the clock exclusivity matrix from set_clock_groups.
func (ctx *Context) buildExclusive() error {
	n := len(ctx.Clocks)
	ctx.exclusive = make([][]bool, n)
	for i := range ctx.exclusive {
		ctx.exclusive[i] = make([]bool, n)
	}
	for _, cg := range ctx.Mode.ClockGroups {
		groupOf := make(map[ClockID]int)
		for gi, names := range cg.Groups {
			for _, name := range names {
				id, ok := ctx.clockByName[name]
				if !ok {
					return fmt.Errorf("set_clock_groups: unknown clock %q", name)
				}
				groupOf[id] = gi
			}
		}
		for a, ga := range groupOf {
			for b, gb := range groupOf {
				if ga != gb {
					ctx.exclusive[a][b] = true
				}
			}
		}
	}
	return nil
}
