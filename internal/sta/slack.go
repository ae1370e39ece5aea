package sta

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"modemerge/internal/graph"
	"modemerge/internal/relation"
	"modemerge/internal/sdc"
)

// EndpointResult is the worst-slack summary of one timing endpoint.
type EndpointResult struct {
	Node graph.NodeID
	Name string
	// Setup (max) analysis.
	HasSetup      bool
	SetupSlack    float64
	SetupLaunch   string
	SetupCapture  string
	CapturePeriod float64
	// Hold (min) analysis.
	HasHold   bool
	HoldSlack float64
}

// AnalyzeEndpoints computes worst setup and hold slack for every endpoint,
// in parallel, from one full data propagation that it drops on return
// (each call propagates afresh). Cancelling cx stops the worker pool
// between endpoints; the returned slice is then partial (unvisited
// entries stay zero) and the caller must consult cx.Err() before
// trusting it.
func (ctx *Context) AnalyzeEndpoints(cx context.Context) []EndpointResult {
	sp := ctx.Opt.Span.Child("analyze_endpoints")
	defer sp.Finish()
	ends := ctx.G.Endpoints()
	sp.Add("endpoints", int64(len(ends)))
	results := make([]EndpointResult, len(ends))
	tags, release := ctx.propagate(propOpts{})
	defer release()

	// Results are index-addressed, so the shard fan-out is deterministic
	// for any worker count; each shard reports under its own child span.
	workers := ctx.Opt.WorkerCount(len(ends))
	var wg sync.WaitGroup
	chunk := (len(ends) + workers - 1) / workers
	if chunk < 1 {
		chunk = 1
	}
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= len(ends) {
			break
		}
		hi := lo + chunk
		if hi > len(ends) {
			hi = len(ends)
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			wsp := sp.Child(fmt.Sprintf("shard_%d", w))
			defer wsp.Finish()
			for i := lo; i < hi; i++ {
				if cx.Err() != nil {
					return
				}
				results[i] = ctx.analyzeEndpoint(ends[i], tags[ends[i]])
			}
			wsp.Add("endpoints", int64(hi-lo))
		}(w, lo, hi)
	}
	wg.Wait()
	return results
}

// analyzeEndpoint runs every (data tag × capture clock) check at one
// endpoint and keeps the worst slacks.
func (ctx *Context) analyzeEndpoint(end graph.NodeID, m tagSet) EndpointResult {
	res := EndpointResult{Node: end, Name: ctx.G.Node(end).Name,
		SetupSlack: math.Inf(1), HoldSlack: math.Inf(1)}
	if len(m.entries) == 0 {
		return res
	}
	node := ctx.G.Node(end)

	setupMargin, holdMargin := 0.0, 0.0
	var captures []ClockAtNode
	isPort := node.Port != nil
	if node.IsRegData {
		for _, ai := range ctx.G.CheckArcs(end) {
			a := ctx.G.Arc(ai)
			if ctx.ArcDisabled[ai] {
				continue
			}
			switch a.Kind {
			case graph.SetupArc:
				setupMargin = math.Max(setupMargin, ctx.cornerMargin(a.Lib.Margin))
			case graph.HoldArc:
				holdMargin = math.Max(holdMargin, ctx.cornerMargin(a.Lib.Margin))
			}
		}
		captures = ctx.CaptureClocksAt(end)
	} else if isPort {
		captures = ctx.CaptureClocksAt(end)
	}

	for _, te := range m.entries {
		tag, arr := te.tag, te.arr
		if tag.launch == NoClock {
			// Unclocked arrivals are only checked against point-to-point
			// delay exceptions.
			ctx.pointToPointChecks(&res, end, tag, arr)
			continue
		}
		for _, ct := range captures {
			if ctx.Exclusive(tag.launch, ct.Clock) {
				continue
			}
			sm, hm := setupMargin, holdMargin
			if isPort {
				sm, hm = ctx.portMargins(end, ct.Clock)
			}
			ctx.checkPair(&res, end, tag, arr, ct, sm, hm)
		}
	}
	return res
}

// portMargins derives setup/hold margins from the output delays that
// reference the capture clock.
func (ctx *Context) portMargins(end graph.NodeID, capture ClockID) (setup, hold float64) {
	setup, hold = 0, 0
	for _, d := range ctx.outputDelays(end) {
		cid := NoClock
		if d.Clock != "" {
			if c, ok := ctx.clockByName[d.Clock]; ok {
				cid = c
			}
		}
		if cid != capture {
			continue
		}
		if d.Level != sdc.MinOnly {
			setup = math.Max(setup, d.Value)
		}
		if d.Level != sdc.MaxOnly {
			hold = math.Max(hold, -d.Value)
		}
	}
	return ctx.cornerMargin(setup), ctx.cornerMargin(hold)
}

// cornerMargin applies the analysis corner's margin derate; the nominal
// corner-less path returns the margin untouched.
func (ctx *Context) cornerMargin(m float64) float64 {
	if c := ctx.Opt.Corner; c != nil {
		return m * c.MarginFactor()
	}
	return m
}

// pointToPointChecks applies set_max_delay/set_min_delay to unclocked
// paths.
func (ctx *Context) pointToPointChecks(res *EndpointResult, end graph.NodeID, tag dataTag, arr arrival) {
	for _, e := range ctx.exc.completed(nil, tag.vec, end, NoClock, tag.trans, relation.Setup) {
		if e.Kind == sdc.MaxDelay {
			slack := e.Value - arr.max
			if !res.HasSetup || slack < res.SetupSlack {
				res.HasSetup = true
				res.SetupSlack = slack
				res.SetupLaunch = "(none)"
				res.SetupCapture = "(none)"
				res.CapturePeriod = 0
			}
		}
	}
	for _, e := range ctx.exc.completed(nil, tag.vec, end, NoClock, tag.trans, relation.Hold) {
		if e.Kind == sdc.MinDelay {
			slack := arr.min - e.Value
			if !res.HasHold || slack < res.HoldSlack {
				res.HasHold = true
				res.HoldSlack = slack
			}
		}
	}
}

// checkPair runs setup and hold checks for one (tag, capture) pair.
func (ctx *Context) checkPair(res *EndpointResult, end graph.NodeID, tag dataTag, arr arrival, ct ClockAtNode, setupMargin, holdMargin float64) {
	launch := ctx.Clocks[tag.launch]
	capture := ctx.Clocks[ct.Clock]

	// Setup side.
	setupExcs := ctx.exc.completed(nil, tag.vec, end, ct.Clock, tag.trans, relation.Setup)
	setupWinner := sdc.Winner(setupExcs)
	mSetup := 1
	setupIsFP := false
	setupMaxDelay := math.NaN()
	if setupWinner != nil {
		switch setupWinner.Kind {
		case sdc.FalsePath:
			setupIsFP = true
		case sdc.MulticyclePath:
			mSetup = setupWinner.Multiplier
		case sdc.MaxDelay:
			setupMaxDelay = setupWinner.Value
		}
	}

	launchEdgeTime := launch.RiseTime()
	if tag.launchEdge == sdc.EdgeFall {
		launchEdgeTime = launch.FallTime()
	}
	capEdgeTime := capture.RiseTime()
	if ct.Inv {
		capEdgeTime = capture.FallTime()
	}

	// Clock latencies: for propagated clocks the network delay is already
	// inside the data arrival (launch) / the capture tag (capture).
	launchLatMax := launch.SrcLatMax
	launchLatMin := launch.SrcLatMin
	if !launch.Propagated {
		launchLatMax += launch.LatMax
		launchLatMin += launch.LatMin
	}
	capLatMin := capture.SrcLatMin
	capLatMax := capture.SrcLatMax
	if capture.Propagated {
		capLatMin += ct.ArrMin
		capLatMax += ct.ArrMax
	} else {
		capLatMin += capture.LatMin
		capLatMax += capture.LatMax
	}

	uncSetup, uncHold := capture.UncSetup, capture.UncHold
	if v, ok := ctx.interUnc[[2]ClockID{tag.launch, ct.Clock}]; ok {
		uncSetup, uncHold = v[0], v[1]
	}

	sep, ok := ctx.separation(launch, launchEdgeTime, capture, capEdgeTime)
	if !ok {
		return
	}

	if !setupIsFP {
		var slack float64
		if !math.IsNaN(setupMaxDelay) {
			slack = setupMaxDelay - arr.max - setupMargin
		} else {
			// Everything is relative to the launch edge: sep is the
			// capture−launch edge separation, the multicycle shifts the
			// capture edge by whole capture periods. Latch endpoints may
			// borrow through their transparency window.
			required := sep + float64(mSetup-1)*capture.Period() + capLatMin - uncSetup - setupMargin
			required += ctx.borrowAllowance(end, ct)
			arrive := launchLatMax + arr.max
			slack = required - arrive
		}
		if !res.HasSetup || slack < res.SetupSlack {
			res.HasSetup = true
			res.SetupSlack = slack
			res.SetupLaunch = launch.Def.Name
			res.SetupCapture = capture.Def.Name
			res.CapturePeriod = capture.Period()
		}
	}

	// Hold side.
	holdExcs := ctx.exc.completed(nil, tag.vec, end, ct.Clock, tag.trans, relation.Hold)
	holdWinner := sdc.Winner(holdExcs)
	mHold := 0
	holdIsFP := false
	holdMinDelay := math.NaN()
	if holdWinner != nil {
		switch holdWinner.Kind {
		case sdc.FalsePath:
			holdIsFP = true
		case sdc.MulticyclePath:
			mHold = holdWinner.Multiplier
		case sdc.MinDelay:
			holdMinDelay = holdWinner.Value
		}
	}
	if !holdIsFP {
		var slack float64
		if !math.IsNaN(holdMinDelay) {
			slack = arr.min - holdMinDelay - holdMargin
		} else {
			// The hold capture edge sits one capture period before the
			// setup edge (default mHold=0); a hold multicycle pushes it
			// back further. All relative to the launch edge.
			setupEdge := sep + float64(mSetup-1)*capture.Period()
			holdEdge := setupEdge - float64(1+mHold)*capture.Period()
			slack = (launchLatMin + arr.min) - (holdEdge + capLatMax + uncHold + holdMargin)
		}
		if !res.HasHold || slack < res.HoldSlack {
			res.HasHold = true
			res.HoldSlack = slack
		}
	}
}

// separation computes the worst (smallest positive) launch-to-capture
// edge separation over the two clock waveforms' hyperperiod.
func (ctx *Context) separation(launch *ClockInfo, launchEdge float64, capture *ClockInfo, capEdge float64) (float64, bool) {
	pl, pc := launch.Period(), capture.Period()
	if pl <= 0 || pc <= 0 {
		return 0, false
	}
	n := 1
	if diff := math.Abs(pl - pc); diff > 1e-12 {
		// Number of launch repetitions to cover the hyperperiod.
		h := hyperperiod(pl, pc, float64(ctx.Opt.MaxLaunchEdges)*pl)
		if h <= 0 {
			// No rational relation within the cap: fall back to the
			// smallest period as a pessimistic separation.
			return math.Min(pl, pc), true
		}
		n = int(math.Round(h / pl))
		if n < 1 {
			n = 1
		}
	}
	const eps = 1e-9
	best := math.Inf(1)
	for j := 0; j < n; j++ {
		l := launchEdge + float64(j)*pl
		// Smallest capture edge strictly after l.
		k := math.Ceil((l + eps - capEdge) / pc)
		c := capEdge + k*pc
		if sep := c - l; sep < best {
			best = sep
		}
	}
	if math.IsInf(best, 1) {
		return 0, false
	}
	return best, true
}

// hyperperiod returns the least common multiple of two periods, or 0 when
// it exceeds the cap or the periods have no small rational relation.
func hyperperiod(a, b, cap_ float64) float64 {
	const scale = 1e6
	ia, ib := int64(math.Round(a*scale)), int64(math.Round(b*scale))
	if ia <= 0 || ib <= 0 {
		return 0
	}
	g := gcd64(ia, ib)
	l := ia / g * ib
	h := float64(l) / scale
	if h > cap_ {
		return 0
	}
	return h
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Summarize folds endpoint results into totals.
func Summarize(results []EndpointResult) (worstSetup, worstHold float64, checkedEndpoints int) {
	worstSetup, worstHold = math.Inf(1), math.Inf(1)
	for _, r := range results {
		if r.HasSetup || r.HasHold {
			checkedEndpoints++
		}
		if r.HasSetup && r.SetupSlack < worstSetup {
			worstSetup = r.SetupSlack
		}
		if r.HasHold && r.HoldSlack < worstHold {
			worstHold = r.HoldSlack
		}
	}
	return worstSetup, worstHold, checkedEndpoints
}

// SortBySetupSlack orders results most critical first; endpoints with no
// setup check sort last.
func SortBySetupSlack(results []EndpointResult) {
	sort.Slice(results, func(i, j int) bool {
		a, b := results[i], results[j]
		if a.HasSetup != b.HasSetup {
			return a.HasSetup
		}
		if !a.HasSetup {
			return a.Name < b.Name
		}
		if a.SetupSlack != b.SetupSlack {
			return a.SetupSlack < b.SetupSlack
		}
		return a.Name < b.Name
	})
}

// FormatEndpoint renders one endpoint result line.
func FormatEndpoint(r EndpointResult) string {
	setup, hold := "   -   ", "   -   "
	if r.HasSetup {
		setup = fmt.Sprintf("%7.3f", r.SetupSlack)
	}
	if r.HasHold {
		hold = fmt.Sprintf("%7.3f", r.HoldSlack)
	}
	return fmt.Sprintf("%-40s setup %s  hold %s  (%s -> %s)", r.Name, setup, hold, r.SetupLaunch, r.SetupCapture)
}
