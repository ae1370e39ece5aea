package core

import (
	"context"
	"fmt"
	"sort"

	"modemerge/internal/graph"
	"modemerge/internal/relation"
	"modemerge/internal/sdc"
	"modemerge/internal/sta"
)

// EquivalenceResult reports the timing-relationship comparison between a
// merged mode and its individual modes — the paper's correct-by-
// construction validation, also usable standalone as an SDC equivalence
// checker.
type EquivalenceResult struct {
	// MatchedGroups count path groups whose merged state equals the
	// per-path most-restrictive individual state.
	MatchedGroups int
	// PessimisticGroups are timed more tightly by the merged mode than
	// any individual mode requires (sign-off safe).
	PessimisticGroups int
	// OptimisticMismatches are groups the merged mode relaxes or drops
	// relative to the target — sign-off violations. Must be empty for a
	// valid merge.
	OptimisticMismatches []string
	// Unresolved would list groups still ambiguous after pass 3. The
	// checker leaves it empty: pass 3 skips any node where a side stays
	// multi-state, since finer nodes resolve those groups.
	Unresolved []string
}

// Equivalent reports overall success: no optimistic mismatches.
func (r *EquivalenceResult) Equivalent() bool { return len(r.OptimisticMismatches) == 0 }

// String summarizes the result.
func (r *EquivalenceResult) String() string {
	return fmt.Sprintf("matched=%d pessimistic=%d optimistic=%d unresolved=%d",
		r.MatchedGroups, r.PessimisticGroups, len(r.OptimisticMismatches), len(r.Unresolved))
}

// CheckEquivalence compares the merged mode against the individual modes
// at the three granularities of §3.2, without modifying anything. The
// clock mapping is rediscovered structurally (same source set and
// waveform). Cancelling cx aborts between and inside the passes with the
// context error.
func CheckEquivalence(cx context.Context, g *graph.Graph, individual []*sdc.Mode, merged *sdc.Mode, opt Options) (*EquivalenceResult, error) {
	mg, err := newMergerWithGraph(cx, g, individual, opt)
	if err != nil {
		return nil, err
	}
	// Rebuild only the clock map (union without emitting).
	mg.unionClocks()
	mg.merged = merged
	if err := mg.rebuildMerged(); err != nil {
		return nil, err
	}
	return mg.checkEquivalence(cx)
}

// checkEquivalence runs the non-mutating 3-pass comparison on the
// merger's current merged context.
func (mg *Merger) checkEquivalence(cx context.Context) (*EquivalenceResult, error) {
	res := &EquivalenceResult{}
	esp := mg.span.Child("equivalence")
	defer func() {
		esp.Add("matched", int64(res.MatchedGroups))
		esp.Add("pessimistic", int64(res.PessimisticGroups))
		esp.Add("optimistic", int64(len(res.OptimisticMismatches)))
		esp.Add("unresolved", int64(len(res.Unresolved)))
		esp.Finish()
	}()

	describe := func(k sta.RelKey, target, merged relation.Set) string {
		return fmt.Sprintf("%s -> %s [%s/%s %s]: individual=%s merged=%s",
			k.Start, k.End, k.Launch, k.Capture, k.Check, target.String(), merged.String())
	}
	classify := func(k sta.RelKey, gs *groupStates) (ambiguous bool) {
		target, ok := gs.target()
		if !ok {
			return true
		}
		ts, _ := target.Single()
		merged := gs.merged
		if merged.Empty() {
			merged = relation.NewSet(relation.StateFalse)
		}
		ms, single := merged.Single()
		if !single {
			return true
		}
		switch {
		case ms == ts:
			res.MatchedGroups++
		case relation.Relaxed(ms, ts):
			res.OptimisticMismatches = append(res.OptimisticMismatches, describe(k, target, merged))
		default:
			res.PessimisticGroups++
		}
		return false
	}

	// Pass 1. Groups classify in a fixed order — endpoints in graph
	// order, each endpoint's keys in sortedRelKeys order — so the
	// mismatch listing is the same on every run.
	p1 := esp.Child("equiv_pass1")
	perMode, mergedRels := mg.endpointAll(cx)
	if err := cx.Err(); err != nil {
		p1.Finish()
		return nil, err
	}
	groups := mg.gatherGroups(perMode, mergedRels)
	byEnd := map[string][]sta.RelKey{}
	for k := range groups {
		byEnd[k.End] = append(byEnd[k.End], k)
	}
	var ends []graph.NodeID // ambiguous endpoints, in graph order
	for _, end := range mg.g.Endpoints() {
		keys := byEnd[mg.g.Node(end).Name]
		sta.SortRelKeys(keys)
		ambiguous := false
		for _, k := range keys {
			if classify(k, groups[k]) {
				ambiguous = true
			}
		}
		if ambiguous {
			ends = append(ends, end)
		}
	}
	p1.Add("path_groups", int64(len(groups)))
	p1.Finish()

	// Pass 2: one batched fill per context, then the per-endpoint gather
	// in parallel and classification in order.
	p2 := esp.Child("equiv_pass2")
	mg.eachContext(cx, func(ctx *sta.Context) { ctx.FillStartEndRelations(ends) })
	seGroupsPerEnd := make([]map[sta.RelKey]*groupStates, len(ends))
	forEachParallel(cx, len(ends), mg.opt.parallelism(), func(i int) {
		perModeSE := make([]map[sta.RelKey]relation.Set, len(mg.ctxs))
		for m, ctx := range mg.ctxs {
			perModeSE[m] = ctx.StartEndRelations(ends[i])
		}
		seGroupsPerEnd[i] = mg.gatherGroups(perModeSE, mg.mctx.StartEndRelations(ends[i]))
	})
	if err := cx.Err(); err != nil {
		p2.Finish()
		return nil, err
	}
	type sePair struct{ start, end string }
	pass3 := map[sePair]bool{}
	for _, seGroups := range seGroupsPerEnd {
		for _, k := range sortedRelKeys(seGroups) {
			if classify(k, seGroups[k]) {
				pass3[sePair{k.Start, k.End}] = true
			}
		}
	}
	p2.Add("endpoints", int64(len(ends)))
	p2.Finish()

	// Pass 3: through relations per pair in parallel, classification in
	// pair order.
	p3 := esp.Child("equiv_pass3")
	defer p3.Finish()
	var pairs []sePair
	for p := range pass3 {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].start != pairs[j].start {
			return pairs[i].start < pairs[j].start
		}
		return pairs[i].end < pairs[j].end
	})
	p3.Add("pairs", int64(len(pairs)))
	type p3data struct {
		perMode [][]sta.ThroughRel
		merged  []sta.ThroughRel
		err     error
	}
	data := make([]p3data, len(pairs))
	forEachParallel(cx, len(pairs), mg.opt.parallelism(), func(i int) {
		startID, ok1 := mg.g.NodeByName(pairs[i].start)
		endID, ok2 := mg.g.NodeByName(pairs[i].end)
		if !ok1 || !ok2 {
			data[i].err = fmt.Errorf("internal: pass-3 pair %s→%s not in graph", pairs[i].start, pairs[i].end)
			return
		}
		data[i].perMode = make([][]sta.ThroughRel, len(mg.ctxs))
		for m, ctx := range mg.ctxs {
			data[i].perMode[m] = ctx.ThroughRelations(startID, endID)
		}
		data[i].merged = mg.mctx.ThroughRelations(startID, endID)
	})
	if err := cx.Err(); err != nil {
		return nil, err
	}
	for i, p := range pairs {
		if data[i].err != nil {
			return nil, data[i].err
		}
		mg.checkPass3(p.start, p.end, data[i].perMode, data[i].merged, res)
	}
	return res, nil
}

// checkPass3 compares the through-point relations of one pair, counting
// matches and pessimism on res and listing optimism. A node where the
// merged set or some mode's set stays multi-state is skipped: finer
// nodes resolve those reconvergent subclasses.
func (mg *Merger) checkPass3(startName, endName string, perModeTR [][]sta.ThroughRel, mergedTR []sta.ThroughRel, res *EquivalenceResult) {
	perMode := make([]map[graph.NodeID]map[sta.RelKey]relation.Set, len(mg.ctxs))
	for m := range mg.ctxs {
		perMode[m] = map[graph.NodeID]map[sta.RelKey]relation.Set{}
		for _, tr := range perModeTR[m] {
			mapped := map[sta.RelKey]relation.Set{}
			for k, set := range tr.States {
				mapped[mg.mapRelKey(m, k)] = set
			}
			perMode[m][tr.Node] = mapped
		}
	}
	for _, tr := range mergedTR {
		for _, k := range sortedRelKeys(tr.States) {
			mergedSet := tr.States[k]
			states := make([]relation.State, 0, len(mg.ctxs))
			nodeAmbiguous := false
			for m := range mg.ctxs {
				var set relation.Set
				if rels := perMode[m][tr.Node]; rels != nil {
					set = rels[k]
				}
				if set.Empty() {
					states = append(states, relation.StateFalse)
					continue
				}
				st, single := set.Single()
				if !single {
					nodeAmbiguous = true
					break
				}
				states = append(states, st)
			}
			ms, single := mergedSet.Single()
			if nodeAmbiguous || !single {
				continue
			}
			target := relation.MergeTarget(states)
			switch {
			case ms == target:
				res.MatchedGroups++
			case relation.Relaxed(ms, target):
				res.OptimisticMismatches = append(res.OptimisticMismatches,
					fmt.Sprintf("%s -through %s-> %s [%s/%s %s]: individual=%s merged=%s",
						startName, tr.Name, endName, k.Launch, k.Capture, k.Check,
						target.String(), ms.String()))
			default:
				res.PessimisticGroups++
			}
		}
	}
}
