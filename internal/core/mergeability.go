package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"modemerge/internal/graph"
	"modemerge/internal/incr"
	"modemerge/internal/library"
	"modemerge/internal/sdc"
)

// NonMergeable explains why a mode pair cannot merge.
type NonMergeable struct {
	A, B   string
	Reason string
}

// Mergeability is the result of the mock-merge analysis: the mergeability
// graph of Figure 2.
type Mergeability struct {
	ModeNames []string
	// Edge[i][j] reports that modes i and j are mergeable.
	Edge [][]bool
	// Conflicts lists the reasons for non-mergeable pairs.
	Conflicts []NonMergeable
}

// AnalyzeMergeability performs the paper's mock run of preliminary mode
// merging on every mode pair and builds the mergeability graph. A pair is
// non-mergeable when corresponding clock-based constraints or drive/load
// constraints disagree beyond the tolerance, or when the clock union
// would force one mode's generated clock to conflict with another clock
// of the same name and derivation point.
func AnalyzeMergeability(g *graph.Graph, modes []*sdc.Mode, opt Options) (*Mergeability, error) {
	mb, _, err := analyzeMergeability(g, modes, opt)
	return mb, err
}

// pairCacheStats reports how the pair-verdict cache fared during one
// mergeability analysis, for trace counters and service stats.
type pairCacheStats struct{ hits, misses int64 }

func analyzeMergeability(g *graph.Graph, modes []*sdc.Mode, opt Options) (*Mergeability, pairCacheStats, error) {
	opt = opt.withDefaults()
	n := len(modes)
	mb := &Mergeability{
		ModeNames: make([]string, n),
		Edge:      make([][]bool, n),
	}
	for i, m := range modes {
		mb.ModeNames[i] = m.Name
		mb.Edge[i] = make([]bool, n)
	}
	// Mock merges are independent per pair: fan them out on the bounded
	// pool into an index-addressed result array, then reduce sequentially
	// in pair order so Edge and Conflicts come out identical to the
	// sequential path.
	type pairIdx struct{ i, j int }
	pairs := make([]pairIdx, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, pairIdx{i, j})
		}
	}
	var st pairCacheStats
	// evalRound mock-merges every pair of one effective mode set and
	// returns the per-pair conflict reasons for that set.
	evalRound := func(roundModes []*sdc.Mode) []string {
		rr := make([]string, len(pairs))
		if opt.Cache != nil {
			// Incremental path: verdicts are addressed by the two modes'
			// canonical SDC texts + tolerance, so after editing one mode of
			// N only its N−1 pairs re-run mock merges. Corner rounds key by
			// their effective (overlay-applied) texts, so verdicts are
			// naturally per corner.
			texts := make([]string, n)
			for i, m := range roundModes {
				texts[i] = sdc.Write(m)
			}
			keys := make([]string, len(pairs))
			var missed []int
			for k, p := range pairs {
				keys[k] = pairVerdictKey(opt.Tolerance, texts[p.i], texts[p.j])
				if b, ok := opt.Cache.GetBytes(incr.GranPair, keys[k]); ok {
					if r, valid := decodePairVerdict(b); valid {
						rr[k] = r
						st.hits++
						continue
					}
				}
				missed = append(missed, k)
			}
			st.misses += int64(len(missed))
			forEachParallel(context.Background(), len(missed), opt.parallelism(), func(m int) {
				k := missed[m]
				rr[k] = mockMerge(roundModes[pairs[k].i], roundModes[pairs[k].j], opt.Tolerance)
			})
			for _, k := range missed {
				opt.Cache.PutBytes(incr.GranPair, keys[k], encodePairVerdict(rr[k]))
			}
		} else {
			forEachParallel(context.Background(), len(pairs), opt.parallelism(), func(k int) {
				rr[k] = mockMerge(roundModes[pairs[k].i], roundModes[pairs[k].j], opt.Tolerance)
			})
		}
		return rr
	}

	reasons := make([]string, len(pairs))
	if len(opt.Corners) == 0 {
		reasons = evalRound(modes)
	} else {
		// Corner-aware rule: a pair is mergeable iff it is mergeable in
		// every corner's effective (overlay-applied) mode texts; the first
		// conflicting corner, in corner order, names the reason. Corners
		// without overlays share the base texts — derates scale delays,
		// never constraint values, so they cannot change the mock merge.
		if err := library.ValidateCorners(opt.Corners); err != nil {
			return nil, st, fmt.Errorf("core: %w", err)
		}
		for c := range opt.Corners {
			crn := &opt.Corners[c]
			eff := modes
			if crn.SDC != "" {
				eff = make([]*sdc.Mode, n)
				for i, m := range modes {
					em, err := applyCornerOverlay(g.Design, m, crn)
					if err != nil {
						return nil, st, err
					}
					eff[i] = em
				}
			}
			rr := evalRound(eff)
			for k := range pairs {
				if reasons[k] == "" && rr[k] != "" {
					reasons[k] = "corner " + crn.Name + ": " + rr[k]
				}
			}
		}
	}
	for k, p := range pairs {
		if reasons[k] == "" {
			mb.Edge[p.i][p.j] = true
			mb.Edge[p.j][p.i] = true
		} else {
			mb.Conflicts = append(mb.Conflicts, NonMergeable{
				A: modes[p.i].Name, B: modes[p.j].Name, Reason: reasons[k]})
		}
	}
	return mb, st, nil
}

// within reports whether two values agree within the relative
// tolerance tol: the one rule both the mock merge and the preliminary
// merge judge constraint values by.
func within(a, b, tol float64) bool {
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= tol*scale
}

// sortedKeys returns the keys of a string-keyed map in sorted order, so
// first-conflict selection below never depends on map iteration order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// mockMerge checks one pair; it returns "" when mergeable or the first
// conflict found (in sorted key order, so the reason is deterministic).
func mockMerge(a, b *sdc.Mode, tol float64) string {
	// Corresponding clocks: same sources + waveform → same merged clock.
	// Their latency/uncertainty/transition values must agree within
	// tolerance.
	type clockVals struct {
		latency, srcLatency, uncertainty, transition float64
		hasLat, hasSrcLat, hasUnc, hasTr             bool
	}
	collect := func(m *sdc.Mode) map[string]*clockVals {
		out := map[string]*clockVals{}
		keyOf := map[string]string{} // local name → union key
		for _, c := range m.Clocks {
			key := c.SourceKey() + "|" + c.WaveformKey()
			keyOf[c.Name] = key
			out[key] = &clockVals{}
		}
		for _, l := range m.ClockLatencies {
			for _, cn := range l.Clocks {
				if v, ok := out[keyOf[cn]]; ok {
					if l.Source {
						v.srcLatency, v.hasSrcLat = l.Value, true
					} else {
						v.latency, v.hasLat = l.Value, true
					}
				}
			}
		}
		for _, u := range m.ClockUncertainties {
			for _, cn := range u.Clocks {
				if v, ok := out[keyOf[cn]]; ok {
					v.uncertainty, v.hasUnc = math.Max(v.uncertainty, u.Value), true
				}
			}
		}
		for _, tr := range m.ClockTransitions {
			for _, cn := range tr.Clocks {
				if v, ok := out[keyOf[cn]]; ok {
					v.transition, v.hasTr = tr.Value, true
				}
			}
		}
		return out
	}
	va, vb := collect(a), collect(b)
	for _, key := range sortedKeys(va) {
		ca := va[key]
		cb, shared := vb[key]
		if !shared {
			continue
		}
		if ca.hasLat && cb.hasLat && !within(ca.latency, cb.latency, tol) {
			return fmt.Sprintf("clock latency differs beyond tolerance (%g vs %g)", ca.latency, cb.latency)
		}
		if ca.hasSrcLat && cb.hasSrcLat && !within(ca.srcLatency, cb.srcLatency, tol) {
			return fmt.Sprintf("source latency differs beyond tolerance (%g vs %g)", ca.srcLatency, cb.srcLatency)
		}
		if ca.hasUnc && cb.hasUnc && !within(ca.uncertainty, cb.uncertainty, tol) {
			return fmt.Sprintf("clock uncertainty differs beyond tolerance (%g vs %g)", ca.uncertainty, cb.uncertainty)
		}
		if ca.hasTr && cb.hasTr && !within(ca.transition, cb.transition, tol) {
			return fmt.Sprintf("clock transition differs beyond tolerance (%g vs %g)", ca.transition, cb.transition)
		}
	}

	// Drive/load environment must agree within tolerance per port.
	portVals := func(m *sdc.Mode) (tr, load, drive map[string]float64, cells map[string]string) {
		tr, load, drive = map[string]float64{}, map[string]float64{}, map[string]float64{}
		cells = map[string]string{}
		for _, t := range m.InputTransitions {
			for _, p := range t.Ports {
				tr[p.Name] = t.Value
			}
		}
		for _, l := range m.Loads {
			for _, p := range l.Ports {
				load[p.Name] = l.Value
			}
		}
		for _, dc := range m.DrivingCells {
			for _, p := range dc.Ports {
				if dc.CellName != "" {
					cells[p.Name] = dc.CellName
				} else {
					drive[p.Name] = dc.Resistance
				}
			}
		}
		return
	}
	trA, loadA, drvA, cellA := portVals(a)
	trB, loadB, drvB, cellB := portVals(b)
	for _, port := range sortedKeys(trA) {
		if y, ok := trB[port]; ok && !within(trA[port], y, tol) {
			return fmt.Sprintf("input transition on %s differs beyond tolerance (%g vs %g)", port, trA[port], y)
		}
	}
	for _, port := range sortedKeys(loadA) {
		if y, ok := loadB[port]; ok && !within(loadA[port], y, tol) {
			return fmt.Sprintf("load on %s differs beyond tolerance (%g vs %g)", port, loadA[port], y)
		}
	}
	for _, port := range sortedKeys(drvA) {
		if y, ok := drvB[port]; ok && !within(drvA[port], y, tol) {
			return fmt.Sprintf("drive on %s differs beyond tolerance (%g vs %g)", port, drvA[port], y)
		}
	}
	for _, port := range sortedKeys(cellA) {
		if y, ok := cellB[port]; ok && cellA[port] != y {
			return fmt.Sprintf("driving cell on %s differs (%s vs %s)", port, cellA[port], y)
		}
	}
	return ""
}

// Cliques greedily partitions the mergeability graph into maximal merge
// groups (the paper uses a greedy algorithm "as the number of modes is
// small"). Modes are seeded in input order; each clique greedily absorbs
// every remaining mode adjacent to all current members.
func (mb *Mergeability) Cliques() [][]int {
	n := len(mb.ModeNames)
	assigned := make([]bool, n)
	var cliques [][]int
	for i := 0; i < n; i++ {
		if assigned[i] {
			continue
		}
		clique := []int{i}
		assigned[i] = true
		for j := i + 1; j < n; j++ {
			if assigned[j] {
				continue
			}
			ok := true
			for _, member := range clique {
				if !mb.Edge[member][j] {
					ok = false
					break
				}
			}
			if ok {
				clique = append(clique, j)
				assigned[j] = true
			}
		}
		cliques = append(cliques, clique)
	}
	return cliques
}

// GroupNames renders cliques as mode-name lists.
func (mb *Mergeability) GroupNames(cliques [][]int) [][]string {
	out := make([][]string, len(cliques))
	for i, c := range cliques {
		for _, m := range c {
			out[i] = append(out[i], mb.ModeNames[m])
		}
	}
	return out
}

// PlanMerge runs the mergeability analysis and greedy clique scheduling
// — the planning half of MergeAll — recording the "mergeability" trace
// span and stage timing exactly like MergeAll. The returned cliques are
// independent units of work: each can be merged in isolation (see
// MergeClique) in any order, on any node, and the results reassembled in
// clique order are byte-identical to a sequential MergeAll.
func PlanMerge(g *graph.Graph, modes []*sdc.Mode, opt Options) (*Mergeability, [][]int, error) {
	if err := checkModeNames(modes); err != nil {
		return nil, nil, err
	}
	sp := opt.Trace.Child("mergeability")
	done := opt.stage("mergeability")
	mb, pst, err := analyzeMergeability(g, modes, opt)
	if err != nil {
		sp.Finish()
		return nil, nil, err
	}
	cliques := mb.Cliques()
	sp.SetAttr("design", g.Design.Name)
	sp.Add("modes", int64(len(modes)))
	sp.Add("cliques", int64(len(cliques)))
	sp.Add("conflicts", int64(len(mb.Conflicts)))
	if opt.Cache != nil {
		sp.Add("pair_cache_hits", pst.hits)
		sp.Add("pair_cache_misses", pst.misses)
	}
	sp.Finish()
	done()
	return mb, cliques, nil
}

// MergeClique merges one already-planned clique of member modes into a
// superset mode — the execution half of MergeAll, and the unit of work a
// distributed merge fabric ships to workers. It is idempotent and
// content-addressed: identical (design, options, members) always produce
// byte-identical output, so a clique merge lost to a dying worker can
// simply be re-run anywhere. A singleton group passes the mode through
// untouched with an empty report. With Options.Cache set, the merged
// artifact is looked up before computing and stored back after.
func MergeClique(cx context.Context, g *graph.Graph, group []*sdc.Mode, opt Options) (*sdc.Mode, *Report, error) {
	if len(group) == 0 {
		return nil, nil, fmt.Errorf("core: empty merge clique")
	}
	if err := checkModeNames(group); err != nil {
		return nil, nil, err
	}
	if len(group) == 1 {
		return group[0], &Report{}, nil
	}
	names := make([]string, len(group))
	for i, m := range group {
		names[i] = m.Name
	}
	copt := opt
	copt.Trace = opt.Trace.Child("merge:" + strings.Join(names, "+"))
	copt.Trace.SetAttr("design", g.Design.Name)
	copt.Trace.SetAttr("members", strings.Join(names, ","))
	var key string
	if opt.Cache != nil {
		// Incremental path: a clique whose members (and design +
		// options) are unchanged replays its merged mode and report
		// from the cache without building any contexts.
		memberTexts := make([]string, len(group))
		for i, m := range group {
			memberTexts[i] = sdc.Write(m)
		}
		key = cliqueKey(g, opt, opt.MergedName, memberTexts)
		if merged, report, ok := lookupClique(opt.Cache, key, g); ok {
			copt.Trace.Add("clique_cache_hit", 1)
			copt.Trace.Finish()
			return merged, report, nil
		}
		copt.Trace.Add("clique_cache_miss", 1)
	}
	if opt.Hierarchical != nil {
		merged, report, err := mergeHierClique(cx, g, opt.Hierarchical, group, copt)
		copt.Trace.Finish()
		if err != nil {
			return nil, nil, fmt.Errorf("merging %v hierarchically: %w", names, err)
		}
		if opt.Cache != nil {
			storeClique(opt.Cache, key, merged, report, nil)
		}
		return merged, report, nil
	}
	mg, err := newMergerWithGraph(cx, g, group, copt)
	if err != nil {
		copt.Trace.Finish()
		return nil, nil, err
	}
	merged, err := mg.Merge(cx)
	copt.Trace.Finish()
	if err != nil {
		return nil, nil, fmt.Errorf("merging %v: %w", names, err)
	}
	if opt.Cache != nil {
		storeClique(opt.Cache, key, merged, mg.Report, mg.stamps())
	}
	return merged, mg.Report, nil
}

// checkModeNames rejects two modes with one name: merged mode names,
// reports and provenance tell members apart by name alone.
func checkModeNames(modes []*sdc.Mode) error {
	seen := make(map[string]bool, len(modes))
	for _, m := range modes {
		if seen[m.Name] {
			return fmt.Errorf("core: duplicate mode name %q", m.Name)
		}
		seen[m.Name] = true
	}
	return nil
}

// MergeAll analyzes mergeability, groups the modes into cliques and merges
// each clique, returning one merged mode per clique (singleton cliques
// pass the original mode through untouched). Cancelling cx aborts between
// cliques and inside each merge with the context error. It is PlanMerge
// followed by a sequential MergeClique per clique; callers wanting
// concurrent or distributed clique execution use those pieces directly
// (see internal/fabric) and get byte-identical results.
func MergeAll(cx context.Context, g *graph.Graph, modes []*sdc.Mode, opt Options) ([]*sdc.Mode, []*Report, *Mergeability, error) {
	mb, cliques, err := PlanMerge(g, modes, opt)
	if err != nil {
		return nil, nil, nil, err
	}
	var out []*sdc.Mode
	var reports []*Report
	for _, clique := range cliques {
		if err := cx.Err(); err != nil {
			return nil, nil, mb, err
		}
		group := make([]*sdc.Mode, len(clique))
		for i, m := range clique {
			group[i] = modes[m]
		}
		merged, report, err := MergeClique(cx, g, group, opt)
		if err != nil {
			return nil, nil, mb, err
		}
		out = append(out, merged)
		reports = append(reports, report)
	}
	return out, reports, mb, nil
}

// FormatMergeability renders the mergeability graph as text (Figure 2
// companion).
func FormatMergeability(mb *Mergeability, cliques [][]int) string {
	var b []byte
	b = append(b, "Mergeability graph:\n"...)
	for i, name := range mb.ModeNames {
		adj := []string{}
		for j := range mb.ModeNames {
			if i != j && mb.Edge[i][j] {
				adj = append(adj, mb.ModeNames[j])
			}
		}
		sort.Strings(adj)
		b = append(b, fmt.Sprintf("  %-12s -- %v\n", name, adj)...)
	}
	b = append(b, "Merge groups (greedy cliques):\n"...)
	for i, names := range mb.GroupNames(cliques) {
		b = append(b, fmt.Sprintf("  M%d: %v\n", i+1, names)...)
	}
	if len(mb.Conflicts) > 0 {
		b = append(b, "Conflicts:\n"...)
		for _, c := range mb.Conflicts {
			b = append(b, fmt.Sprintf("  %s / %s: %s\n", c.A, c.B, c.Reason)...)
		}
	}
	return string(b)
}
