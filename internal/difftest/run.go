package difftest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"modemerge/internal/core"
	"modemerge/internal/gen"
	"modemerge/internal/graph"
	"modemerge/internal/incr"
	"modemerge/internal/library"
	"modemerge/internal/netlist"
	"modemerge/internal/relation"
	"modemerge/internal/sdc"
	"modemerge/internal/sta"
)

// Property names reported in violations.
const (
	PropEquivalence      = "equivalence"       // CheckEquivalence finds optimism
	PropRoundTrip        = "roundtrip"         // merged SDC fails Write→Parse→Write
	PropPessimism        = "pessimism"         // merged stricter than NaiveMerge
	PropConformity       = "conformity"        // merged times an endpoint all members exclude
	PropDeterminism      = "determinism"       // parallel merge differs from sequential
	PropIncremental      = "incremental"       // warm cached re-merge differs from cold
	PropHierarchical     = "hierarchical"      // ETM-driven merge optimistic or wrong cliques
	PropCornerConformity = "corner-conformity" // merged mode optimistic in some corner's scenarios
)

// maxDetails bounds the per-property detail strings kept in a violation
// list; counts stay exact.
const maxDetails = 8

// Violation is one property failure in one merged clique.
type Violation struct {
	Property string `json:"property"`
	Clique   string `json:"clique"` // merged mode name
	Count    int    `json:"count"`  // offending groups/keys under this property
	Details  []string
}

func (v Violation) String() string {
	s := fmt.Sprintf("%s[%s] count=%d", v.Property, v.Clique, v.Count)
	for _, d := range v.Details {
		s += "\n    " + d
	}
	return s
}

// TrialResult is the outcome of running the oracle on one spec.
type TrialResult struct {
	Spec       *TrialSpec
	Modes      int
	Cliques    int
	Violations []Violation
	// Err is an infrastructure failure (generation, parse of a *generated*
	// mode, merge error) — distinct from a property violation.
	Err error
}

// Failed reports whether the trial found a property violation.
func (r *TrialResult) Failed() bool { return len(r.Violations) > 0 }

// Run generates the design and mode family from the spec, applies its
// perturbations, merges with the given fault injection, and checks the
// three properties on every merged clique. The fault injection applies
// only to the merge under test — the oracles themselves (equivalence
// check, naive baseline) always run clean.
func Run(cx context.Context, spec *TrialSpec, fault core.FaultInjection) *TrialResult {
	res := &TrialResult{Spec: spec}

	var g *gen.Generated
	var hier *netlist.HierDesign
	if spec.Hierarchical {
		// HierSpec mirrors DesignSpec field-for-field; the same structural
		// parameters size the hierarchical variant of the design.
		hg, err := gen.GenerateHier(gen.HierSpec{
			Name: spec.Design.Name, Seed: spec.Design.Seed,
			Domains: spec.Design.Domains, BlocksPerDomain: spec.Design.BlocksPerDomain,
			Stages: spec.Design.Stages, RegsPerStage: spec.Design.RegsPerStage,
			CloudDepth: spec.Design.CloudDepth, CrossPaths: spec.Design.CrossPaths,
			IOPairs: spec.Design.IOPairs,
		})
		if err != nil {
			res.Err = fmt.Errorf("generate hier: %w", err)
			return res
		}
		g, hier = &hg.Generated, hg.Hier
	} else {
		fg, err := gen.Generate(spec.Design)
		if err != nil {
			res.Err = fmt.Errorf("generate: %w", err)
			return res
		}
		g = fg
	}
	texts := g.ModesWithExtra(spec.Family, spec.ExtraHook(g))
	res.Modes = len(texts)

	var modes []*sdc.Mode
	for _, t := range texts {
		m, _, err := sdc.Parse(t.Name, t.Text, g.Design)
		if err != nil {
			res.Err = fmt.Errorf("parse generated mode %s: %w", t.Name, err)
			return res
		}
		modes = append(modes, m)
	}

	tg, err := graph.Build(g.Design)
	if err != nil {
		res.Err = fmt.Errorf("graph: %w", err)
		return res
	}

	opt := core.Options{Tolerance: spec.Tolerance, Inject: fault, Parallelism: spec.Parallelism}
	cleanOpt := core.Options{Tolerance: spec.Tolerance}

	// Corner trials merge the #modes × #corners scenario matrix. The
	// corners apply to the merge under test (and flow into the
	// determinism and incremental oracles through opt), while the oracle
	// baselines stay corner-less — relations don't depend on derates, and
	// the per-corner safety claim is checked by the corner-conformity
	// oracle on effective (overlay-applied) texts. Hierarchical trials
	// ignore the corner dimension: core rejects the combination.
	var corners []library.Corner
	if spec.Corners > 0 && !spec.Hierarchical {
		corners = spec.CornerSet(g)
		opt.Corners = corners
	}

	mergedModes, reports, mb, err := core.MergeAll(cx, tg, modes, opt)
	if err != nil {
		res.Err = fmt.Errorf("merge: %w", err)
		return res
	}
	cliques := mb.Cliques()
	res.Cliques = len(cliques)

	// Property 4: determinism — the (possibly parallel) merge above must
	// equal a fully sequential merge of the same spec byte-for-byte, both
	// the merged SDC and the explain reports. The same fault injection
	// applies to both sides, so the comparison isolates parallelism.
	if spec.Parallelism != 1 {
		res.Violations = append(res.Violations, checkDeterminism(cx, tg, modes, mergedModes, reports, opt)...)
		if err := cx.Err(); err != nil {
			res.Err = err
			return res
		}
	}

	// Property 5: incremental — merging through a content-addressed
	// sub-merge cache (cold fill, warm replay, warm after perturbing one
	// mode) must be byte-identical to cacheless merges of the same
	// inputs. The same fault injection applies to both sides, so the
	// comparison isolates the caching layer.
	if spec.Incremental {
		res.Violations = append(res.Violations, checkIncremental(cx, tg, modes, mergedModes, reports, opt)...)
		if err := cx.Err(); err != nil {
			res.Err = err
			return res
		}
	}

	// Property 6: hierarchical — the ETM-driven merge must agree with the
	// flat merge on clique structure and must never be optimistic. The
	// same fault injection applies to the hierarchical merge (it is a
	// merge under test too — that is how ETM faults become detectable);
	// the equivalence checks run clean.
	if hier != nil {
		res.Violations = append(res.Violations, checkHierarchical(cx, tg, hier, modes, mergedModes, cliques, opt, cleanOpt)...)
		if err := cx.Err(); err != nil {
			res.Err = err
			return res
		}
	}

	for i, clique := range cliques {
		if len(clique) < 2 {
			// A singleton clique's "merged" mode is the mode itself; the
			// properties hold trivially and checking it only costs time.
			continue
		}
		if err := cx.Err(); err != nil {
			res.Err = err
			return res
		}
		var members []*sdc.Mode
		for _, mi := range clique {
			members = append(members, modes[mi])
		}
		merged := mergedModes[i]
		res.Violations = append(res.Violations, checkClique(cx, tg, members, merged, corners, cleanOpt)...)
		if err := cx.Err(); err != nil {
			res.Err = err
			return res
		}
	}
	return res
}

// checkDeterminism re-merges with Parallelism=1 and compares the merged
// SDC text and explain-report JSON of every clique against the parallel
// run. Any difference is a sharding/reduction-order bug in the parallel
// engine.
func checkDeterminism(cx context.Context, tg *graph.Graph, modes []*sdc.Mode, parMerged []*sdc.Mode, parReports []*core.Report, opt core.Options) []Violation {
	seqOpt := opt
	seqOpt.Parallelism = 1
	seqMerged, seqReports, _, err := core.MergeAll(cx, tg, modes, seqOpt)
	if err != nil {
		return []Violation{{Property: PropDeterminism, Clique: "*", Count: 1,
			Details: []string{"sequential re-merge error: " + err.Error()}}}
	}
	if len(seqMerged) != len(parMerged) {
		return []Violation{{Property: PropDeterminism, Clique: "*", Count: 1,
			Details: []string{fmt.Sprintf("clique count differs: parallel %d vs sequential %d",
				len(parMerged), len(seqMerged))}}}
	}
	var out []Violation
	for i := range parMerged {
		var details []string
		if parMerged[i].Name != seqMerged[i].Name {
			details = append(details, fmt.Sprintf("merged name differs: %q vs %q",
				parMerged[i].Name, seqMerged[i].Name))
		}
		if pt, st := sdc.Write(parMerged[i]), sdc.Write(seqMerged[i]); pt != st {
			details = append(details, "merged SDC differs: "+firstDiff(pt, st))
		}
		pj, err1 := json.Marshal(parReports[i].Explain(parMerged[i].Name))
		sj, err2 := json.Marshal(seqReports[i].Explain(seqMerged[i].Name))
		if err1 != nil || err2 != nil {
			details = append(details, fmt.Sprintf("explain marshal error: %v / %v", err1, err2))
		} else if !bytes.Equal(pj, sj) {
			details = append(details, "explain JSON differs: "+firstDiff(string(pj), string(sj)))
		}
		if len(details) > 0 {
			out = append(out, Violation{Property: PropDeterminism, Clique: parMerged[i].Name,
				Count: len(details), Details: cap8(details)})
		}
	}
	return out
}

// checkHierarchical re-merges the same modes through the hierarchical
// ETM path (core.Options.Hierarchical) and holds the result to the
// issue's sign-off contract: identical clique structure, and a stitched
// merged mode that is never optimistic — neither against the member
// modes (absolute safety) nor against the flat merged mode (the stitch
// may only add pessimism relative to flat refinement, never remove
// relations the flat merge keeps).
func checkHierarchical(cx context.Context, tg *graph.Graph, hier *netlist.HierDesign, modes []*sdc.Mode, flatMerged []*sdc.Mode, flatCliques [][]int, opt, cleanOpt core.Options) []Violation {
	hopt := opt
	hopt.Hierarchical = hier
	hMerged, _, hmb, err := core.MergeAll(cx, tg, modes, hopt)
	if err != nil {
		return []Violation{{Property: PropHierarchical, Clique: "*", Count: 1,
			Details: []string{"hierarchical merge error: " + err.Error()}}}
	}
	hCliques := hmb.Cliques()
	if len(hCliques) != len(flatCliques) {
		return []Violation{{Property: PropHierarchical, Clique: "*", Count: 1,
			Details: []string{fmt.Sprintf("clique count differs: flat %d vs hierarchical %d",
				len(flatCliques), len(hCliques))}}}
	}
	var out []Violation
	for i, clique := range hCliques {
		if fmt.Sprint(clique) != fmt.Sprint(flatCliques[i]) {
			out = append(out, Violation{Property: PropHierarchical, Clique: hMerged[i].Name, Count: 1,
				Details: []string{fmt.Sprintf("clique membership differs: flat %v vs hierarchical %v",
					flatCliques[i], clique)}})
			continue
		}
		if len(clique) < 2 {
			continue // singleton: the mode itself on both sides
		}
		var members []*sdc.Mode
		for _, mi := range clique {
			members = append(members, modes[mi])
		}
		for _, ref := range []struct {
			against []*sdc.Mode
			label   string
		}{
			{members, "members"},
			{[]*sdc.Mode{flatMerged[i]}, "flat merged mode"},
		} {
			eq, err := core.CheckEquivalence(cx, tg, ref.against, hMerged[i], cleanOpt)
			switch {
			case err != nil:
				out = append(out, Violation{Property: PropHierarchical, Clique: hMerged[i].Name, Count: 1,
					Details: []string{"checker error vs " + ref.label + ": " + err.Error()}})
			case !eq.Equivalent():
				details := make([]string, 0, maxDetails)
				for _, d := range cap8(eq.OptimisticMismatches) {
					details = append(details, "vs "+ref.label+": "+d)
				}
				out = append(out, Violation{Property: PropHierarchical, Clique: hMerged[i].Name,
					Count: len(eq.OptimisticMismatches), Details: details})
			}
		}
	}
	return out
}

// checkIncremental holds the incremental re-merge engine to its
// byte-identity guarantee. The cacheless merge (baseMerged/baseReports)
// is the reference; the oracle then
//
//  1. merges the same modes through a fresh cache (cold fill) and on a
//     warm replay — both must match the reference;
//  2. perturbs one mode deterministically (an extra clock-uncertainty
//     line, i.e. "the user edited one mode file"), and compares the
//     warm incremental re-merge of the perturbed family against a cold
//     cacheless merge of it.
func checkIncremental(cx context.Context, tg *graph.Graph, modes []*sdc.Mode, baseMerged []*sdc.Mode, baseReports []*core.Report, opt core.Options) []Violation {
	violate := func(detail string) []Violation {
		return []Violation{{Property: PropIncremental, Clique: "*", Count: 1, Details: []string{detail}}}
	}
	fingerprint := func(merged []*sdc.Mode, reports []*core.Report) (string, error) {
		var b bytes.Buffer
		for i := range merged {
			b.WriteString("== " + merged[i].Name + "\n")
			b.WriteString(sdc.Write(merged[i]))
			ej, err := json.Marshal(reports[i].Explain(merged[i].Name))
			if err != nil {
				return "", err
			}
			b.Write(ej)
			b.WriteByte('\n')
		}
		return b.String(), nil
	}

	ref, err := fingerprint(baseMerged, baseReports)
	if err != nil {
		return violate("reference explain marshal error: " + err.Error())
	}
	cache := incr.New(0)
	cacheOpt := opt
	cacheOpt.Cache = cache
	for _, pass := range []string{"cold fill", "warm replay"} {
		merged, reports, _, err := core.MergeAll(cx, tg, modes, cacheOpt)
		if err != nil {
			return violate(pass + " merge error: " + err.Error())
		}
		got, err := fingerprint(merged, reports)
		if err != nil {
			return violate(pass + " explain marshal error: " + err.Error())
		}
		if got != ref {
			return violate(pass + " differs from cacheless merge: " + firstDiff(ref, got))
		}
	}
	// A single-mode family has no pairs and no multi-member cliques, so
	// there is legitimately nothing to cache; only larger families must
	// show reuse on the warm replay.
	st := cache.Stats().Snapshot()
	if len(modes) >= 2 && st.PairHits+st.CliqueHits == 0 {
		return violate("warm replay recorded no cache hits — the cache is not being consulted")
	}

	// Perturb one mode: append a clock-uncertainty line and re-parse. The
	// target index and the edit are deterministic functions of the spec,
	// so replays reproduce exactly. A clockless target can't be perturbed
	// this way; skip the phase rather than invent a different edit.
	pi := len(modes) / 2
	if len(modes[pi].Clocks) == 0 {
		return nil
	}
	text := sdc.Write(modes[pi]) + "\nset_clock_uncertainty 0.123 [get_clocks " +
		modes[pi].Clocks[0].Name + "]\n"
	pm, _, err := sdc.Parse(modes[pi].Name, text, tg.Design)
	if err != nil {
		return violate("perturbed mode does not reparse: " + err.Error())
	}
	perturbed := append([]*sdc.Mode(nil), modes...)
	perturbed[pi] = pm

	coldMerged, coldReports, _, err := core.MergeAll(cx, tg, perturbed, opt)
	if err != nil {
		return violate("cold merge of perturbed family: " + err.Error())
	}
	coldFP, err := fingerprint(coldMerged, coldReports)
	if err != nil {
		return violate("cold perturbed explain marshal error: " + err.Error())
	}
	warmMerged, warmReports, _, err := core.MergeAll(cx, tg, perturbed, cacheOpt)
	if err != nil {
		return violate("warm incremental re-merge of perturbed family: " + err.Error())
	}
	warmFP, err := fingerprint(warmMerged, warmReports)
	if err != nil {
		return violate("warm perturbed explain marshal error: " + err.Error())
	}
	if warmFP != coldFP {
		return violate("incremental re-merge after one-mode edit differs from cold merge: " +
			firstDiff(coldFP, warmFP))
	}
	return nil
}

// checkClique runs the per-clique properties on one merged clique.
func checkClique(cx context.Context, tg *graph.Graph, members []*sdc.Mode, merged *sdc.Mode, corners []library.Corner, opt core.Options) []Violation {
	var out []Violation

	// Property 1: no optimistic mismatches against the individual modes.
	// On corner trials this runs per corner on the effective
	// (overlay-applied) texts instead — a relaxation private to one corner
	// legitimately stays out of the merged base text, so the corner-less
	// comparison would be the wrong reference in both directions.
	if len(corners) > 0 {
		if v, ok := checkCornerConformity(cx, tg, members, merged, corners, opt); !ok {
			out = append(out, v)
		}
	} else {
		eq, err := core.CheckEquivalence(cx, tg, members, merged, opt)
		switch {
		case err != nil:
			out = append(out, Violation{Property: PropEquivalence, Clique: merged.Name, Count: 1,
				Details: []string{"checker error: " + err.Error()}})
		case !eq.Equivalent():
			out = append(out, Violation{Property: PropEquivalence, Clique: merged.Name,
				Count: len(eq.OptimisticMismatches), Details: cap8(eq.OptimisticMismatches)})
		}
	}

	// Property 2: the merged SDC round-trips through the parser and the
	// reparse writes back byte-identically (fixpoint after one pass).
	if v, ok := checkRoundTrip(tg, merged); !ok {
		out = append(out, v)
	}

	// Property 3: merged never more pessimistic than the naive baseline.
	if v, ok := checkPessimism(cx, tg, members, merged, opt); !ok {
		out = append(out, v)
	}

	// Property 4: endpoints every member excludes stay excluded in the
	// merged mode (the accuracy direction the naive baseline is blind to).
	if v, ok := checkConformity(cx, tg, members, merged); !ok {
		out = append(out, v)
	}
	return out
}

// checkRoundTrip verifies the merged mode survives the parser: its
// written SDC must load without error, and after one normalizing
// Parse→Write pass the text must be a fixpoint (the writer may annotate
// with `;#` comments the parser legitimately drops, so the raw first
// write is not required to be stable — only the reparsed form is).
func checkRoundTrip(tg *graph.Graph, merged *sdc.Mode) (Violation, bool) {
	text := sdc.Write(merged)
	re, _, err := sdc.Parse(merged.Name, text, tg.Design)
	if err != nil {
		return Violation{Property: PropRoundTrip, Clique: merged.Name, Count: 1,
			Details: []string{"merged SDC does not reparse: " + err.Error()}}, false
	}
	norm := sdc.Write(re)
	re2, _, err := sdc.Parse(merged.Name, norm, tg.Design)
	if err != nil {
		return Violation{Property: PropRoundTrip, Clique: merged.Name, Count: 1,
			Details: []string{"normalized merged SDC does not reparse: " + err.Error()}}, false
	}
	if again := sdc.Write(re2); again != norm {
		return Violation{Property: PropRoundTrip, Clique: merged.Name, Count: 1,
			Details: []string{"merged SDC is not a parse→write fixpoint: " + firstDiff(norm, again)}}, false
	}
	return Violation{}, true
}

// firstDiff summarizes the first divergence between two texts.
func firstDiff(a, b string) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 40
			if lo < 0 {
				lo = 0
			}
			return fmt.Sprintf("byte %d: %q vs %q", i, clip(a[lo:]), clip(b[lo:]))
		}
	}
	return fmt.Sprintf("length %d vs %d", len(a), len(b))
}

func clip(s string) string {
	if len(s) > 80 {
		return s[:80]
	}
	return s
}

// checkPessimism compares endpoint-granularity timing relationships of the
// merged mode against core.NaiveMerge on the same members. The naive
// baseline intersects exceptions and infers exclusivity textually, so it
// is pessimistic-or-equal everywhere the graph-based method claims to
// win; a merged relation strictly tighter than naive means the refinement
// passes regressed below the baseline. Keys where either side holds
// several distinct states are skipped — endpoint granularity cannot order
// them (the equivalence checker covers those at finer granularity).
func checkPessimism(cx context.Context, tg *graph.Graph, members []*sdc.Mode, merged *sdc.Mode, opt core.Options) (Violation, bool) {
	naive, err := core.NaiveMerge(cx, tg, members, opt)
	if err != nil {
		return Violation{Property: PropPessimism, Clique: merged.Name, Count: 1,
			Details: []string{"naive merge error: " + err.Error()}}, false
	}
	relM, err := endpointRelations(cx, tg, merged)
	if err != nil {
		return Violation{Property: PropPessimism, Clique: merged.Name, Count: 1,
			Details: []string{"merged STA error: " + err.Error()}}, false
	}
	relN, err := endpointRelations(cx, tg, naive)
	if err != nil {
		return Violation{Property: PropPessimism, Clique: merged.Name, Count: 1,
			Details: []string{"naive STA error: " + err.Error()}}, false
	}

	var details []string
	count := 0
	keys := make([]sta.RelName, 0, len(relM))
	for k := range relM {
		keys = append(keys, k)
	}
	for k := range relN {
		if _, ok := relM[k]; !ok {
			keys = append(keys, k)
		}
	}
	sta.SortRelNames(keys)
	for _, k := range keys {
		mset, mpresent := relM[k]
		nset, npresent := relN[k]
		ms, mok := single(mset, mpresent)
		ns, nok := single(nset, npresent)
		if !mok || !nok {
			continue // ambiguous at this granularity
		}
		// Merged more pessimistic than naive ⇔ naive is the relaxed one.
		if relation.Relaxed(ns, ms) {
			count++
			if len(details) < maxDetails {
				details = append(details, fmt.Sprintf("%s -> %s (%s/%s %v): merged %v stricter than naive %v",
					k.Start, k.End, k.Launch, k.Capture, k.Check, ms, ns))
			}
		}
	}
	if count > 0 {
		return Violation{Property: PropPessimism, Clique: merged.Name, Count: count, Details: details}, false
	}
	return Violation{}, true
}

// checkConformity enforces the accuracy half of §3.2's endpoint contract:
// at any endpoint where *every* member mode excludes *every* path group
// (all relation keys resolve to false, absence counted as false), the
// merged mode must exclude them too. Pass 1 of the refinement guarantees
// this with a corrective false path whenever the agreed target state is
// false — the one corrective fix neither the equivalence oracle (it only
// rejects optimism) nor the naive baseline (it intersects exceptions and
// so drops the very relaxations at stake) can see missing. Endpoints
// where any member holds an ambiguous (multi-state) set are skipped:
// endpoint granularity cannot order those, and the finer-granularity
// passes own them.
func checkConformity(cx context.Context, tg *graph.Graph, members []*sdc.Mode, merged *sdc.Mode) (Violation, bool) {
	rels := make([]map[sta.RelName]relation.Set, len(members))
	for i, m := range members {
		r, err := endpointRelations(cx, tg, m)
		if err != nil {
			return Violation{Property: PropConformity, Clique: merged.Name, Count: 1,
				Details: []string{"member STA error: " + err.Error()}}, false
		}
		rels[i] = r
	}
	relM, err := endpointRelations(cx, tg, merged)
	if err != nil {
		return Violation{Property: PropConformity, Clique: merged.Name, Count: 1,
			Details: []string{"merged STA error: " + err.Error()}}, false
	}

	// Classify each endpoint seen by any member: dead ⇔ every member key
	// at it resolves to a single false state (absent keys are false).
	type endState int
	const (
		endDead endState = iota // unanimously excluded by all members
		endLive                 // some member times some group here
		endSkip                 // ambiguous in some member
	)
	ends := map[string]endState{}
	for _, r := range rels {
		for k, set := range r {
			if st, seen := ends[k.End]; seen && st == endSkip {
				continue
			} else if !seen {
				ends[k.End] = endDead
			}
			s, ok := single(set, true)
			switch {
			case !ok:
				ends[k.End] = endSkip
			case s != relation.StateFalse:
				ends[k.End] = endLive
			}
		}
	}

	var details []string
	count := 0
	keys := make([]sta.RelName, 0, len(relM))
	for k := range relM {
		keys = append(keys, k)
	}
	sta.SortRelNames(keys)
	for _, k := range keys {
		if st, seen := ends[k.End]; !seen || st != endDead {
			continue
		}
		ms, ok := single(relM[k], true)
		if !ok || ms == relation.StateFalse {
			continue
		}
		count++
		if len(details) < maxDetails {
			details = append(details, fmt.Sprintf("%s -> %s (%s/%s %v): merged times %v where every member is false",
				k.Start, k.End, k.Launch, k.Capture, k.Check, ms))
		}
	}
	if count > 0 {
		return Violation{Property: PropConformity, Clique: merged.Name, Count: count, Details: details}, false
	}
	return Violation{}, true
}

// checkCornerConformity is the scenario-matrix generalization of the
// equivalence oracle (§3.2 safety, per corner): for every corner, the
// merged mode deployed in that corner — its base text with the corner's
// SDC overlay appended, exactly how core builds scenario contexts — must
// never be optimistic against the member modes deployed the same way.
// The checks run corner-less over the effective texts: derates scale
// delays, not relations, so the overlay is the only part of a corner the
// relation comparison can see. This is the oracle that catches a merge
// refining against a subset of the corners (e.g. the
// merge-best-corner-only fault): a relaxation private to the surviving
// corner gets baked into the merged base text and surfaces as optimism
// in every corner that lacks it.
func checkCornerConformity(cx context.Context, tg *graph.Graph, members []*sdc.Mode, merged *sdc.Mode, corners []library.Corner, opt core.Options) (Violation, bool) {
	violate := func(detail string) (Violation, bool) {
		return Violation{Property: PropCornerConformity, Clique: merged.Name, Count: 1,
			Details: []string{detail}}, false
	}
	var details []string
	count := 0
	for i := range corners {
		crn := &corners[i]
		effMembers, effMerged := members, merged
		if crn.SDC != "" {
			effMembers = make([]*sdc.Mode, len(members))
			for j, m := range members {
				em, err := overlayMode(tg, m, crn)
				if err != nil {
					return violate(fmt.Sprintf("corner %s: member %s overlay: %v", crn.Name, m.Name, err))
				}
				effMembers[j] = em
			}
			var err error
			if effMerged, err = overlayMode(tg, merged, crn); err != nil {
				return violate(fmt.Sprintf("corner %s: merged overlay: %v", crn.Name, err))
			}
		}
		eq, err := core.CheckEquivalence(cx, tg, effMembers, effMerged, opt)
		switch {
		case err != nil:
			return violate(fmt.Sprintf("corner %s: checker error: %v", crn.Name, err))
		case !eq.Equivalent():
			count += len(eq.OptimisticMismatches)
			for _, d := range eq.OptimisticMismatches {
				if len(details) < maxDetails {
					details = append(details, "corner "+crn.Name+": "+d)
				}
			}
		}
	}
	if count > 0 {
		return Violation{Property: PropCornerConformity, Clique: merged.Name, Count: count, Details: details}, false
	}
	return Violation{}, true
}

// overlayMode rebuilds a mode with a corner's SDC overlay appended — the
// same effective-text construction core uses for scenario contexts.
func overlayMode(tg *graph.Graph, m *sdc.Mode, crn *library.Corner) (*sdc.Mode, error) {
	em, _, err := sdc.Parse(m.Name, sdc.Write(m)+"\n"+crn.SDC+"\n", tg.Design)
	return em, err
}

// single resolves a relation set to one state; a missing/empty set means
// the path group is not timed (false).
func single(s relation.Set, present bool) (relation.State, bool) {
	if !present || s.Empty() {
		return relation.StateFalse, true
	}
	return s.Single()
}

func endpointRelations(cx context.Context, tg *graph.Graph, m *sdc.Mode) (map[sta.RelName]relation.Set, error) {
	ctx, err := sta.NewContext(tg, m, sta.Options{})
	if err != nil {
		return nil, err
	}
	rel := ctx.EndpointRelations(cx)
	if err := cx.Err(); err != nil {
		return nil, err
	}
	return rel, nil
}

func cap8(s []string) []string {
	if len(s) > maxDetails {
		return s[:maxDetails]
	}
	return s
}
