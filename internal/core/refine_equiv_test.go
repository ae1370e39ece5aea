package core

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"modemerge/internal/gen"
	"modemerge/internal/graph"
	"modemerge/internal/obs"
	"modemerge/internal/sdc"
)

// slowPathFixtures are two fixed designs the SlowPaths equivalence
// checks run on:
//
//   - "functional": a functional-only family — every mode of a group
//     creates the same clocks, so member relation maps share one
//     merged clock namespace;
//   - "variants": the generator's scan/test variants — refinement takes
//     multiple iterations, so the merged-context memo replays endpoints
//     across rebuilds (NoCacheTransfer and NoRelationCache flip live
//     behaviour, verified by TestSlowKnobCoverage below), and ambiguous
//     pairs reach pass 3.
func slowPathFixtures(t *testing.T) []struct {
	name  string
	g     *graph.Graph
	modes []*sdc.Mode
} {
	t.Helper()
	type fx struct {
		name   string
		design gen.DesignSpec
		family gen.FamilySpec
	}
	fixtures := []fx{
		{
			name: "functional",
			design: gen.DesignSpec{Name: "slow_f", Seed: 33, Domains: 3, BlocksPerDomain: 1,
				Stages: 2, RegsPerStage: 3, CloudDepth: 1, CrossPaths: 3, IOPairs: 1},
			family: gen.FamilySpec{Groups: 2, ModesPerGroup: []int{3, 2}, BasePeriod: 2,
				FunctionalOnly: true},
		},
		{
			name: "variants",
			design: gen.DesignSpec{Name: "slow_v", Seed: 11, Domains: 2, BlocksPerDomain: 2,
				Stages: 2, RegsPerStage: 2, CloudDepth: 1, CrossPaths: 2, IOPairs: 1},
			family: gen.FamilySpec{Groups: 2, ModesPerGroup: []int{3, 2}, BasePeriod: 2},
		},
	}
	var out []struct {
		name  string
		g     *graph.Graph
		modes []*sdc.Mode
	}
	for _, f := range fixtures {
		gd, err := gen.Generate(f.design)
		if err != nil {
			t.Fatal(err)
		}
		g, err := graph.Build(gd.Design)
		if err != nil {
			t.Fatal(err)
		}
		var modes []*sdc.Mode
		for _, m := range gd.Modes(f.family) {
			mode, _, err := sdc.Parse(m.Name, m.Text, g.Design)
			if err != nil {
				t.Fatalf("%s mode %s: %v", f.name, m.Name, err)
			}
			modes = append(modes, mode)
		}
		out = append(out, struct {
			name  string
			g     *graph.Graph
			modes []*sdc.Mode
		}{f.name, g, modes})
	}
	return out
}

// slowFingerprint folds everything the SlowPaths equivalence guarantee
// covers — merged SDC text, explain-report JSON and the mergeability
// conflict list — into one comparable string.
func slowFingerprint(t *testing.T, g *graph.Graph, modes []*sdc.Mode, opt Options) string {
	t.Helper()
	merged, reports, mb, err := MergeAll(context.Background(), g, modes, opt)
	if err != nil {
		t.Fatalf("MergeAll(%+v): %v", opt.Slow, err)
	}
	var b strings.Builder
	for i := range merged {
		b.WriteString("== " + merged[i].Name + "\n")
		b.WriteString(sdc.Write(merged[i]))
		ej, err := json.Marshal(reports[i].Explain(merged[i].Name))
		if err != nil {
			t.Fatal(err)
		}
		b.Write(ej)
		b.WriteByte('\n')
	}
	for _, c := range mb.Conflicts {
		fmt.Fprintf(&b, "conflict %s|%s|%s\n", c.A, c.B, c.Reason)
	}
	return b.String()
}

// slowKnobs enumerates every SlowPaths knob individually by name.
func slowKnobs() map[string]SlowPaths {
	return map[string]SlowPaths{
		"NoRelationCache": {NoRelationCache: true},
		"NoCacheTransfer": {NoCacheTransfer: true},
	}
}

// TestSlowKnobEquivalence pins the contract Options.Slow documents: every
// data-refinement optimization is pure speed — disabling any knob (and
// all of them together), at sequential and parallel worker counts, keeps
// the merged SDC, explain reports and conflicts byte-identical. The
// equivalence checker shares the relation memo: on optimistic merges
// (KeepSubsetExceptions) NoRelationCache must leave its counts and
// mismatch listing unchanged.
func TestSlowKnobEquivalence(t *testing.T) {
	for _, fx := range slowPathFixtures(t) {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			t.Parallel()
			baseline := slowFingerprint(t, fx.g, fx.modes, Options{Parallelism: 1})
			if baseline == "" {
				t.Fatal("empty baseline fingerprint")
			}
			cases := slowKnobs()
			cases["all"] = SlowPaths{NoRelationCache: true, NoCacheTransfer: true}
			for name, slow := range cases {
				for _, p := range []int{1, 4} {
					got := slowFingerprint(t, fx.g, fx.modes, Options{Parallelism: p, Slow: slow})
					if got != baseline {
						t.Errorf("%s parallelism=%d: output differs from fast path:\n%s",
							name, p, firstLineDiff(baseline, got))
					}
				}
			}

			groups, merged := subsetFaultMerges(t, fx.g, fx.modes)
			if len(groups) == 0 {
				t.Fatal("no multi-mode clique to check equivalence on")
			}
			fast := checkEquivalenceAll(t, fx.g, groups, merged, Options{Parallelism: 1})
			for _, p := range []int{1, 4} {
				slow := checkEquivalenceAll(t, fx.g, groups, merged,
					Options{Parallelism: p, Slow: SlowPaths{NoRelationCache: true}})
				if !reflect.DeepEqual(slow, fast) {
					t.Errorf("CheckEquivalence NoRelationCache parallelism=%d differs from fast path:\n got %+v\nwant %+v",
						p, slow, fast)
				}
			}
		})
	}
}

// mergeCounters runs a traced merge and sums every span counter.
func mergeCounters(t *testing.T, g *graph.Graph, modes []*sdc.Mode, opt Options) map[string]int64 {
	t.Helper()
	tr := obs.NewTracer()
	sp := tr.Start("merge")
	opt.Trace = sp
	_, _, _, err := MergeAll(context.Background(), g, modes, opt)
	sp.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return spanCounters(tr)
}

// spanCounters sums every span counter of a finished trace.
func spanCounters(tr *obs.Tracer) map[string]int64 {
	c := map[string]int64{}
	var walk func(vs []*obs.SpanView)
	walk = func(vs []*obs.SpanView) {
		for _, v := range vs {
			for k, n := range v.Counters {
				c[k] += n
			}
			walk(v.Children)
		}
	}
	walk(tr.Tree())
	return c
}

// TestSlowKnobCoverage proves the equivalence test above is not vacuous:
// on its fixtures the fast path actually replays memoized endpoints
// across refinement iterations and reaches pass 3 — and disabling the
// cache transfer makes the replay counter drop to zero. The
// equivalence-checker case reaches all three passes.
func TestSlowKnobCoverage(t *testing.T) {
	variants := slowPathFixtures(t)[1]

	vfast := mergeCounters(t, variants.g, variants.modes, Options{Parallelism: 1})
	if vfast["replayed_endpoints"] == 0 {
		t.Error("variants fixture: endpoint memo never replayed on the fast path")
	}
	if vfast["pairs"] == 0 {
		t.Error("variants fixture: no pass-3 pairs")
	}
	noTransfer := mergeCounters(t, variants.g, variants.modes,
		Options{Parallelism: 1, Slow: SlowPaths{NoCacheTransfer: true}})
	if noTransfer["replayed_endpoints"] != 0 {
		t.Errorf("NoCacheTransfer still replayed %d endpoints", noTransfer["replayed_endpoints"])
	}

	// The equivalence case: the optimistic variants merge lists
	// mismatches and forwards pairs to pass 3, so pass 2 had endpoints.
	groups, merged := subsetFaultMerges(t, variants.g, variants.modes)
	tr := obs.NewTracer()
	sp := tr.Start("equivalence")
	checkEquivalenceAll(t, variants.g, groups, merged, Options{Parallelism: 1, Trace: sp})
	sp.Finish()
	eq := spanCounters(tr)
	if eq["optimistic"] == 0 || eq["pairs"] == 0 {
		t.Errorf("variants fixture: equivalence case is vacuous (optimistic=%d pass-3 pairs=%d)",
			eq["optimistic"], eq["pairs"])
	}
}

// TestNameSet covers the nameSet helper that collects the endpoints pass
// 1 forwards to pass 2: insertion deduplicates and extraction is sorted
// regardless of insertion order.
func TestNameSet(t *testing.T) {
	s := nameSet{}
	if got := s.sorted(); len(got) != 0 {
		t.Fatalf("empty nameSet sorted = %v, want []", got)
	}
	for _, n := range []string{"z", "a", "m", "a", "z", "a"} {
		s.add(n)
	}
	got := s.sorted()
	want := []string{"a", "m", "z"}
	if len(got) != len(want) {
		t.Fatalf("sorted = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sorted = %v, want %v", got, want)
		}
	}
}
