package core

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"modemerge/internal/gen"
	"modemerge/internal/graph"
	"modemerge/internal/obs"
	"modemerge/internal/sdc"
)

// determinismFixtures are three fixed generated designs + mode families.
// The seeds are load-bearing: changing them changes the pinned scenarios.
func determinismFixtures(t *testing.T) []struct {
	name  string
	g     *graph.Graph
	modes []*sdc.Mode
} {
	t.Helper()
	specs := []gen.DesignSpec{
		{Name: "det_a", Seed: 101, Domains: 1, BlocksPerDomain: 2,
			Stages: 2, RegsPerStage: 2, CloudDepth: 1, CrossPaths: 1, IOPairs: 1},
		{Name: "det_b", Seed: 202, Domains: 2, BlocksPerDomain: 1,
			Stages: 2, RegsPerStage: 2, CloudDepth: 2, CrossPaths: 2, IOPairs: 1},
		{Name: "det_c", Seed: 303, Domains: 2, BlocksPerDomain: 2,
			Stages: 3, RegsPerStage: 2, CloudDepth: 1, CrossPaths: 2},
	}
	family := gen.FamilySpec{Groups: 2, ModesPerGroup: []int{2, 2}, BasePeriod: 2}
	var out []struct {
		name  string
		g     *graph.Graph
		modes []*sdc.Mode
	}
	for _, spec := range specs {
		gd, err := gen.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		g, err := graph.Build(gd.Design)
		if err != nil {
			t.Fatal(err)
		}
		var modes []*sdc.Mode
		for _, m := range gd.Modes(family) {
			mode, _, err := sdc.Parse(m.Name, m.Text, g.Design)
			if err != nil {
				t.Fatalf("%s mode %s: %v", spec.Name, m.Name, err)
			}
			modes = append(modes, mode)
		}
		out = append(out, struct {
			name  string
			g     *graph.Graph
			modes []*sdc.Mode
		}{spec.Name, g, modes})
	}
	return out
}

// mergeAllFingerprint folds everything the determinism guarantee covers —
// merged SDC text, explain-report JSON (which embeds the provenance
// records) and the mergeability conflict list — into one comparable
// string.
func mergeAllFingerprint(t *testing.T, g *graph.Graph, modes []*sdc.Mode, parallelism int) string {
	t.Helper()
	merged, reports, mb, err := MergeAll(context.Background(), g, modes, Options{Parallelism: parallelism})
	if err != nil {
		t.Fatalf("MergeAll(parallelism=%d): %v", parallelism, err)
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

// TestMergeAllDeterminismAcrossParallelism pins the parallel engine's
// headline guarantee: over three fixed generated designs, MergeAll
// produces byte-identical merged SDC, provenance/explain JSON and
// conflict reasons for Parallelism ∈ {1, 2, 8} and across repeated runs.
// CI additionally runs this under -race with a -cpu 1,4 matrix.
func TestMergeAllDeterminismAcrossParallelism(t *testing.T) {
	for _, fx := range determinismFixtures(t) {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			t.Parallel()
			baseline := mergeAllFingerprint(t, fx.g, fx.modes, 1)
			if baseline == "" {
				t.Fatal("empty baseline fingerprint")
			}
			for _, p := range []int{1, 2, 8} {
				for rep := 0; rep < 2; rep++ {
					got := mergeAllFingerprint(t, fx.g, fx.modes, p)
					if got != baseline {
						t.Fatalf("parallelism=%d rep=%d output differs from sequential baseline:\n%s",
							p, rep, firstLineDiff(baseline, got))
					}
				}
			}
		})
	}
}

// TestMergeDeterminismSingleClique covers the Merger.Merge entry point
// directly (one clique, no mergeability stage), with tracing enabled so
// the per-worker shard spans run under the race detector.
func TestMergeDeterminismSingleClique(t *testing.T) {
	fx := determinismFixtures(t)[0]
	group := fx.modes[:2]
	fingerprint := func(p int) string {
		tr := obs.NewTracer()
		root := tr.Start("merge")
		defer root.Finish()
		merged, rep, err := Merge(context.Background(), fx.g.Design, group, Options{Parallelism: p, Trace: root})
		if err != nil {
			t.Fatalf("Merge(parallelism=%d): %v", p, err)
		}
		ej, err := json.Marshal(rep.Explain(merged.Name))
		if err != nil {
			t.Fatal(err)
		}
		return merged.Name + "\n" + sdc.Write(merged) + string(ej)
	}
	baseline := fingerprint(1)
	for _, p := range []int{2, 8} {
		if got := fingerprint(p); got != baseline {
			t.Fatalf("parallelism=%d Merge output differs:\n%s", p, firstLineDiff(baseline, got))
		}
	}
}

// firstLineDiff locates the first differing line of two multi-line
// strings for a readable failure message.
func firstLineDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(la)
	if len(lb) < n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d:\n  baseline: %s\n  got:      %s", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("line count differs: %d vs %d", len(la), len(lb))
}

// subsetFaultMerges merges every multi-mode clique with the
// KeepSubsetExceptions fault injected, so the merged modes relax member
// paths and CheckEquivalence has optimistic mismatches to list.
func subsetFaultMerges(t *testing.T, g *graph.Graph, modes []*sdc.Mode) (groups [][]*sdc.Mode, merged []*sdc.Mode) {
	t.Helper()
	_, cliques, err := PlanMerge(g, modes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, clique := range cliques {
		if len(clique) < 2 {
			continue
		}
		var group []*sdc.Mode
		for _, mi := range clique {
			group = append(group, modes[mi])
		}
		m, _, err := MergeClique(context.Background(), g, group,
			Options{Parallelism: 1, Inject: FaultInjection{KeepSubsetExceptions: true}})
		if err != nil {
			t.Fatal(err)
		}
		groups = append(groups, group)
		merged = append(merged, m)
	}
	return groups, merged
}

// checkEquivalenceAll runs CheckEquivalence on every merged clique.
func checkEquivalenceAll(t *testing.T, g *graph.Graph, groups [][]*sdc.Mode, merged []*sdc.Mode, opt Options) []*EquivalenceResult {
	t.Helper()
	var out []*EquivalenceResult
	for i := range groups {
		res, err := CheckEquivalence(context.Background(), g, groups[i], merged[i], opt)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res)
	}
	return out
}

// TestEquivalenceMismatchDeterminism pins the order of
// EquivalenceResult.OptimisticMismatches: an optimistic merge checked
// repeatedly, sequentially and in parallel, lists its mismatches in the
// same order every time (they reach /v2 results and sdccheck output).
func TestEquivalenceMismatchDeterminism(t *testing.T) {
	for _, fx := range determinismFixtures(t) {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			t.Parallel()
			groups, merged := subsetFaultMerges(t, fx.g, fx.modes)
			var baseline []string
			for _, res := range checkEquivalenceAll(t, fx.g, groups, merged, Options{Parallelism: 1}) {
				baseline = append(baseline, res.OptimisticMismatches...)
			}
			if len(baseline) < 2 {
				t.Fatalf("%d optimistic mismatches; the order check needs at least 2", len(baseline))
			}
			for _, p := range []int{1, 4} {
				for rep := 0; rep < 10; rep++ {
					var got []string
					for _, res := range checkEquivalenceAll(t, fx.g, groups, merged, Options{Parallelism: p}) {
						got = append(got, res.OptimisticMismatches...)
					}
					if !slices.Equal(got, baseline) {
						t.Fatalf("parallelism=%d rep=%d: mismatch listing differs:\n got %q\nwant %q",
							p, rep, got, baseline)
					}
				}
			}
		})
	}
}
