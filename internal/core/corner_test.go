package core

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"modemerge/internal/gen"
	"modemerge/internal/graph"
	"modemerge/internal/incr"
	"modemerge/internal/library"
	"modemerge/internal/sdc"
)

// cornerFixture builds one generated design + a 4-mode functional family
// and returns the graph, parsed modes and a corner set.
func cornerFixture(t *testing.T, corners int) (*graph.Graph, []*sdc.Mode, []library.Corner) {
	t.Helper()
	gd, err := gen.Generate(gen.DesignSpec{
		Name: "corner_fx", Seed: 404, Domains: 2, BlocksPerDomain: 2,
		Stages: 2, RegsPerStage: 2, CloudDepth: 1, CrossPaths: 2, IOPairs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(gd.Design)
	if err != nil {
		t.Fatal(err)
	}
	family := gen.FamilySpec{Groups: 1, ModesPerGroup: []int{4}, BasePeriod: 2,
		FunctionalOnly: true, Corners: corners}
	var modes []*sdc.Mode
	for _, m := range gd.Modes(family) {
		mode, _, err := sdc.Parse(m.Name, m.Text, g.Design)
		if err != nil {
			t.Fatalf("mode %s: %v", m.Name, err)
		}
		modes = append(modes, mode)
	}
	return g, modes, gd.CornerSet(family)
}

func mergeText(t *testing.T, g *graph.Graph, modes []*sdc.Mode, opt Options) string {
	t.Helper()
	merged, _, err := MergeClique(context.Background(), g, modes, opt)
	if err != nil {
		t.Fatalf("MergeClique: %v", err)
	}
	return sdc.Write(merged)
}

// TestCornerNilByteIdentity is the regression guard that Corners: nil
// changes nothing: the corner-less merge of the fixture must be
// byte-identical to a merge through the exact same code path before
// corners existed — which we approximate by asserting the corner-less
// merge equals itself across runs AND equals a single neutral-corner
// merge (whose scenario set is definitionally the same analysis).
func TestCornerNilByteIdentity(t *testing.T) {
	g, modes, _ := cornerFixture(t, 0)
	base := mergeText(t, g, modes, Options{})
	again := mergeText(t, g, modes, Options{})
	if base != again {
		t.Fatal("corner-less merge not reproducible")
	}
	neutral := mergeText(t, g, modes, Options{Corners: []library.Corner{{Name: "typ"}}})
	if neutral != base {
		t.Errorf("single neutral corner changed the merged SDC:\n%s", firstLineDiff(base, neutral))
	}
}

// TestCornerDerateOnlyByteIdentity pins that corners whose only effect
// is delay/margin derates (no SDC overlay) cannot change the merged
// mode: timing relations derive from clocks, exceptions and structure,
// not delay magnitudes, so a pure-derate matrix merge must reproduce
// the corner-less merged SDC byte for byte.
func TestCornerDerateOnlyByteIdentity(t *testing.T) {
	g, modes, _ := cornerFixture(t, 0)
	base := mergeText(t, g, modes, Options{})
	derated := mergeText(t, g, modes, Options{Corners: []library.Corner{
		{Name: "fast", DelayScale: 0.8, EarlyScale: 0.9},
		{Name: "slow", DelayScale: 1.3, LateScale: 1.1, MarginScale: 1.5},
	}})
	if derated != base {
		t.Errorf("derate-only corners changed the merged SDC:\n%s", firstLineDiff(base, derated))
	}
}

// cornerMatrixFingerprint folds a corner-aware MergeAll into one
// comparable string: merged SDC + explain JSON (which embeds the
// per-corner provenance) + conflicts.
func cornerMatrixFingerprint(t *testing.T, g *graph.Graph, modes []*sdc.Mode, corners []library.Corner, parallelism int, cache *incr.Cache) string {
	t.Helper()
	merged, reports, mb, err := MergeAll(context.Background(), g, modes,
		Options{Parallelism: parallelism, Corners: corners, Cache: cache})
	if err != nil {
		t.Fatalf("MergeAll: %v", err)
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
		b.WriteString("conflict " + c.A + "|" + c.B + "|" + c.Reason + "\n")
	}
	return b.String()
}

// TestCornerMatrixDeterminism extends the determinism suite to the
// scenario matrix: a 4-mode × 3-corner MergeAll is byte-identical at
// Parallelism ∈ {1, 4}, across repeated runs, and under a warm
// incremental-cache replay (corner-keyed artifacts). CI runs this under
// -race with -cpu 1,4.
func TestCornerMatrixDeterminism(t *testing.T) {
	g, modes, corners := cornerFixture(t, 3)
	if len(corners) != 3 {
		t.Fatalf("expected 3 corners, got %d", len(corners))
	}
	baseline := cornerMatrixFingerprint(t, g, modes, corners, 1, nil)
	for _, p := range []int{1, 4} {
		for rep := 0; rep < 2; rep++ {
			if got := cornerMatrixFingerprint(t, g, modes, corners, p, nil); got != baseline {
				t.Fatalf("parallelism=%d rep=%d corner matrix output differs:\n%s",
					p, rep, firstLineDiff(baseline, got))
			}
		}
	}
	cache := incr.New(0)
	cold := cornerMatrixFingerprint(t, g, modes, corners, 4, cache)
	if cold != baseline {
		t.Fatalf("cold incremental corner merge differs:\n%s", firstLineDiff(baseline, cold))
	}
	warm := cornerMatrixFingerprint(t, g, modes, corners, 4, cache)
	if warm != baseline {
		t.Fatalf("warm incremental corner merge differs:\n%s", firstLineDiff(baseline, warm))
	}
}

// TestCornerProvenanceAndReport verifies a matrix merge reports its
// corner axis: Report.Corners lists the corner names in order and one
// scenario-matrix provenance record exists per corner, naming every
// mode@corner scenario it contributed.
func TestCornerProvenanceAndReport(t *testing.T) {
	g, modes, corners := cornerFixture(t, 2)
	_, rep, err := MergeClique(context.Background(), g, modes, Options{Corners: corners})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Corners) != 2 || rep.Corners[0] != "c0" || rep.Corners[1] != "c1" {
		t.Fatalf("Report.Corners = %v, want [c0 c1]", rep.Corners)
	}
	records := 0
	for _, p := range rep.Provenance {
		if p.Stage != "corners/scenario_matrix" {
			continue
		}
		records++
		if len(p.Modes) != len(modes) {
			t.Errorf("corner provenance %s lists %d scenarios, want %d", p.Constraint, len(p.Modes), len(modes))
		}
		for _, s := range p.Modes {
			if !strings.Contains(s, "@c") {
				t.Errorf("scenario name %q lacks @corner qualifier", s)
			}
		}
	}
	if records != 2 {
		t.Fatalf("got %d scenario-matrix provenance records, want 2", records)
	}
}

// TestCornerAcrossCornerWorstCase pins the tentpole semantics on a
// constructed matrix: an exception present only in one corner's overlay
// must NOT relax the merged mode, because the other corner's scenarios
// still time the path — refinement takes the across-corner worst case.
// The injected merge-best-corner-only fault drops the other corner and
// must produce a merged mode with more false paths (the optimism the
// corner-conformity oracle exists to catch).
func TestCornerAcrossCornerWorstCase(t *testing.T) {
	g, modes, _ := cornerFixture(t, 0)
	// The cross-domain register pairs are false-pathed in every
	// functional mode already; instead exclude an in-block path that the
	// base modes time. Find one via the generated multicycle anchor: the
	// overlay false-paths everything from domain-1's input port.
	overlay := "set_false_path -from [get_ports d1_in0]\n"
	corners := []library.Corner{
		{Name: "wc", SDC: overlay},
		{Name: "bc"},
	}
	clean, cleanRep, err := MergeClique(context.Background(), g, modes, Options{Corners: corners})
	if err != nil {
		t.Fatal(err)
	}
	faulted, faultRep, err := MergeClique(context.Background(), g, modes,
		Options{Corners: corners, Inject: FaultInjection{MergeBestCornerOnly: true}})
	if err != nil {
		t.Fatal(err)
	}
	// The clean matrix merge must match the corner-less merge: corner bc
	// times every path the base modes time, so no overlay-only exclusion
	// may leak into the merged mode.
	base := mergeText(t, g, modes, Options{})
	if got := sdc.Write(clean); got != base {
		t.Errorf("across-corner worst case violated — overlay-only exclusions leaked into merged SDC:\n%s",
			firstLineDiff(base, got))
	}
	// The faulted merge sees only corner wc, where d1_in0 paths are
	// false in every scenario — it must relax relative to the clean one.
	if faultRep.AddedFalsePaths <= cleanRep.AddedFalsePaths {
		t.Fatalf("merge-best-corner-only fault added no extra false paths (clean=%d faulted=%d)",
			cleanRep.AddedFalsePaths, faultRep.AddedFalsePaths)
	}
	if sdc.Write(faulted) == base {
		t.Fatal("faulted merge unexpectedly identical to corner-less merge")
	}
}

// TestCornerMergeabilityConflict builds a latent clock-uncertainty
// asymmetry that only a corner overlay activates: mode A declares an
// uncertainty on the shared clock, mode B none, so the base mock merge
// has nothing to compare — but a corner overlay adding a small
// uncertainty to both sides exposes the disagreement, and the pair must
// conflict with a corner-prefixed reason.
func TestCornerMergeabilityConflict(t *testing.T) {
	g, modes, _ := cornerFixture(t, 0)
	textA := sdc.Write(modes[0]) + "\nset_clock_uncertainty 0.4 [get_clocks clk_d0]\n"
	modeA, _, err := sdc.Parse(modes[0].Name, textA, g.Design)
	if err != nil {
		t.Fatal(err)
	}
	pair := []*sdc.Mode{modeA, modes[1]}
	base, err := AnalyzeMergeability(g, pair, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !base.Edge[0][1] {
		t.Fatalf("base pair unexpectedly conflicts: %v", base.Conflicts)
	}
	corners := []library.Corner{{Name: "wc", SDC: "set_clock_uncertainty 0.05 [get_clocks clk_d0]\n"}}
	cornered, err := AnalyzeMergeability(g, pair, Options{Corners: corners})
	if err != nil {
		t.Fatal(err)
	}
	if cornered.Edge[0][1] {
		t.Fatal("corner overlay did not expose the uncertainty conflict")
	}
	if len(cornered.Conflicts) == 0 || !strings.HasPrefix(cornered.Conflicts[0].Reason, "corner wc: ") {
		t.Fatalf("conflict reason lacks corner prefix: %v", cornered.Conflicts)
	}
}

// TestCornerValidation covers the corner-set error paths: duplicate
// names, unnamed corners, overlays that create clocks, and the
// unsupported hierarchical combination.
func TestCornerValidation(t *testing.T) {
	g, modes, _ := cornerFixture(t, 0)
	cases := []struct {
		name    string
		corners []library.Corner
		wantSub string
	}{
		{"duplicate", []library.Corner{{Name: "x"}, {Name: "x"}}, "duplicate corner name"},
		{"unnamed", []library.Corner{{}}, "name required"},
		{"clock-overlay", []library.Corner{{Name: "x", SDC: "create_clock -name evil -period 1 [get_ports test_clk]\n"}},
			"must not create clocks"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := MergeClique(context.Background(), g, modes, Options{Corners: tc.corners})
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantSub)
			}
		})
	}
}
