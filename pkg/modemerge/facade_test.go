package modemerge_test

import (
	"context"
	"strings"
	"testing"

	"modemerge/internal/gen"
	"modemerge/internal/netlist"
	"modemerge/pkg/modemerge"
)

// fixture builds a small multi-group design + mode family through the
// public facade only (Verilog text in, modes parsed against the design).
func fixture(t *testing.T) (*modemerge.Design, []*modemerge.Mode) {
	t.Helper()
	gd, err := gen.Generate(gen.DesignSpec{Name: "facade", Seed: 71, Domains: 2,
		BlocksPerDomain: 1, Stages: 2, RegsPerStage: 2, CloudDepth: 1, CrossPaths: 1, IOPairs: 1})
	if err != nil {
		t.Fatal(err)
	}
	design, err := modemerge.LoadDesign(netlist.WriteVerilog(gd.Design), "", "facade")
	if err != nil {
		t.Fatal(err)
	}
	var modes []*modemerge.Mode
	for _, ms := range gd.Modes(gen.FamilySpec{Groups: 2, ModesPerGroup: []int{2, 2}, BasePeriod: 2}) {
		m, _, err := design.ParseMode(ms.Name, ms.Text)
		if err != nil {
			t.Fatalf("mode %s: %v", ms.Name, err)
		}
		modes = append(modes, m)
	}
	return design, modes
}

func TestFacadeMergeAll(t *testing.T) {
	design, modes := fixture(t)
	if design.Name() != "facade" {
		t.Fatalf("Name() = %q", design.Name())
	}
	if s := design.Stats(); s.Cells == 0 || s.Ports == 0 {
		t.Fatalf("empty design stats: %+v", s)
	}
	merged, reports, mb, err := modemerge.MergeAll(context.Background(), design, modes, modemerge.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != len(reports) {
		t.Fatalf("%d merged modes but %d reports", len(merged), len(reports))
	}
	cliques := mb.Cliques()
	if len(merged) != len(cliques) {
		t.Fatalf("%d merged modes for %d cliques", len(merged), len(cliques))
	}
	// Two non-mergeable groups must not collapse into one merged mode.
	if len(merged) < 2 || len(merged) >= len(modes) {
		t.Fatalf("expected 2..%d merged modes, got %d", len(modes)-1, len(merged))
	}
	if txt := modemerge.FormatMergeability(mb, cliques); !strings.Contains(txt, "clique") {
		t.Errorf("FormatMergeability output looks empty:\n%s", txt)
	}
	for i, m := range merged {
		if modemerge.WriteSDC(m) == "" {
			t.Errorf("merged mode %d renders empty", i)
		}
	}
	// Every multi-member clique must validate as a sign-off-safe superset.
	for ci, clique := range cliques {
		if len(clique) < 2 {
			continue
		}
		var group []*modemerge.Mode
		for _, mi := range clique {
			group = append(group, modes[mi])
		}
		res, err := modemerge.CheckEquivalence(context.Background(), design, group, merged[ci], modemerge.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equivalent() {
			t.Errorf("merged mode %s relaxes its members: %s", merged[ci].Name, res)
		}
	}
}

func TestFacadeCacheReuse(t *testing.T) {
	design, modes := fixture(t)
	cache := modemerge.NewCache(0)
	if err := cache.WithDisk(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	opt := modemerge.Options{Cache: cache}
	cold, _, _, err := modemerge.MergeAll(context.Background(), design, modes, opt)
	if err != nil {
		t.Fatal(err)
	}
	warm, _, _, err := modemerge.MergeAll(context.Background(), design, modes, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold) != len(warm) {
		t.Fatalf("cold %d vs warm %d merged modes", len(cold), len(warm))
	}
	for i := range cold {
		if modemerge.WriteSDC(cold[i]) != modemerge.WriteSDC(warm[i]) {
			t.Errorf("warm merge %d differs from cold", i)
		}
	}
	// A pure replay hits at the pair and clique levels; the clique hit
	// short-circuits the merge, so per-mode contexts are never rebuilt
	// (and never even looked up) on the warm pass.
	st := cache.Stats()
	if st.CliqueHits == 0 || st.PairHits == 0 {
		t.Errorf("warm replay produced no cache hits: %+v", st)
	}
}

func TestFacadeSingleCliqueMerge(t *testing.T) {
	design, modes := fixture(t)
	mb, err := modemerge.AnalyzeMergeability(design, modes, modemerge.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, clique := range mb.Cliques() {
		if len(clique) < 2 {
			continue
		}
		var group []*modemerge.Mode
		for _, mi := range clique {
			group = append(group, modes[mi])
		}
		merged, report, err := modemerge.Merge(context.Background(), design, group, modemerge.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if merged == nil || report == nil {
			t.Fatal("Merge returned nil mode or report")
		}
		if exp := report.Explain(merged.Name); exp.Text() == "" {
			t.Error("empty explain report")
		}
		return
	}
	t.Fatal("fixture produced no multi-member clique")
}

// TestFacadeDuplicateModeNames: two modes with one name (say a/func.sdc
// and b/func.sdc) cannot be told apart in the merged name, the report or
// its provenance, so MergeAll and Merge must refuse them up front.
func TestFacadeDuplicateModeNames(t *testing.T) {
	design, modes := fixture(t)
	dup, _, err := design.ParseMode(modes[0].Name, modemerge.WriteSDC(modes[1]))
	if err != nil {
		t.Fatal(err)
	}
	group := []*modemerge.Mode{modes[0], dup}
	want := `duplicate mode name "` + modes[0].Name + `"`
	if _, _, _, err := modemerge.MergeAll(context.Background(), design, group, modemerge.Options{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("MergeAll error = %v, want one containing %s", err, want)
	}
	if _, _, err := modemerge.Merge(context.Background(), design, group, modemerge.Options{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Merge error = %v, want one containing %s", err, want)
	}
}

// hierFixture loads the same structural design hierarchically, through
// the public facade's Verilog round trip.
func hierFixture(t *testing.T) (*modemerge.Design, []*modemerge.Mode) {
	t.Helper()
	hg, err := gen.GenerateHier(gen.HierSpec{Name: "hfacade", Seed: 71, Domains: 2,
		BlocksPerDomain: 1, Stages: 2, RegsPerStage: 2, CloudDepth: 1, CrossPaths: 1, IOPairs: 1})
	if err != nil {
		t.Fatal(err)
	}
	design, err := modemerge.LoadHierDesign(netlist.WriteVerilogHier(hg.Hier), "", "hfacade")
	if err != nil {
		t.Fatal(err)
	}
	if !design.Hierarchical() {
		t.Fatal("LoadHierDesign did not keep the hierarchy")
	}
	var modes []*modemerge.Mode
	for _, ms := range hg.Modes(gen.FamilySpec{Groups: 2, ModesPerGroup: []int{2, 2}, BasePeriod: 2}) {
		m, _, err := design.ParseMode(ms.Name, ms.Text)
		if err != nil {
			t.Fatalf("mode %s: %v", ms.Name, err)
		}
		modes = append(modes, m)
	}
	return design, modes
}

func TestFacadeHierarchicalMerge(t *testing.T) {
	design, modes := hierFixture(t)
	merged, _, mb, err := modemerge.MergeAll(context.Background(), design, modes,
		modemerge.Options{Hierarchical: true})
	if err != nil {
		t.Fatal(err)
	}
	for ci, clique := range mb.Cliques() {
		if len(clique) < 2 {
			continue
		}
		var group []*modemerge.Mode
		for _, mi := range clique {
			group = append(group, modes[mi])
		}
		res, err := modemerge.CheckEquivalence(context.Background(), design, group, merged[ci], modemerge.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equivalent() {
			t.Errorf("hierarchical merged mode %s relaxes its members: %s", merged[ci].Name, res)
		}
	}
}

// TestFacadeMergeHierarchical pins Merge to MergeAll's clique path: with
// Options.Hierarchical, Merge must refine per block (HierBlocksMerged > 0)
// and emit the same SDC that MergeAll emits for the same clique.
func TestFacadeMergeHierarchical(t *testing.T) {
	design, modes := hierFixture(t)
	opt := modemerge.Options{Hierarchical: true}
	all, reports, mb, err := modemerge.MergeAll(context.Background(), design, modes, opt)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for ci, clique := range mb.Cliques() {
		if len(clique) < 2 {
			continue
		}
		var group []*modemerge.Mode
		for _, mi := range clique {
			group = append(group, modes[mi])
		}
		merged, report, err := modemerge.Merge(context.Background(), design, group, opt)
		if err != nil {
			t.Fatal(err)
		}
		if report.HierBlocksMerged == 0 || report.HierBlocksMerged != reports[ci].HierBlocksMerged {
			t.Errorf("clique %d: Merge HierBlocksMerged = %d, MergeAll %d; want equal and > 0",
				ci, report.HierBlocksMerged, reports[ci].HierBlocksMerged)
		}
		if got, want := modemerge.WriteSDC(merged), modemerge.WriteSDC(all[ci]); got != want {
			t.Errorf("clique %d: Merge SDC differs from MergeAll's", ci)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("fixture produced no multi-member clique")
	}
}

func TestFacadeHierarchicalRequiresHierDesign(t *testing.T) {
	design, modes := fixture(t)
	if design.Hierarchical() {
		t.Fatal("flat design reports Hierarchical")
	}
	if _, _, _, err := modemerge.MergeAll(context.Background(), design, modes,
		modemerge.Options{Hierarchical: true}); err == nil {
		t.Fatal("Options.Hierarchical on a flat design must error")
	}
}

// TestFacadeCornerMatrix drives a multi-corner scenario-matrix merge
// through the public facade: the merge must succeed, report its corner
// axis as provenance, validate corner-aware, and — with a single neutral
// corner — produce byte-identical output to the corner-less merge.
func TestFacadeCornerMatrix(t *testing.T) {
	design, modes := fixture(t)
	corners := []modemerge.Corner{
		{Name: "tc"},
		{Name: "wc", DelayScale: 1.15, LateScale: 1.05, MarginScale: 1.2},
	}
	if err := modemerge.ValidateCorners(corners); err != nil {
		t.Fatal(err)
	}

	opt := modemerge.Options{Corners: corners}
	merged, reports, mb, err := modemerge.MergeAll(context.Background(), design, modes, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reports {
		if len(mb.Cliques()[i]) < 2 {
			continue
		}
		if len(rep.Corners) != len(corners) {
			t.Errorf("report %d corners = %v, want both corner names", i, rep.Corners)
		}
	}
	// Corner-aware standalone validation: the merged mode must not relax
	// any member in any corner (the merger flattens modes x corners).
	for ci, clique := range mb.Cliques() {
		if len(clique) < 2 {
			continue
		}
		var group []*modemerge.Mode
		for _, mi := range clique {
			group = append(group, modes[mi])
		}
		res, err := modemerge.CheckEquivalence(context.Background(), design, group, merged[ci], opt)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equivalent() {
			t.Errorf("corner-aware merged mode %s relaxes a member scenario: %s", merged[ci].Name, res)
		}
	}

	// A single neutral corner must degenerate to the corner-less merge.
	plain, _, _, err := modemerge.MergeAll(context.Background(), design, modes, modemerge.Options{})
	if err != nil {
		t.Fatal(err)
	}
	single, _, _, err := modemerge.MergeAll(context.Background(), design, modes,
		modemerge.Options{Corners: corners[:1]})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(single) {
		t.Fatalf("merged counts differ: %d corner-less vs %d single-corner", len(plain), len(single))
	}
	for i := range plain {
		if modemerge.WriteSDC(plain[i]) != modemerge.WriteSDC(single[i]) {
			t.Errorf("merged mode %d differs between corner-less and single-neutral-corner merges", i)
		}
	}
}

// TestFacadeCornersRejectHierarchical pins the documented incompatibility
// at the facade boundary.
func TestFacadeCornersRejectHierarchical(t *testing.T) {
	design, modes := hierFixture(t)
	_, _, _, err := modemerge.MergeAll(context.Background(), design, modes,
		modemerge.Options{Hierarchical: true, Corners: []modemerge.Corner{{Name: "tc"}}})
	if err == nil {
		t.Fatal("Corners + Hierarchical must error")
	}
}
