package difftest

import (
	"context"
	"path/filepath"
	"testing"

	"modemerge/internal/gen"
)

// dataRefineFaultSpec is a constructed reproducer for the
// skip-data-refine fault. Random sampling rarely produces an endpoint
// that every member excludes while the merged mode still times it, so
// the spec is built by hand around that case:
//
//   - a functional-only two-mode group, so every mode creates the same
//     clocks and the members' relation maps compare key for key;
//   - both modes relax the single register→output path, but through
//     textually different exceptions (one scoped -to the port, one
//     unscoped -from the register), so the intersection-based exception
//     merge keeps neither and the merged mode still times the endpoint;
//   - the members' relation maps at that endpoint are all false, so
//     pass 1 of data refinement emits the corrective false path — while
//     the faulted merge skips data refinement and leaves the endpoint
//     timed (a conformity violation; the merge is pessimistic, so the
//     equivalence oracle stays silent).
func dataRefineFaultSpec() *TrialSpec {
	return &TrialSpec{
		Design: gen.DesignSpec{
			Name: "dataref", Seed: 1,
			Domains: 1, BlocksPerDomain: 1, Stages: 1, RegsPerStage: 1,
			CloudDepth: 1, CrossPaths: 0, IOPairs: 1,
		},
		Family: gen.FamilySpec{
			Groups: 1, ModesPerGroup: []int{2}, BasePeriod: 2, FunctionalOnly: true,
		},
		Perturbs: []Perturb{
			{Mode: 0, Kind: "false_path_out", D: 0, B: 0},
			{Mode: 1, Kind: "false_path_from", D: 0, B: 0},
		},
	}
}

// TestSkipDataRefineCaughtByConformity pins detector power for the
// skip-data-refine fault: the constructed spec must merge clean without
// violations, must trip the conformity oracle under the fault, must stay
// minimal under shrinking, and must round-trip through a saved corpus
// file. The fault is not marked Detectable — random trials rarely reach
// this case — so the power check lives here instead.
func TestSkipDataRefineCaughtByConformity(t *testing.T) {
	cx := context.Background()
	fault, err := ParseFault("skip-data-refine")
	if err != nil {
		t.Fatal(err)
	}
	spec := dataRefineFaultSpec()

	clean := Run(cx, spec, Fault{}.Inject)
	if clean.Err != nil {
		t.Fatalf("clean run: %v", clean.Err)
	}
	if clean.Failed() {
		t.Fatalf("clean run must pass all properties, got %v", clean.Violations)
	}

	res := Run(cx, spec, fault.Inject)
	if res.Err != nil {
		t.Fatalf("faulted run: %v", res.Err)
	}
	sawConformity := false
	for _, v := range res.Violations {
		if v.Property == PropConformity {
			sawConformity = true
		}
	}
	if !sawConformity {
		t.Fatalf("expected a conformity violation with data refinement skipped, got %v", res.Violations)
	}

	// The hand-built spec must already be locally minimal: shrinking may
	// not find a smaller failing spec, and no single simplification step
	// keeps the failure.
	shrunk := Shrink(cx, spec, fault.Inject)
	if shrunk.Size() < spec.Size() {
		t.Fatalf("constructed spec is not minimal: shrank %d -> %d to %s",
			spec.Size(), shrunk.Size(), shrunk)
	}
	for _, cand := range candidates(spec) {
		if cand.Size() >= spec.Size() {
			continue
		}
		if r := Run(cx, cand, fault.Inject); r.Err == nil && r.Failed() {
			t.Fatalf("constructed spec is not minimal: %s still fails", cand)
		}
	}

	// Save → load → replay round trip, mirroring the committed corpus
	// entry for this fault.
	dir := t.TempDir()
	repro := &Reproducer{
		Spec:             *spec,
		Fault:            "skip-data-refine",
		ExpectViolations: true,
		Properties:       []string{PropConformity},
		FoundBy:          "TestSkipDataRefineCaughtByConformity",
	}
	path, err := repro.Save(dir)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := loaded[filepath.Base(path)]
	if !ok {
		t.Fatalf("saved reproducer %s not found on reload", path)
	}
	if err := got.Replay(Run(cx, &got.Spec, fault.Inject)); err != nil {
		t.Fatalf("reloaded reproducer: %v", err)
	}
}
