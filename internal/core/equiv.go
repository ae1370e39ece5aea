package core

import (
	"context"
	"fmt"

	"modemerge/internal/graph"
	"modemerge/internal/sdc"
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
	// checker leaves it empty: pass 3 skips any group where a side stays
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
// at the three granularities of §3.2, without modifying anything: it
// runs the refinement's three passes in classify mode on freshly built
// member contexts and a full rebuild of the merged context. The clock
// mapping is rediscovered structurally (same source set and waveform).
// Cancelling cx aborts between and inside the passes with the context
// error.
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
	res := &EquivalenceResult{}
	esp := mg.span.Child("equivalence")
	_, err = mg.threePass(cx, esp, res)
	esp.Add("matched", int64(res.MatchedGroups))
	esp.Add("pessimistic", int64(res.PessimisticGroups))
	esp.Add("optimistic", int64(len(res.OptimisticMismatches)))
	esp.Add("unresolved", int64(len(res.Unresolved)))
	esp.Finish()
	if err != nil {
		return nil, err
	}
	return res, nil
}
