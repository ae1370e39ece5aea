// Package difftest is a property-based differential fuzzing harness for
// the mode-merging flow. It samples randomized designs and mode families
// (internal/gen) plus random constraint perturbations, runs the
// timing-graph merge, and checks every merged clique against eight
// independent oracles:
//
//  1. equivalence — core.CheckEquivalence reports no optimistic
//     mismatches (the paper's §3.2 sign-off safety claim);
//  2. round-trip — the merged mode survives sdc.Write → sdc.Parse →
//     sdc.Write byte-identically (the merged SDC is real, loadable SDC);
//  3. pessimism bound — per-endpoint timing relationships of the merged
//     mode are never more pessimistic than core.NaiveMerge on the same
//     modes (the graph-based method must not lose to the textual
//     baseline it claims to beat);
//  4. conformity — endpoints that every member mode excludes entirely
//     (all path groups false) stay excluded in the merged mode (the
//     accuracy half of §3.2: the merged mode must not keep timing paths
//     no member times — a direction the intersection-based naive
//     baseline is structurally blind to);
//  5. determinism — merging with the trial's sampled worker count yields
//     byte-identical merged SDC and explain reports to the fully
//     sequential merge of the same spec (the parallel engine's
//     shard/reduce scheme must not leak scheduling order into output);
//  6. incremental — merging through a content-addressed sub-merge cache
//     (cold fill, warm replay, and a warm re-merge after editing one
//     mode) stays byte-identical to cacheless merges of the same inputs
//     (caching changes work, never results);
//  7. hierarchical — on hierarchical trials, the ETM-driven merge
//     (internal/etm extraction + per-block refinement + stitching) forms
//     the same cliques as the flat merge and its stitched modes are
//     never optimistic, neither against the member modes nor against the
//     flat merged mode (relation-equivalent up to pessimism);
//  8. corner-conformity — on corner (MCMM scenario-matrix) trials, the
//     merged mode deployed in each corner (base text + that corner's SDC
//     overlay) is never optimistic against the member modes deployed in
//     the same corner. This is the per-corner form of oracle 1, and on
//     corner trials it replaces it: relaxations private to one corner
//     make the corner-less comparison the wrong reference.
//
// Failures shrink to a minimal reproducer spec and are written as JSON
// corpus files under testdata/corpus/, which go test replays as
// deterministic regressions. cmd/modefuzz is the CLI driver.
package difftest

import (
	"encoding/json"
	"fmt"

	"modemerge/internal/gen"
	"modemerge/internal/library"
)

// Perturb is one randomized constraint added to one mode of the family.
// Selectors are free integers resolved by modulo against the generated
// design's structural handles, so every integer combination is valid and
// shrinking never produces a dangling reference.
type Perturb struct {
	// Mode selects the target mode by global index (mod total modes).
	Mode int `json:"mode"`
	// Kind is one of "false_path", "multicycle", "case", "disable".
	Kind string `json:"kind"`
	// D/B select a domain and block (mod the respective counts).
	D int `json:"d"`
	B int `json:"b"`
	// D2/B2 select the -to side of a false path.
	D2 int `json:"d2,omitempty"`
	B2 int `json:"b2,omitempty"`
	// Mult parameterizes the multicycle multiplier (2 + Mult mod 3).
	Mult int `json:"mult,omitempty"`
	// Val is the case-analysis value (mod 2).
	Val int `json:"val,omitempty"`
}

// TrialSpec is one fully serialized fuzz trial: enough to regenerate the
// exact design, mode family and perturbations deterministically.
type TrialSpec struct {
	Design    gen.DesignSpec `json:"design"`
	Family    gen.FamilySpec `json:"family"`
	Perturbs  []Perturb      `json:"perturbs,omitempty"`
	Tolerance float64        `json:"tolerance,omitempty"`
	// Parallelism bounds the merge-under-test's intra-merge worker pools
	// (core.Options.Parallelism); 0 means GOMAXPROCS, 1 forces the
	// sequential path. The engine guarantees byte-identical output for
	// any value, and the determinism oracle re-merges sequentially to
	// hold it to that. Absent in older corpus files (= 0).
	Parallelism int `json:"parallelism,omitempty"`
	// Incremental additionally runs the incremental re-merge oracle:
	// warm a sub-merge cache with a baseline merge, perturb one mode, and
	// require the warm incremental re-merge to be byte-identical to a
	// cold merge of the perturbed family (core.Options.Cache never
	// changes results, only work). Absent in older corpus files (= off).
	Incremental bool `json:"incremental,omitempty"`
	// Hierarchical generates the design with gen.GenerateHier (same
	// structural parameters, block instances of a shared master) instead
	// of gen.Generate and additionally runs the hierarchical oracle: the
	// ETM-driven merge of the flattened design must form the same cliques
	// as the flat merge and must never be optimistic against the members
	// or the flat merged mode. Absent in older corpus files (= off).
	Hierarchical bool `json:"hierarchical,omitempty"`
	// Corners sets the MCMM scenario-matrix dimension: 0 merges
	// corner-less, N ≥ 1 merges the #modes × N scenario matrix through
	// core.Options.Corners using gen.CornerSet's derate ladder. Corner
	// trials swap the corner-less equivalence oracle for the per-corner
	// corner-conformity oracle (the corner-less comparison is the wrong
	// reference once relaxations may be corner-local). Ignored on
	// hierarchical trials — core rejects the combination. Absent in
	// older corpus files (= 0).
	Corners int `json:"corners,omitempty"`
	// CornerPerturbs are constraint overlays attached to individual
	// corners: each renders like a Perturb, but the lines are appended to
	// the selected corner's SDC overlay (Perturb.Mode selects the corner,
	// mod Corners) and so apply to every mode analyzed in that corner.
	// Only the relation-relaxing false-path kinds are rendered (see
	// cornerPerturbKinds) — overlays must not create clocks and must not
	// collide with per-mode case values. Absent in older corpus files.
	CornerPerturbs []Perturb `json:"corner_perturbs,omitempty"`
}

// Clone deep-copies the spec.
func (s *TrialSpec) Clone() *TrialSpec {
	c := *s
	c.Family.ModesPerGroup = append([]int(nil), s.Family.ModesPerGroup...)
	c.Perturbs = append([]Perturb(nil), s.Perturbs...)
	c.CornerPerturbs = append([]Perturb(nil), s.CornerPerturbs...)
	return &c
}

// Size is the shrinking order: smaller specs are simpler reproducers.
func (s *TrialSpec) Size() int {
	d := s.Design
	modes := 0
	for _, n := range s.Family.ModesPerGroup {
		modes += n
	}
	return d.Domains*d.BlocksPerDomain*d.Stages*d.RegsPerStage*(1+d.CloudDepth) +
		d.CrossPaths + d.IOPairs + 10*modes + 5*len(s.Perturbs) +
		8*s.Corners + 5*len(s.CornerPerturbs)
}

// String is a compact summary for logs.
func (s *TrialSpec) String() string {
	kind := ""
	if s.Hierarchical {
		kind = " hier"
	}
	corners := ""
	if s.Corners > 0 {
		corners = fmt.Sprintf(" corners=%d/%d", s.Corners, len(s.CornerPerturbs))
	}
	return fmt.Sprintf("design{dom=%d blk=%d stg=%d reg=%d cloud=%d x=%d io=%d seed=%d%s} groups=%v perturbs=%d%s",
		s.Design.Domains, s.Design.BlocksPerDomain, s.Design.Stages, s.Design.RegsPerStage,
		s.Design.CloudDepth, s.Design.CrossPaths, s.Design.IOPairs, s.Design.Seed, kind,
		s.Family.ModesPerGroup, len(s.Perturbs), corners)
}

// MarshalIndent renders the canonical JSON form used for corpus files.
func (s *TrialSpec) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// renderPerturb emits the SDC lines for one perturbation, resolving its
// selectors against the generated design's structural handles.
func renderPerturb(g *gen.Generated, p Perturb) []string {
	nd := len(g.BlockFirstRegs)
	if nd == 0 {
		return nil
	}
	pick := func(d, b int) (int, int) {
		d = mod(d, nd)
		return d, mod(b, len(g.BlockFirstRegs[d]))
	}
	switch p.Kind {
	case "false_path":
		d, b := pick(p.D, p.B)
		d2, b2 := pick(p.D2, p.B2)
		return []string{fmt.Sprintf("set_false_path -from [get_pins %s/CP] -to [get_pins %s/D]",
			g.BlockLastRegs[d][b], g.BlockFirstRegs[d2][b2])}
	case "false_path_from":
		d, b := pick(p.D, p.B)
		return []string{fmt.Sprintf("set_false_path -from [get_pins %s/CP]",
			g.BlockLastRegs[d][b])}
	case "false_path_out":
		d, b := pick(p.D, p.B)
		d2 := mod(p.D2, len(g.DataOut))
		if len(g.DataOut[d2]) == 0 {
			return nil
		}
		port := g.DataOut[d2][mod(p.B2, len(g.DataOut[d2]))]
		return []string{fmt.Sprintf("set_false_path -from [get_pins %s/CP] -to [get_ports %s]",
			g.BlockLastRegs[d][b], port)}
	case "multicycle":
		d, b := pick(p.D, p.B)
		return []string{fmt.Sprintf("set_multicycle_path %d -setup -from [get_pins %s/CP]",
			2+mod(p.Mult, 3), g.BlockLastRegs[d][b])}
	case "case":
		// Data-input ports only: the generator's built-in modes case the
		// block-enable and test-control ports with mode-specific values,
		// and a second set_case_analysis with the opposite value inside
		// the same mode is a parse error, not a merge bug.
		port, ok := casePort(g, p)
		if !ok {
			return nil
		}
		return []string{fmt.Sprintf("set_case_analysis %d [get_ports %s]",
			mod(p.Val, 2), port)}
	case "disable":
		// The scan mux in front of a block's first register; I1 is the
		// scan-in leg (see gen.Generate's naming contract).
		d, b := pick(p.D, p.B)
		return []string{fmt.Sprintf("set_disable_timing [get_pins %s_smux/I1]",
			g.BlockFirstRegs[d][b])}
	default:
		return nil
	}
}

// casePort resolves a case perturbation's target data-input port.
func casePort(g *gen.Generated, p Perturb) (string, bool) {
	if len(g.DataIn) == 0 {
		return "", false
	}
	d := mod(p.D, len(g.DataIn))
	ports := g.DataIn[d]
	if len(ports) == 0 {
		return "", false
	}
	return ports[mod(p.B, len(ports))], true
}

// cornerPerturbKinds are the Perturb kinds rendered into corner
// overlays. Only the false-path family qualifies: overlay lines apply to
// every mode of the corner, so they must never create clocks (a corner
// invariant core enforces), never collide with per-mode case values
// ("case" could set the opposite constant a mode already cases), and
// only ever relax relations — a corner whose overlay could tighten a
// relation would make the corner-less pessimism and conformity oracles
// wrong references. CornerSet silently skips other kinds.
var cornerPerturbKinds = []string{"false_path", "false_path_from", "false_path_out"}

// CornerSet materializes the spec's corners against a generated design:
// gen.CornerSet's deterministic derate ladder (corner 0 neutral, odd
// corners slow with extra output load, even corners fast with input
// transitions), plus the spec's corner perturbations appended to the
// selected corners' SDC overlays.
func (s *TrialSpec) CornerSet(g *gen.Generated) []library.Corner {
	if s.Corners <= 0 {
		return nil
	}
	fam := s.Family
	fam.Corners = s.Corners
	corners := g.CornerSet(fam)
	for _, p := range s.CornerPerturbs {
		ok := false
		for _, k := range cornerPerturbKinds {
			if p.Kind == k {
				ok = true
				break
			}
		}
		if !ok {
			continue
		}
		ci := mod(p.Mode, len(corners))
		for _, line := range renderPerturb(g, p) {
			corners[ci].SDC += line + "\n"
		}
	}
	return corners
}

// PerturbKinds lists the valid Perturb.Kind values. false_path_from and
// false_path_out are the unscoped and output-scoped variants of
// false_path: the first kills every path leaving the selected register,
// the second only its paths into one output port. Together they let two
// modes express the same relaxation at one endpoint through textually
// different exceptions, which the intersection-based exception merge
// keeps neither of, leaving data refinement to add the corrective false
// path (see dataRefineFaultSpec).
var PerturbKinds = []string{"false_path", "multicycle", "case", "disable", "false_path_from", "false_path_out"}

func mod(v, n int) int {
	if n <= 0 {
		return 0
	}
	v %= n
	if v < 0 {
		v += n
	}
	return v
}

// ExtraHook builds the gen.ModesWithExtra callback applying the spec's
// perturbations: a perturbation targets the mode whose global index equals
// Perturb.Mode mod the family's total mode count.
func (s *TrialSpec) ExtraHook(g *gen.Generated) func(grp, v int) []string {
	if len(s.Perturbs) == 0 {
		return nil
	}
	total := s.Family.TotalModes()
	return func(grp, v int) []string {
		// Global index of (grp, v) in generation order.
		mi := 0
		for i := 0; i < grp; i++ {
			mi += s.Family.ModesPerGroup[i]
		}
		mi += v
		var out []string
		// Two case perturbations landing on the same port of the same
		// mode with opposite values would make that mode invalid SDC;
		// first one wins.
		caseVals := map[string]int{}
		for _, p := range s.Perturbs {
			if mod(p.Mode, total) != mi {
				continue
			}
			if p.Kind == "case" {
				port, ok := casePort(g, p)
				if !ok {
					continue
				}
				val := mod(p.Val, 2)
				if prev, seen := caseVals[port]; seen && prev != val {
					continue
				}
				caseVals[port] = val
			}
			out = append(out, renderPerturb(g, p)...)
		}
		return out
	}
}
