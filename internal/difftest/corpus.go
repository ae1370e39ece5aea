package difftest

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"modemerge/internal/core"
)

// Reproducer is one corpus entry: a (usually shrunk) trial spec plus the
// expectation it must keep satisfying when replayed. Clean entries pin
// past false alarms — specs that once tripped an oracle incorrectly and
// must now pass. Fault entries pin detector power — specs where an
// injected merge bug must still be caught.
type Reproducer struct {
	// Spec regenerates the design, family and perturbations.
	Spec TrialSpec `json:"spec"`
	// Fault names the injected merge bug, "" for a clean merge. See
	// ParseFault for the accepted names.
	Fault string `json:"fault,omitempty"`
	// ExpectViolations: replay must find at least one violation (fault
	// entries) or none at all (clean entries).
	ExpectViolations bool `json:"expect_violations"`
	// Properties lists which oracles must fire when ExpectViolations.
	// Detail strings are NOT pinned: they quote pin names and relation
	// states, which shift with any generator or refinement change. (The
	// order of CheckEquivalence's mismatch listing is deterministic:
	// pass 1 by endpoint in graph order, pass 2 by endpoint name, pass 3
	// by (start, end) pair, keys sorted within each.)
	Properties []string `json:"properties,omitempty"`
	// FoundBy records provenance (e.g. "modefuzz -seed 7 -trials 100").
	FoundBy string `json:"found_by,omitempty"`
}

// Fault describes one injectable merge bug.
type Fault struct {
	Inject core.FaultInjection
	// Detectable: the oracles can catch this fault, so a fuzz run that
	// injects it must produce failures. The oracles reject optimism
	// (sign-off unsafe merges), baseline regressions, and — via the
	// conformity oracle — merged modes that keep timing endpoints every
	// member excludes; pessimism beyond those bounds is sign-off safe and
	// deliberately invisible.
	Detectable bool
	Note       string
	// Shape, when non-nil, biases a random spec toward trials that can
	// exercise the fault at all — e.g. a corner fault is invisible on
	// corner-less trials, so its power check would otherwise hinge on
	// the sampler happening to roll the right spec features. Shaping
	// changes which trials run, never what any trial asserts.
	Shape func(*TrialSpec, *rand.Rand)
}

// FaultNames maps the CLI/corpus fault names to injections.
var FaultNames = map[string]Fault{
	"keep-subset-exceptions": {
		Inject:     core.FaultInjection{KeepSubsetExceptions: true},
		Detectable: true,
		Note:       "subset exceptions join unconditionally: optimism, caught by the equivalence oracle",
	},
	"etm-keep-subset-exceptions": {
		Inject:     core.FaultInjection{ETMKeepSubsetExceptions: true},
		Detectable: true,
		Note: "hierarchical harvest keeps subset-only member exceptions: optimism on hierarchical trials, " +
			"caught by the hierarchical oracle (no effect on flat trials)",
	},
	"merge-best-corner-only": {
		Inject:     core.FaultInjection{MergeBestCornerOnly: true},
		Detectable: true,
		Note: "scenario-matrix refinement collapses to the first corner: relaxations private to that corner " +
			"leak into the merged base text and become optimism in every corner lacking them, caught by the " +
			"corner-conformity oracle (no effect on corner-less trials)",
		// The fault only fires on corner trials whose first corner's
		// overlay relaxes something: force a corner axis and pin one
		// relaxation onto corner 0 (the corner the fault collapses to).
		// Detection stays probabilistic per trial (~3/4), just no longer
		// contingent on sampling a corner trial in the first place.
		Shape: func(s *TrialSpec, rng *rand.Rand) {
			s.Hierarchical = false
			if s.Corners == 0 {
				s.Corners = 2 + rng.Intn(2)
			}
			p := RandomPerturb(rng)
			p.Kind = "false_path_from"
			p.Mode = 0
			s.CornerPerturbs = append(s.CornerPerturbs, p)
		},
	},
	"skip-clock-refine": {
		Inject: core.FaultInjection{SkipClockRefinement: true},
		Note:   "missing clock stops over-time paths: pessimism only, sign-off safe",
	},
	"skip-data-refine": {
		Inject: core.FaultInjection{SkipDataRefinement: true},
		Note: "missing corrective false paths: pessimism, sign-off safe; the conformity oracle can catch " +
			"the subset with unanimously excluded endpoints, but random trials hit that rarely " +
			"(constructed reproducer: dataRefineFaultSpec in conformity_test.go)",
	},
}

// ParseFault resolves a fault name ("" means no injection).
func ParseFault(name string) (Fault, error) {
	if name == "" {
		return Fault{}, nil
	}
	if f, ok := FaultNames[name]; ok {
		return f, nil
	}
	var known []string
	for k := range FaultNames {
		known = append(known, k)
	}
	sort.Strings(known)
	return Fault{}, fmt.Errorf("unknown fault %q (known: %s)", name, strings.Join(known, ", "))
}

// Name is the content-addressed corpus file name of the reproducer.
func (r *Reproducer) Name() string {
	data, _ := json.Marshal(r.Spec)
	sum := sha256.Sum256(append(data, []byte(r.Fault)...))
	return fmt.Sprintf("%x.json", sum[:8])
}

// Save writes the reproducer under dir with its content-addressed name
// and returns the path.
func (r *Reproducer) Save(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, r.Name())
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadDir reads every *.json reproducer under dir, sorted by file name.
// A missing directory is an empty corpus, not an error.
func LoadDir(dir string) (map[string]*Reproducer, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	out := map[string]*Reproducer{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		var r Reproducer
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name(), err)
		}
		out[e.Name()] = &r
	}
	return out, nil
}

// Replay runs the reproducer's spec with its fault and checks the pinned
// expectation. It returns the trial result plus a verdict error when the
// expectation no longer holds (nil error means the corpus entry still
// reproduces).
func (r *Reproducer) Replay(res *TrialResult) error {
	if res.Err != nil {
		return fmt.Errorf("infrastructure error: %w", res.Err)
	}
	if !r.ExpectViolations {
		if res.Failed() {
			return fmt.Errorf("expected clean run, got %d violations: %v", len(res.Violations), res.Violations)
		}
		return nil
	}
	if !res.Failed() {
		return fmt.Errorf("expected violations, merge passed all properties")
	}
	seen := map[string]bool{}
	for _, v := range res.Violations {
		seen[v.Property] = true
	}
	for _, want := range r.Properties {
		if !seen[want] {
			return fmt.Errorf("expected a %s violation, got %v", want, res.Violations)
		}
	}
	return nil
}
