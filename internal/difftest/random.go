package difftest

import (
	"math/rand"

	"modemerge/internal/gen"
)

// RandomSpec samples one trial spec from the rng. Sizes are kept small:
// the oracle runs full STA relation extraction per mode, and small
// designs both run faster and shrink to more readable reproducers, while
// still covering multiple domains, gated blocks, cross-domain paths and
// multi-group families.
func RandomSpec(rng *rand.Rand) *TrialSpec {
	d := RandomDesign(rng)
	f := RandomFamily(rng)
	s := &TrialSpec{Design: d, Family: f}
	n := rng.Intn(5) // 0..4 perturbations
	for i := 0; i < n; i++ {
		s.Perturbs = append(s.Perturbs, RandomPerturb(rng))
	}
	// Each trial samples a worker count so the determinism oracle keeps
	// cross-checking the parallel engine against the sequential merge at
	// varied shardings (0 = GOMAXPROCS).
	s.Parallelism = []int{0, 1, 2, 3, 4, 8}[rng.Intn(6)]
	// About a third of the trials also exercise the incremental re-merge
	// engine (cache warm-up + one-mode perturbation + warm-vs-cold
	// byte comparison); it roughly triples a trial's merge work, so it is
	// sampled rather than always on.
	s.Incremental = rng.Intn(3) == 0
	// About a quarter of the trials generate the design hierarchically and
	// additionally hold the ETM-driven merge to the flat merge's cliques
	// and relations (the hierarchical oracle).
	s.Hierarchical = rng.Intn(4) == 0
	// About a third of the flat trials merge a 2–3 corner scenario matrix
	// (core rejects corners on hierarchical merges), usually with a couple
	// of corner-local overlay relaxations so the corner-conformity oracle
	// sees corners that genuinely disagree, not just derate ladders.
	if !s.Hierarchical && rng.Intn(3) == 0 {
		s.Corners = 2 + rng.Intn(2)
		for i, n := 0, rng.Intn(3); i < n; i++ {
			p := RandomPerturb(rng)
			p.Kind = cornerPerturbKinds[rng.Intn(len(cornerPerturbKinds))]
			s.CornerPerturbs = append(s.CornerPerturbs, p)
		}
	}
	return s
}

// RandomDesign samples the structural parameters of a synthetic design.
func RandomDesign(rng *rand.Rand) gen.DesignSpec {
	return gen.DesignSpec{
		Name:            "fuzz",
		Seed:            rng.Int63(),
		Domains:         1 + rng.Intn(3),
		BlocksPerDomain: 1 + rng.Intn(2),
		Stages:          1 + rng.Intn(3),
		RegsPerStage:    1 + rng.Intn(3),
		CloudDepth:      1 + rng.Intn(2),
		CrossPaths:      rng.Intn(3),
		IOPairs:         1 + rng.Intn(2),
	}
}

// RandomFamily samples a mode family: 1–3 groups of 1–3 modes each.
func RandomFamily(rng *rand.Rand) gen.FamilySpec {
	groups := 1 + rng.Intn(3)
	f := gen.FamilySpec{Groups: groups, BasePeriod: 1 + rng.Float64()*3}
	// A third of the families are functional-only: every mode of a group
	// shares the same clocks, so member relation maps compare key for
	// key across modes — a regime the scan/test variants never reach.
	f.FunctionalOnly = rng.Intn(3) == 0
	for i := 0; i < groups; i++ {
		f.ModesPerGroup = append(f.ModesPerGroup, 1+rng.Intn(3))
	}
	return f
}

// RandomPerturb samples one constraint perturbation. Kinds are limited to
// constraints whose naive textual union is never *stricter* than the
// graph-based merge: false_path, multicycle, case and disable. max_delay/
// min_delay are deliberately excluded — a subset-only delay bound is kept
// (pessimistically) by the graph-based merge but dropped by the naive
// union, which would trip the pessimism-bound oracle on correct behaviour.
func RandomPerturb(rng *rand.Rand) Perturb {
	return Perturb{
		Mode: rng.Intn(1 << 16),
		Kind: PerturbKinds[rng.Intn(len(PerturbKinds))],
		D:    rng.Intn(1 << 16),
		B:    rng.Intn(1 << 16),
		D2:   rng.Intn(1 << 16),
		B2:   rng.Intn(1 << 16),
		Mult: rng.Intn(3),
		Val:  rng.Intn(2),
	}
}
