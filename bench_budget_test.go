package modemerge

import (
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// largeMergeBudgetDefaultMS is the default wall-clock budget for one
// untraced merge of the large generated design. The post-optimization
// merge takes ~30 ms single-threaded on the reference 1-CPU CI box
// (see EXPERIMENTS.md), so 100 ms is roughly 3× headroom: generous
// enough that runner noise never trips it, tight enough that losing the
// data_refine caches (a 1.5–2× slowdown, plus growth) fails loudly. Override with MODEMERGE_PERF_BUDGET_MS on slower or faster
// hardware.
const largeMergeBudgetDefaultMS = 100

// TestLargeMergeBudget is the gating half of the perf harness: the
// benchmarks above report numbers, this test enforces one. Best-of-three
// keeps scheduler hiccups from failing a healthy build — a real
// regression slows every run, noise slows one.
func TestLargeMergeBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("perf budget not meaningful under -short")
	}
	budgetMS := int64(largeMergeBudgetDefaultMS)
	if env := os.Getenv("MODEMERGE_PERF_BUDGET_MS"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil || v <= 0 {
			t.Fatalf("MODEMERGE_PERF_BUDGET_MS=%q: want a positive integer", env)
		}
		budgetMS = v
	}
	s := obsBenchSizes()[2] // large
	g, modes := obsBenchFixture(t, s)

	// One warm-up merge pays one-time costs (page faults, lazy graph
	// indexes shared via the fixture) outside the measured window.
	obsMergeOnce(t, g, modes, false, 0)

	best := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		obsMergeOnce(t, g, modes, false, 0)
		if d := time.Since(start); d < best {
			best = d
		}
	}
	t.Logf("large merge best-of-3: %v (budget %d ms)", best, budgetMS)
	if best > time.Duration(budgetMS)*time.Millisecond {
		t.Fatalf("large merge took %v, over the %d ms budget — data_refine hot path regressed "+
			"(set MODEMERGE_PERF_BUDGET_MS to adjust on non-reference hardware)", best, budgetMS)
	}
}

// largeMergeAllocBudget bounds the heap allocations (runtime.MemStats
// Mallocs) of one untraced large merge at Parallelism 1. The count
// hardly moves from run to run (75,724–75,741 over 4 runs before packed
// relation keys), so unlike wall time it can gate on a 1–2 CPU runner.
// With packed relation keys and inline singleton state sets the merge
// makes 35,698 allocations (75,727 before); the budget is 1.15× that, so
// a change that brings back per-group maps or per-set slices fails here
// while run-to-run noise never does.
const largeMergeAllocBudget = 41_053

// TestLargeMergeAllocBudget counts the allocations of one untraced large
// merge, best of 3 after a warm-up, against largeMergeAllocBudget. Under
// -short and the race detector it is skipped: the race runtime allocates
// differently.
func TestLargeMergeAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget not checked under -short")
	}
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	g, modes := obsBenchFixture(t, obsBenchSizes()[2]) // large
	obsMergeOnce(t, g, modes, false, 1)

	best := uint64(1<<64 - 1)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		obsMergeOnce(t, g, modes, false, 1)
		runtime.ReadMemStats(&after)
		best = min(best, after.Mallocs-before.Mallocs)
	}
	t.Logf("large merge best-of-3: %d allocations (budget %d)", best, largeMergeAllocBudget)
	if best > largeMergeAllocBudget {
		t.Fatalf("large merge made %d allocations, over the budget of %d — the §3.2 comparator "+
			"or the relation fill allocates per path group again", best, largeMergeAllocBudget)
	}
}
