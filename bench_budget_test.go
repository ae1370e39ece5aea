package modemerge

import (
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"modemerge/internal/experiments"
	"modemerge/internal/sta"
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
// relation keys; 11,543–11,556 over 5 best-of-3 runs now), so unlike
// wall time it can gate on a 1–2 CPU runner. Packed relation keys and
// inline singleton state sets took the merge from 75,727 to 35,698
// allocations (budget 41,053); carving every node's tag set from pooled
// propagation slabs took it to 16,442 (budget 18,908); one anchor table
// per context's exceptions, with a dense pass-3 suffix DP, took it to
// 14,815 (budget 17,037); classifying each endpoint in comparator
// scratch reused across a pass, with one pass-3 cone per pair, took it
// to 11,543. The budget is 1.15× that, so a change that brings back
// per-node tag slices, per-group maps, per-set slices, per-exception
// maps or per-endpoint gather buffers fails here while run-to-run noise
// never does.
const largeMergeAllocBudget = 13_274

// largeMergeBytesBudget bounds the heap bytes (runtime.MemStats
// TotalAlloc) of the same merge. A count misses a buffer that stays one
// allocation but grows with the design, as the comparator's per-endpoint
// group arrays and pass 3's graph-sized cone arrays did: the merge
// allocated 6.50–6.82 MB before they went and 4.32–4.38 MB after, over
// 3 and 5 best-of-3 runs. Relation propagations that share single-fanin
// pins' tag sets, fix emission without a per-key map and bitset live
// reaches took it to 3.75–3.76 MB over 3 best-of-3 runs (4.20–4.37 MB
// before, over 2). The budget is 1.15× the best, 3,746,096.
const largeMergeBytesBudget = 4_308_010

// TestLargeMergeAllocBudget counts the allocations and the bytes of one
// untraced large merge, each best of 3 after a warm-up, against
// largeMergeAllocBudget and largeMergeBytesBudget. Under -short and the
// race detector it is skipped: the race runtime allocates differently.
func TestLargeMergeAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget not checked under -short")
	}
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	g, modes := obsBenchFixture(t, obsBenchSizes()[2]) // large
	obsMergeOnce(t, g, modes, false, 1)

	best, bestBytes := uint64(1<<64-1), uint64(1<<64-1)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		obsMergeOnce(t, g, modes, false, 1)
		runtime.ReadMemStats(&after)
		best = min(best, after.Mallocs-before.Mallocs)
		bestBytes = min(bestBytes, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("large merge best-of-3: %d allocations (budget %d), %d bytes (budget %d)",
		best, largeMergeAllocBudget, bestBytes, largeMergeBytesBudget)
	if best > largeMergeAllocBudget {
		t.Errorf("large merge made %d allocations, over the budget of %d — the data propagation "+
			"allocates per node or the relation fill per path group again", best, largeMergeAllocBudget)
	}
	if bestBytes > largeMergeBytesBudget {
		t.Errorf("large merge allocated %d bytes, over the budget of %d — the comparator allocates "+
			"per endpoint or pass 3 per context again", bestBytes, largeMergeBytesBudget)
	}
}

// contextBytesBudget bounds the live heap one sta.Context adds per cell
// of design F at scale 1 (seed 1), measured after a GC. It is 1.15× the
// measured value, so a change that brings back per-exception maps or a
// per-node slice header per context fails here.
const contextBytesBudget = 1.15 * 294.5

// TestContextBytesBudget builds one context per mode of design F and
// holds the heap they keep, per context per cell, under
// contextBytesBudget. Under -short and the race detector it is skipped:
// the race runtime's shadow allocations inflate the heap.
func TestContextBytesBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("context heap budget not checked under -short")
	}
	if raceEnabled {
		t.Skip("heap sizes differ under the race detector")
	}
	c := experiments.PaperDesigns(1)[5] // F
	c.Spec.Seed = 1
	p, err := experiments.Prepare(c)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ctxs := make([]*sta.Context, len(p.Modes))
	for i, m := range p.Modes {
		if ctxs[i], err = sta.NewContext(p.Graph, m, sta.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perCell := float64(after.HeapAlloc-before.HeapAlloc) / float64(len(ctxs)*p.Cells)
	runtime.KeepAlive(ctxs)
	t.Logf("design F: %d cells, %d contexts, %.1f B/cell per context (budget %.1f)",
		p.Cells, len(ctxs), perCell, contextBytesBudget)
	if perCell > contextBytesBudget {
		t.Fatalf("one context keeps %.1f B/cell, over the budget of %.1f — a context compiles "+
			"per-exception maps or per-node slices again", perCell, contextBytesBudget)
	}
}
