package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
	"testing"

	"modemerge/internal/core"
	"modemerge/internal/experiments"
	"modemerge/internal/sdc"
)

// comparePassGolden pins one paper design's merge and equivalence
// outcome. sdc digests the merged SDC of every clique; counters sums the
// Report pass counters over the cliques (p1 ambiguous/mismatch, p2
// ambiguous/mismatch, p3 mismatch, pessimistic, added false paths,
// iterations); equiv sums the EquivalenceResults of the correct merges
// (matched/pessimistic/optimistic) and optimistic those of the
// KeepSubsetExceptions merges, whose mismatch listings the listing
// digest covers in order. full digests everything per clique.
type comparePassGolden struct {
	sdc, counters, equiv, optimistic, listing, full string
}

// comparePassGoldens were captured at Parallelism 1 with no Slow knob,
// from the comparator that still classified in one sequential loop.
var comparePassGoldens = map[string]comparePassGolden{
	"A": {sdc: "c9fbd3f17b4f33da", counters: "25024 0 1984 12996 192 4 160 32", equiv: "201118 2 0",
		optimistic: "200226 0 926", listing: "a27e1bd8987cdb99", full: "90d5eadc25de7299"},
	"B": {sdc: "6ae58323be39d38c", counters: "1564 0 124 816 12 4 10 2", equiv: "12568 2 0",
		optimistic: "12553 0 14", listing: "7aef73e771c23aef", full: "a1e25f966051b5e5"},
	"C": {sdc: "9e7f807707b59beb", counters: "2978 0 160 2008 8 0 10 2", equiv: "24271 0 0",
		optimistic: "24097 0 187", listing: "8a6d7cb95aaaa145", full: "46ba006d5ff63801"},
	"D": {sdc: "3a99dd2272e39d3c", counters: "10370 0 280 11070 24 2 22 2", equiv: "149400 1 0",
		optimistic: "149384 0 16", listing: "166fd5d39c00f4dc", full: "c418f22d182a7d54"},
	"E": {sdc: "cdb2759484ec2c0b", counters: "11668 0 280 13604 24 0 22 2", equiv: "179438 0 0",
		optimistic: "179286 0 154", listing: "da7c46ba61691f21", full: "b9ae6b6c937591b5"},
}

// TestComparePassScratchIdentity merges designs A–E (seed 1) clique by
// clique, checks every merge's equivalence, and checks the equivalence
// of a KeepSubsetExceptions merge (an optimistic one, so the mismatch
// listing is non-empty). Merged SDC, Report counters and
// EquivalenceResults must equal the goldens: the comparator's reused
// scratch must never leak one endpoint's groups into another's verdicts.
// Every design runs at Parallelism 1, 2 and 4. Design B (the smallest,
// yet with pass-2 and pass-3 fixes and optimistic mismatches) also runs
// them with both Slow knobs, which make the larger designs many times
// slower (TestSlowKnobEquivalence holds the knobs byte-identical on its
// own fixtures). Under the race detector only design B runs.
func TestComparePassScratchIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("five paper designs at three parallelisms are not short")
	}
	for _, c := range experiments.PaperDesigns(1)[:5] {
		c := c
		if raceEnabled && c.Label != "B" {
			continue
		}
		c.Spec.Seed = 1
		t.Run(c.Label, func(t *testing.T) {
			t.Parallel()
			p, err := experiments.Prepare(c)
			if err != nil {
				t.Fatal(err)
			}
			_, cliques, err := core.PlanMerge(p.Graph, p.Modes, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			want, ok := comparePassGoldens[c.Label]
			slows := []core.SlowPaths{{}}
			if c.Label == "B" {
				slows = append(slows, core.SlowPaths{NoRelationCache: true, NoCacheTransfer: true})
			}
			for _, par := range []int{1, 2, 4} {
				for _, slow := range slows {
					got := comparePassFingerprint(t, p, cliques, core.Options{Parallelism: par, Slow: slow})
					if !ok {
						t.Errorf("no golden; got %#v", got)
						return
					}
					if got != want {
						t.Errorf("Parallelism %d, Slow %+v:\n got %#v\nwant %#v", par, slow, got, want)
					}
				}
			}
		})
	}
}

// comparePassFingerprint merges and checks every clique of p under opt.
func comparePassFingerprint(t *testing.T, p *experiments.Prepared, cliques [][]int, opt core.Options) comparePassGolden {
	t.Helper()
	cx := context.Background()
	sdcHash, listing, full := sha256.New(), sha256.New(), sha256.New()
	var counters [8]int
	var equiv, optimistic [3]int
	for ci, clique := range cliques {
		group := make([]*sdc.Mode, len(clique))
		for i, m := range clique {
			group[i] = p.Modes[m]
		}
		merged, rep, err := core.MergeClique(cx, p.Graph, group, opt)
		if err != nil {
			t.Fatalf("clique %d: %v", ci, err)
		}
		text := sdc.Write(merged)
		fmt.Fprintf(sdcHash, "%d:%s", len(text), text)
		cs := [8]int{rep.Pass1Ambiguous, rep.Pass1Mismatch, rep.Pass2Ambiguous, rep.Pass2Mismatch,
			rep.Pass3Mismatch, rep.PessimisticGroups, rep.AddedFalsePaths, rep.Iterations}
		for i, v := range cs {
			counters[i] += v
		}
		fmt.Fprintf(full, "clique %d: %v\n", ci, cs)
		if len(group) < 2 {
			continue
		}
		res, err := core.CheckEquivalence(cx, p.Graph, group, merged, opt)
		if err != nil {
			t.Fatalf("clique %d equivalence: %v", ci, err)
		}
		addEquiv(&equiv, full, res)
		bad := opt
		bad.Inject.KeepSubsetExceptions = true
		badMerged, _, err := core.MergeClique(cx, p.Graph, group, bad)
		if err != nil {
			t.Fatalf("clique %d KeepSubsetExceptions: %v", ci, err)
		}
		res, err = core.CheckEquivalence(cx, p.Graph, group, badMerged, opt)
		if err != nil {
			t.Fatalf("clique %d KeepSubsetExceptions equivalence: %v", ci, err)
		}
		addEquiv(&optimistic, full, res)
		for _, m := range res.OptimisticMismatches {
			fmt.Fprintln(listing, m)
		}
	}
	fmt.Fprintf(full, "%x %x\n", sdcHash.Sum(nil), listing.Sum(nil))
	short := func(h []byte) string { return hex.EncodeToString(h)[:16] }
	join := func(vs []int) string { return strings.Trim(fmt.Sprint(vs), "[]") }
	return comparePassGolden{
		sdc:        short(sdcHash.Sum(nil)),
		counters:   join(counters[:]),
		equiv:      join(equiv[:]),
		optimistic: join(optimistic[:]),
		listing:    short(listing.Sum(nil)),
		full:       short(full.Sum(nil)),
	}
}

// addEquiv sums res into sum (matched, pessimistic, optimistic) and
// folds it into the clique-by-clique digest.
func addEquiv(sum *[3]int, full io.Writer, res *core.EquivalenceResult) {
	sum[0] += res.MatchedGroups
	sum[1] += res.PessimisticGroups
	sum[2] += len(res.OptimisticMismatches)
	fmt.Fprintf(full, "equiv %d %d %d\n", res.MatchedGroups, res.PessimisticGroups, len(res.OptimisticMismatches))
}
