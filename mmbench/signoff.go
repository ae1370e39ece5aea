package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"modemerge/internal/graph"
	"modemerge/internal/sdc"
	"modemerge/internal/sta"
)

// Sign-off STA of one result is repeated signoffWarmup times untimed,
// then timed until signoffTime has passed (at least signoffMinReps and at
// most signoffMaxReps times) in each share of a run.
const (
	signoffWarmup  = 3
	signoffTime    = 700 * time.Millisecond
	signoffMinReps = 7
	signoffMaxReps = 201
)

// worst is one endpoint's worst setup slack and its capture period.
type worst struct {
	slack, period float64
}

// modeWorst runs sign-off STA on one mode and returns every endpoint's
// setup slack.
func modeWorst(g *graph.Graph, m *sdc.Mode) (map[string]worst, error) {
	ctx, err := sta.NewContext(g, m, sta.Options{Workers: 1})
	if err != nil {
		return nil, fmt.Errorf("sta context for %s: %w", m.Name, err)
	}
	out := map[string]worst{}
	for _, r := range ctx.AnalyzeEndpoints(context.Background()) {
		if r.HasSetup {
			out[r.Name] = worst{r.SetupSlack, r.CapturePeriod}
		}
	}
	return out, nil
}

// foldWorst keeps, per endpoint, the worst slack over several modes.
func foldWorst(into, from map[string]worst) {
	for name, w := range from {
		if cur, ok := into[name]; !ok || w.slack < cur.slack {
			into[name] = w
		}
	}
}

// conformity is Table 6's metric: the share of endpoints whose worst
// slack over the merged modes is within 1% of the capture period of
// their worst slack over the individual modes.
func conformity(individual, merged map[string]worst) float64 {
	conforming, total := 0, 0
	for name, iw := range individual {
		total++
		mw, ok := merged[name]
		if !ok {
			continue
		}
		period := iw.period
		if period <= 0 {
			period = mw.period
		}
		if period > 0 && math.Abs(mw.slack-iw.slack) <= 0.01*period {
			conforming++
		}
	}
	if total == 0 {
		return 100
	}
	return 100 * float64(conforming) / float64(total)
}

// conformityChecker computes conformity for many results on one design,
// running STA on each distinct individual mode text only once.
type conformityChecker struct {
	g     *graph.Graph
	cache map[string]map[string]worst
}

func newConformityChecker(g *graph.Graph) *conformityChecker {
	return &conformityChecker{g: g, cache: map[string]map[string]worst{}}
}

// check returns the conformity of merged against individual.
func (c *conformityChecker) check(individual, merged []*sdc.Mode) (float64, error) {
	ind := map[string]worst{}
	for _, m := range individual {
		key := m.Name + "\x00" + sdc.Write(m)
		w, ok := c.cache[key]
		if !ok {
			var err error
			if w, err = modeWorst(c.g, m); err != nil {
				return 0, err
			}
			c.cache[key] = w
		}
		foldWorst(ind, w)
	}
	mer := map[string]worst{}
	for _, m := range merged {
		w, err := modeWorst(c.g, m)
		if err != nil {
			return 0, err
		}
		foldWorst(mer, w)
	}
	return conformity(ind, mer), nil
}

// signoff times sign-off STA (sta.NewContext + AnalyzeEndpoints, one
// worker) over a result's merged modes into the shard: the time of each
// repeat and of its analysis part. A forced collection first keeps a
// collection of the rest of the heap from landing in the timed repeats.
func (sh *shard) signoff(g *graph.Graph, merged []*sdc.Mode) error {
	var totals, analyses []float64
	runtime.GC()
	var start time.Time
	for rep := 0; rep < signoffWarmup+signoffMaxReps; rep++ {
		if rep == signoffWarmup {
			start = time.Now()
		}
		timed := len(totals)
		if timed >= signoffMinReps && time.Since(start) >= signoffTime {
			break
		}
		var b, a time.Duration
		for _, m := range merged {
			t0 := time.Now()
			ctx, err := sta.NewContext(g, m, sta.Options{Workers: 1})
			if err != nil {
				return fmt.Errorf("sta context for %s: %w", m.Name, err)
			}
			t1 := time.Now()
			ctx.AnalyzeEndpoints(context.Background())
			b += t1.Sub(t0)
			a += time.Since(t1)
		}
		if rep < signoffWarmup {
			continue
		}
		analyses = append(analyses, a.Seconds())
		totals = append(totals, (b + a).Seconds())
	}
	sh.Signoff, sh.Analyze = totals, analyses
	return nil
}
