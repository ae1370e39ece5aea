package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
)

// endToEnd lists the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"job_p50_s", "s"},
	{"job_p90_s", "s"},
	{"jobs_per_s", "1/s"},
	{"ok_jobs_pct", "%"},
	{"mode_reduction_pct", "%"},
	{"conformity_pct", "%"},
	{"signoff_sta_s", "s"},
	{"alloc_mb_per_job", "MB"},
	{"allocs_per_job", "count"},
	{"retained_mb", "MB"},
}

// perLayer lists the metrics of a traced run. Every workload prints all
// of them; a layer the workload does not cross reads 0.
var perLayer = []struct{ name, unit string }{
	{"netlist.parse_s", "s"},
	{"graph.build_s", "s"},
	{"sdc.parse_s", "s"},
	{"sdc.write_s", "s"},
	{"core.mergeability_s", "s"},
	{"core.prelim_s", "s"},
	{"core.clock_refine_s", "s"},
	{"core.data_refine_s", "s"},
	{"core.merge_s", "s"},
	{"core.equivalence_s", "s"},
	{"sta.context_s", "s"},
	{"sta.analyze_s", "s"},
	{"netlist.parse_allocs", "count"},
	{"core.merge_allocs", "count"},
	{"core.equivalence_allocs", "count"},
	{"service.submit_s", "s"},
	{"service.wait_s", "s"},
	{"service.result_s", "s"},
	{"service.queue_wait_s", "s"},
	{"service.run_s", "s"},
	{"service.result_cache_hit_ratio", "ratio"},
	{"service.design_cache_hit_ratio", "ratio"},
	{"incr.ctx_hit_ratio", "ratio"},
	{"incr.pair_hit_ratio", "ratio"},
	{"incr.clique_hit_ratio", "ratio"},
	{"incr.mctx_hit_ratio", "ratio"},
	{"fabric.poll_wait_s", "s"},
	{"fabric.exec_s", "s"},
	{"fabric.complete_s", "s"},
	{"fabric.blob_s", "s"},
	{"fabric.cliques_per_job", "count"},
	{"fabric.retries", "count"},
	{"trace.job_p50_s", "s"},
	{"trace.overhead_s", "s"},
	{"trace.accounted_pct", "%"},
}

// checks counts failed output checks. Every failure is also reported on
// standard error.
type checks struct {
	mu     sync.Mutex
	failed int
}

// count adds n failures already reported elsewhere.
func (c *checks) count(n int) {
	c.mu.Lock()
	c.failed += n
	c.mu.Unlock()
}

func (c *checks) fail(format string, args ...any) {
	c.mu.Lock()
	c.failed++
	c.mu.Unlock()
	fmt.Fprintf(os.Stderr, "mmbench: check failed: "+format+"\n", args...)
}

// report collects what one run measured.
type report struct {
	checks    checks
	attempted int
	failed    int // jobs that failed, were refused or failed a check
	e2e       map[string]metric
	layer     map[string]metric
	info      map[string]any
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layer: map[string]metric{}, info: map[string]any{}}
}

func (r *report) result(trace bool) *result {
	list, got := endToEnd, r.e2e
	if trace {
		list, got = perLayer, r.layer
	}
	m := make(map[string]metric, len(list))
	for _, e := range list {
		v := got[e.name]
		m[e.name] = metric{Value: v.Value, Unit: e.unit}
	}
	return &result{Correct: r.checks.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}
}

func (r *report) setE2E(name string, v float64) { r.e2e[name] = metric{Value: v} }

func (r *report) setLayer(name string, v float64) { r.layer[name] = metric{Value: v} }

// memCounters samples the process-wide allocation counters.
func memCounters() (bytes, count uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.Mallocs
}

// retainedHeap forces a collection and returns the live heap in bytes.
func retainedHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// fillEndToEnd sets the end-to-end metrics from a run's shards.
func (r *report) fillEndToEnd(shards []*shard) {
	var setup, latencies, reductions, retained, signoff []float64
	var elapsed, allocBytes, allocs float64
	conformity, results := 100.0, 0
	for _, s := range shards {
		setup = append(setup, s.Setup)
		latencies = append(latencies, s.Latencies...)
		reductions = append(reductions, s.Reductions...)
		retained = append(retained, float64(s.Retained)/1e6)
		signoff = append(signoff, s.Signoff...)
		r.attempted += s.Attempted
		r.failed += s.Failed
		elapsed += s.Elapsed
		allocBytes += float64(s.AllocBytes)
		allocs += float64(s.Allocs)
		conformity = min(conformity, s.Conformity)
		results += s.Results
	}
	r.setE2E("setup_s", median(setup))
	r.setE2E("job_p50_s", quantile(latencies, 0.5))
	r.setE2E("job_p90_s", quantile(latencies, 0.9))
	if elapsed > 0 {
		r.setE2E("jobs_per_s", float64(len(latencies))/elapsed)
	}
	if r.attempted > 0 {
		r.setE2E("ok_jobs_pct", 100*float64(len(latencies))/float64(r.attempted))
		r.setE2E("alloc_mb_per_job", allocBytes/1e6/float64(r.attempted))
		r.setE2E("allocs_per_job", allocs/float64(r.attempted))
	}
	r.setE2E("mode_reduction_pct", median(reductions))
	r.setE2E("conformity_pct", conformity)
	r.setE2E("signoff_sta_s", median(signoff))
	r.setE2E("retained_mb", median(retained))
	r.info["jobs"] = r.attempted
	r.info["window_s"] = elapsed
	r.info["setup_samples_s"] = setup
	r.info["retained_mb_per_share"] = retained
	r.info["conformity_results"] = results
}

// fillTrace sets the per-layer metrics derived from the shards' spans
// and writes the spans out. Each time metric is the median, over the jobs
// in which the layer appears, of the layer's self time in the job.
func (r *report) fillTrace(shards []*shard, layers map[string]string, cfg runConfig) error {
	all := &tracer{}
	var analyzeSTA, traced, untraced []float64
	for n, sh := range shards {
		// Ids and job numbers restart in every share; shift them apart.
		offset := len(all.spans)
		for _, sp := range sh.Spans {
			sp.ID += offset
			if sp.Parent != 0 {
				sp.Parent += offset
			}
			sp.Job += n * 1_000_000
			all.spans = append(all.spans, sp)
		}
		analyzeSTA = append(analyzeSTA, sh.Analyze...)
		traced = append(traced, sh.Traced...)
		untraced = append(untraced, sh.Untraced...)
	}
	lt := analyze(all.spans)
	for metricName, spanName := range layers {
		r.setLayer(metricName, median(lt.self[spanName]))
	}
	r.setLayer("netlist.parse_allocs", median(lt.allocs["netlist.parse"]))
	r.setLayer("core.merge_allocs", median(lt.allocs["core.merge"]))
	r.setLayer("core.equivalence_allocs", median(lt.allocs["core.equivalence"]))
	r.setLayer("sta.analyze_s", median(analyzeSTA))
	r.setLayer("trace.accounted_pct", median(lt.accounted))
	// Every other job is traced, so the untraced ones in between give
	// the tracing overhead under the same conditions.
	r.setLayer("trace.job_p50_s", quantile(traced, 0.5))
	r.setLayer("trace.overhead_s", quantile(traced, 0.5)-quantile(untraced, 0.5))
	r.info["traced_jobs"] = len(traced)
	r.info["untraced_jobs"] = len(untraced)
	path, err := all.write(cfg.outDir, cfg.name, cfg.seed)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	r.info["spans"] = path
	return nil
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics; it returns 0
// for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// ratio returns hits/(hits+misses), 0 when nothing was looked up.
func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}
