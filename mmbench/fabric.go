package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"modemerge/internal/core"
	"modemerge/internal/graph"
	"modemerge/internal/library"
	"modemerge/internal/netlist"
	"modemerge/internal/sdc"
	"modemerge/internal/service"
)

// fabric-cold95: one client POSTs /v2/merge to a coordinator that runs no
// merges itself; one fabric worker joined over loopback HTTP merges every
// multi-mode clique. Each job is a fresh design of the paper's design-A
// family (824 cells, 95 modes → 16) and meets a freshly joined worker, so
// no context or clique cache can answer it.
var fabricWorkload = workload{coldStart: fabricColdStart, measure: fabricMeasure, layers: serviceLayers}

// fabricPool bounds the jobs of one share: inputs are generated before
// the window, and a share that uses them all fails.
const fabricPool = 20

var fabricConfig = service.Config{
	Workers:          1,
	MergeParallelism: procs,
	Fabric: service.FabricConfig{
		Enabled:        true,
		LocalExecutors: -1, // every multi-mode clique crosses the wire
		DispatchWidth:  8,
	},
}

// fabricDesign is the input of job i of a run with the given seed.
func fabricDesign(seed int64, i int) (*designText, error) {
	return generateDesign("A", seed*1000+int64(i))
}

type fabricState struct {
	stack *stack
	wire  *wireRecorder
}

func fabricColdStart(seed int64) (setupRun, error) {
	in, err := fabricDesign(seed, 0)
	if err != nil {
		return setupRun{}, err
	}
	body, err := mergeRequest(in)
	if err != nil {
		return setupRun{}, err
	}
	wire := &wireRecorder{}
	// The worker's artifact store client uses the default transport; route
	// it through the recorder too so blob calls are traced.
	http.DefaultTransport = wire.wrap(http.DefaultTransport)

	start := time.Now()
	st, err := startStack(fabricConfig, wire)
	if err != nil {
		return setupRun{}, err
	}
	o, err := st.job(body)
	elapsed := time.Since(start)
	if err == nil {
		err = o.res.check(len(in.modes))
	}
	if err != nil {
		st.close()
		return setupRun{}, fmt.Errorf("first job: %w", err)
	}
	return setupRun{Seconds: elapsed.Seconds(), Digest: digest(o.res.texts()),
		state: &fabricState{stack: st, wire: wire}}, nil
}

// fabricDone is one finished window job, kept for the checks after the
// window.
type fabricDone struct {
	in  *designText
	res mergeResult
}

func fabricMeasure(cfg runConfig, n int, cold setupRun, rep *report) (*shard, error) {
	fs := cold.state.(*fabricState)
	st := fs.stack
	defer st.close()

	// Each share merges designs of its own.
	bodies := make([][]byte, fabricPool)
	inputs := make([]*designText, fabricPool)
	for i := range bodies {
		in, err := fabricDesign(cfg.seed, 1+n*fabricPool+i)
		if err != nil {
			return nil, err
		}
		if bodies[i], err = mergeRequest(in); err != nil {
			return nil, err
		}
		inputs[i] = in
	}
	rep.info["cells"] = inputs[0].cells
	rep.info["modes"] = len(inputs[0].modes)

	var tr *tracer
	if cfg.trace {
		tr = &tracer{}
	}
	stats0, cluster0, err := st.stats()
	if err != nil {
		return nil, err
	}
	sh := &shard{}
	var done []fabricDone
	var cliques []float64
	bytes0, allocs0 := memCounters()
	start := time.Now()
	for i := 0; i < fabricPool && time.Since(start) < cfg.share(); i++ {
		job := i + 1
		// Every job meets a fresh worker; see restartWorker.
		if err := st.restartWorker(); err != nil {
			return nil, err
		}
		traceIt := tr != nil && job%2 == 0
		if traceIt {
			fs.wire.setJob(job)
		}
		sh.Attempted++
		o, err := st.job(bodies[i])
		fs.wire.setJob(0)
		if err == nil {
			err = o.res.check(len(inputs[i].modes))
		}
		if err != nil {
			rep.checks.fail("job %d: %v", job, err)
			sh.Failed++
			continue
		}
		sh.Latencies = append(sh.Latencies, o.latency())
		sh.Reductions = append(sh.Reductions, reduction(len(inputs[i].modes), len(o.res.Merged)))
		done = append(done, fabricDone{in: inputs[i], res: o.res})
		if !traceIt {
			if tr != nil {
				sh.Untraced = append(sh.Untraced, o.latency())
			}
			continue
		}
		sh.Traced = append(sh.Traced, o.latency())
		spans, got := fs.wire.take(job)
		cliques = append(cliques, float64(got))
		if err := st.traceJob(tr, job, o, spans); err != nil {
			return nil, err
		}
	}
	sh.Elapsed = time.Since(start).Seconds()
	bytes1, allocs1 := memCounters()
	sh.AllocBytes, sh.Allocs = bytes1-bytes0, allocs1-allocs0
	sh.Retained = retainedHeap()
	if sh.Attempted == fabricPool {
		return nil, fmt.Errorf("all %d inputs used before the window ended", fabricPool)
	}
	stats1, cluster1, err := st.stats()
	if err != nil {
		return nil, err
	}
	// The checks after the window need no server; stopping it lets its
	// caches go before sign-off STA is timed.
	st.close()
	if len(done) == 0 {
		return nil, fmt.Errorf("no job succeeded")
	}

	// Outside the window: the first job against a solo merge of the same
	// inputs, and every result's conformity.
	g, modes, err := parseDesign(done[0].in)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		if err := compareSolo(g, modes, &done[0].res); err != nil {
			rep.checks.fail("fabric result vs solo core.MergeAll: %v", err)
		}
	}
	sh.Conformity, sh.Results = 100, len(done)
	for i, d := range done {
		dg, dmodes := g, modes
		if i > 0 {
			if dg, dmodes, err = parseDesign(d.in); err != nil {
				return nil, err
			}
		}
		merged, err := parseMerged(dg.Design, &d.res)
		if err != nil {
			return nil, err
		}
		c, err := newConformityChecker(dg).check(dmodes, merged)
		if err != nil {
			return nil, err
		}
		sh.Conformity = min(sh.Conformity, c)
	}
	merged, err := parseMerged(g.Design, &done[0].res)
	if err != nil {
		return nil, err
	}
	if err := sh.signoff(g, merged); err != nil {
		return nil, err
	}

	if tr != nil {
		sh.Spans = tr.snapshot()
		rep.fillServiceRatios(stats0, stats1)
		rep.setLayer("fabric.cliques_per_job", median(cliques))
		rep.setLayer("fabric.retries", float64(cluster1.Retries-cluster0.Retries))
	}
	return sh, nil
}

// parseDesign parses a design's netlist and modes the way the service
// does.
func parseDesign(d *designText) (*graph.Graph, []*sdc.Mode, error) {
	design, err := netlist.ParseVerilog(d.verilog, library.Default(), "")
	if err != nil {
		return nil, nil, err
	}
	if _, err := design.Validate(); err != nil {
		return nil, nil, err
	}
	g, err := graph.Build(design)
	if err != nil {
		return nil, nil, err
	}
	modes, err := parseModes(design, d)
	return g, modes, err
}

// parseModes parses a design's mode texts against an already parsed
// netlist.
func parseModes(design *netlist.Design, d *designText) ([]*sdc.Mode, error) {
	modes := make([]*sdc.Mode, len(d.modes))
	for i, m := range d.modes {
		var err error
		if modes[i], _, err = sdc.Parse(m.Name, m.Text, design); err != nil {
			return nil, fmt.Errorf("mode %s: %w", m.Name, err)
		}
	}
	return modes, nil
}

// parseMerged parses a result's merged SDC texts.
func parseMerged(design *netlist.Design, r *mergeResult) ([]*sdc.Mode, error) {
	out := make([]*sdc.Mode, len(r.Merged))
	for i, m := range r.Merged {
		var err error
		if out[i], _, err = sdc.Parse(m.Name, m.SDC, design); err != nil {
			return nil, fmt.Errorf("merged mode %s: %w", m.Name, err)
		}
	}
	return out, nil
}

// compareSolo merges the modes with core.MergeAll in this process and
// requires the service's merged SDC to be byte-identical.
func compareSolo(g *graph.Graph, modes []*sdc.Mode, r *mergeResult) error {
	merged, _, _, err := core.MergeAll(context.Background(), g, modes, core.Options{Parallelism: procs})
	if err != nil {
		return err
	}
	if len(merged) != len(r.Merged) {
		return fmt.Errorf("%d merged modes, solo merge has %d", len(r.Merged), len(merged))
	}
	for i, m := range merged {
		if m.Name != r.Merged[i].Name || sdc.Write(m) != r.Merged[i].SDC {
			return fmt.Errorf("merged mode %d (%s) differs", i, r.Merged[i].Name)
		}
	}
	return nil
}
