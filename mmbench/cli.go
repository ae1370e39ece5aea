package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"modemerge/internal/core"
	"modemerge/internal/experiments"
	"modemerge/internal/gen"
	"modemerge/internal/graph"
	"modemerge/internal/library"
	"modemerge/internal/netlist"
	"modemerge/internal/sdc"
)

// cli-flat7k replays the cmd/modemerge flow in-process, one client, on a
// Table 5 design-E-shaped design (7,332 cells, 5 modes → 1). Every job
// repeats the same inputs, so every job must emit the same bytes.
var cliWorkload = workload{coldStart: cliColdStart, measure: cliMeasure, layers: map[string]string{
	"netlist.parse_s":     "netlist.parse",
	"graph.build_s":       "graph.build",
	"sdc.parse_s":         "sdc.parse",
	"sdc.write_s":         "sdc.write",
	"core.mergeability_s": "core.mergeability",
	"core.prelim_s":       "core.prelim",
	"core.clock_refine_s": "core.clock_refine",
	"core.data_refine_s":  "core.data_refine",
	"core.merge_s":        "core.merge",
	"core.equivalence_s":  "core.equivalence",
}}

// paperDesign returns the Table 5 design case with the given label, its
// generator seed replaced by seed.
func paperDesign(label string, seed int64) (experiments.DesignCase, error) {
	for _, c := range experiments.PaperDesigns(1) {
		if c.Label == label {
			c.Spec.Seed = seed
			return c, nil
		}
	}
	return experiments.DesignCase{}, fmt.Errorf("no paper design %q", label)
}

// designText is a generated design as the program's users hand it over:
// Verilog text and SDC mode texts, plus the generator's structural handles.
type designText struct {
	verilog string
	modes   []gen.ModeSDC
	cells   int
	gen     *gen.Generated
}

func generateDesign(label string, seed int64) (*designText, error) {
	c, err := paperDesign(label, seed)
	if err != nil {
		return nil, err
	}
	g, err := gen.Generate(c.Spec)
	if err != nil {
		return nil, err
	}
	return &designText{
		verilog: netlist.WriteVerilog(g.Design),
		modes:   g.Modes(c.Family),
		cells:   g.Design.Stats().Cells,
		gen:     g,
	}, nil
}

// cliOut is one cli job's output.
type cliOut struct {
	digest     string
	equivalent bool
	graph      *graph.Graph
	modes      []*sdc.Mode
	merged     []*sdc.Mode
}

// cliJob runs the whole flow on in: netlist parse + validate, graph
// build, SDC parse per mode, merge planning, one merge per clique, SDC
// emission and the equivalence check per merged clique.
func cliJob(in *designText, tr *tracer, job int) (*cliOut, error) {
	cx := context.Background()
	root := tr.open("job", job, 0, time.Now())
	defer func() { tr.close(root, time.Now()) }()
	out := &cliOut{equivalent: true}

	var design *netlist.Design
	err := tr.call("netlist.parse", job, root, func(int) error {
		var err error
		if design, err = netlist.ParseVerilog(in.verilog, library.Default(), ""); err != nil {
			return err
		}
		_, err = design.Validate()
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("netlist: %w", err)
	}
	if err := tr.call("graph.build", job, root, func(int) error {
		var err error
		out.graph, err = graph.Build(design)
		return err
	}); err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	for _, ms := range in.modes {
		if err := tr.call("sdc.parse", job, root, func(int) error {
			m, _, err := sdc.Parse(ms.Name, ms.Text, design)
			out.modes = append(out.modes, m)
			return err
		}); err != nil {
			return nil, fmt.Errorf("mode %s: %w", ms.Name, err)
		}
	}

	opt := core.Options{Parallelism: procs}
	// The core's own stage hook supplies the sub-stages of the current
	// core call; it runs on the calling goroutine, after each stage.
	var parent int
	if tr != nil {
		opt.StageHook = func(stage string, d time.Duration) {
			end := time.Now()
			tr.add("core."+stage, job, parent, end.Add(-d), end)
		}
	}
	var cliques [][]int
	if err := tr.call("core.plan", job, root, func(id int) error {
		parent = id
		var err error
		_, cliques, err = core.PlanMerge(out.graph, out.modes, opt)
		return err
	}); err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	groups := make([][]*sdc.Mode, len(cliques))
	for i, clique := range cliques {
		for _, mi := range clique {
			groups[i] = append(groups[i], out.modes[mi])
		}
		if err := tr.call("core.merge", job, root, func(id int) error {
			parent = id
			m, _, err := core.MergeClique(cx, out.graph, groups[i], opt)
			out.merged = append(out.merged, m)
			return err
		}); err != nil {
			return nil, fmt.Errorf("merge: %w", err)
		}
	}
	texts := make([]string, len(out.merged))
	for i, m := range out.merged {
		tr.call("sdc.write", job, root, func(int) error { //nolint:errcheck // never fails
			texts[i] = sdc.Write(m)
			return nil
		})
	}
	for i, group := range groups {
		if len(group) < 2 {
			continue
		}
		if err := tr.call("core.equivalence", job, root, func(id int) error {
			parent = id
			res, err := core.CheckEquivalence(cx, out.graph, group, out.merged[i], opt)
			if err == nil && !res.Equivalent() {
				out.equivalent = false
			}
			return err
		}); err != nil {
			return nil, fmt.Errorf("equivalence: %w", err)
		}
	}
	out.digest = digest(texts)
	return out, nil
}

func digest(texts []string) string {
	h := sha256.New()
	for _, t := range texts {
		fmt.Fprintf(h, "%d:%s", len(t), t)
	}
	return hex.EncodeToString(h.Sum(nil))
}

type cliState struct {
	in  *designText
	out *cliOut
}

func cliColdStart(seed int64) (setupRun, error) {
	in, err := generateDesign("E", seed)
	if err != nil {
		return setupRun{}, err
	}
	start := time.Now()
	out, err := cliJob(in, nil, 0)
	if err != nil {
		return setupRun{}, err
	}
	elapsed := time.Since(start)
	if !out.equivalent {
		return setupRun{}, fmt.Errorf("cold job: merged mode not equivalent")
	}
	return setupRun{Seconds: elapsed.Seconds(), Digest: out.digest, state: &cliState{in, out}}, nil
}

func cliMeasure(cfg runConfig, n int, cold setupRun, rep *report) (*shard, error) {
	st := cold.state.(*cliState)
	rep.info["cells"] = st.in.cells
	rep.info["modes"] = len(st.in.modes)
	var tr *tracer
	if cfg.trace {
		tr = &tracer{}
	}
	sh := &shard{}
	bytes0, allocs0 := memCounters()
	start := time.Now()
	for job := 1; time.Since(start) < cfg.share(); job++ {
		// A traced run traces every other job.
		jt := tr
		if job%2 == 1 {
			jt = nil
		}
		sh.Attempted++
		t0 := time.Now()
		out, err := cliJob(st.in, jt, job)
		lat := time.Since(t0).Seconds()
		switch {
		case err != nil:
			rep.checks.fail("job %d: %v", job, err)
			sh.Failed++
			continue
		case out.digest != cold.Digest:
			rep.checks.fail("job %d: merged SDC differs from the first job's", job)
			sh.Failed++
			continue
		case !out.equivalent:
			rep.checks.fail("job %d: merged mode not equivalent", job)
			sh.Failed++
			continue
		}
		sh.Latencies = append(sh.Latencies, lat)
		sh.Reductions = append(sh.Reductions, reduction(len(out.modes), len(out.merged)))
		if jt != nil {
			sh.Traced = append(sh.Traced, lat)
		} else if tr != nil {
			sh.Untraced = append(sh.Untraced, lat)
		}
	}
	sh.Elapsed = time.Since(start).Seconds()
	bytes1, allocs1 := memCounters()
	sh.AllocBytes, sh.Allocs = bytes1-bytes0, allocs1-allocs0
	sh.Retained = retainedHeap()

	conf, err := newConformityChecker(st.out.graph).check(st.out.modes, st.out.merged)
	if err != nil {
		return nil, err
	}
	sh.Conformity, sh.Results = conf, 1
	if err := sh.signoff(st.out.graph, st.out.merged); err != nil {
		return nil, err
	}

	sh.Spans = tr.snapshot()
	return sh, nil
}

// reduction is Table 5's mode reduction in percent.
func reduction(modes, merged int) float64 {
	if modes == 0 {
		return 0
	}
	return 100 * float64(modes-merged) / float64(modes)
}
