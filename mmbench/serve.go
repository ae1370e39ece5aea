package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"modemerge/internal/gen"
	"modemerge/internal/service"
)

// serve-ci: two clients POST /v2/merge to a solo server, replaying a
// seeded CI job sequence on the paper's design C (1,468 cells, 12 modes →
// 1). Per client, every fourth job is a one-mode edit (one seeded
// constraint added to one mode) and the three jobs after it resubmit,
// byte for byte, a request that client already completed. The design is
// fixed; the workload seed picks the edits and the resubmits.
var serveWorkload = workload{coldStart: serveColdStart, measure: serveMeasure, layers: serviceLayers}

const (
	serveClients = 2
	// serveEdits is the number of edits in one share's sequence; a share
	// has four times as many jobs. Each edit leaves live heap in the
	// server's caches, so the sequence is fixed rather than timed.
	serveEdits = 64
)

var serveConfig = service.Config{Workers: 2, MergeParallelism: 1}

type serveState struct {
	stack *stack
	base  *designText
	body  []byte
	first *jobOut
}

// serveDesignSeed is the generator seed of the paper's design C.
const serveDesignSeed = 0xC

func serveColdStart(seed int64) (setupRun, error) {
	base, err := generateDesign("C", serveDesignSeed)
	if err != nil {
		return setupRun{}, err
	}
	body, err := mergeRequest(base)
	if err != nil {
		return setupRun{}, err
	}
	start := time.Now()
	st, err := startStack(serveConfig, nil)
	if err != nil {
		return setupRun{}, err
	}
	o, err := st.job(body)
	elapsed := time.Since(start)
	if err == nil {
		err = o.res.check(len(base.modes))
	}
	if err != nil {
		st.close()
		return setupRun{}, fmt.Errorf("first job: %w", err)
	}
	return setupRun{Seconds: elapsed.Seconds(), Digest: digest(o.res.texts()),
		state: &serveState{stack: st, base: base, body: body, first: o}}, nil
}

// serveReq is one request of the sequence.
type serveReq struct {
	design *designText
	body   []byte
}

// serveJob is one job of a client's sequence: an edit, or (edit nil) a
// resubmit of the request at position resubmit of the client's history.
type serveJob struct {
	edit     *serveReq
	resubmit int
}

// serveSequence builds each client's job list from the seed.
func serveSequence(seed int64, base *designText) ([][]serveJob, error) {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	seqs := make([][]serveJob, serveClients)
	for e := 0; e < serveEdits; e++ {
		c := e % serveClients
		var d *designText
		for d == nil {
			// Modes and edit kinds take turns so that every run edits
			// the same mix; the seed picks the registers.
			mi := e % len(base.modes)
			line := editLine(base.gen, rng, e)
			key := fmt.Sprintf("%d\x00%s", mi, line)
			if seen[key] {
				continue
			}
			seen[key] = true
			d = &designText{verilog: base.verilog, cells: base.cells}
			d.modes = append(d.modes, base.modes...)
			d.modes[mi].Text += line + "\n"
		}
		body, err := mergeRequest(d)
		if err != nil {
			return nil, err
		}
		// Position 0 of every client's history is the base request.
		edits := len(seqs[c])/4 + 1
		seqs[c] = append(seqs[c], serveJob{edit: &serveReq{design: d, body: body}})
		for r := 0; r < 3; r++ {
			seqs[c] = append(seqs[c], serveJob{resubmit: rng.Intn(edits + 1)})
		}
	}
	return seqs, nil
}

// editLine draws the e-th ECO constraint: by turns a register-to-register
// false path, a multicycle path or a false path from one register.
func editLine(g *gen.Generated, rng *rand.Rand, e int) string {
	pick := func() (string, string) {
		d := rng.Intn(len(g.BlockLastRegs))
		b := rng.Intn(len(g.BlockLastRegs[d]))
		return g.BlockLastRegs[d][b], g.BlockFirstRegs[d][b]
	}
	from, _ := pick()
	switch e % 3 {
	case 0:
		_, to := pick()
		return fmt.Sprintf("set_false_path -from [get_pins %s/CP] -to [get_pins %s/D]", from, to)
	case 1:
		return fmt.Sprintf("set_multicycle_path %d -setup -from [get_pins %s/CP]", 2+rng.Intn(3), from)
	default:
		return fmt.Sprintf("set_false_path -from [get_pins %s/CP]", from)
	}
}

// serveDone is one finished job.
type serveDone struct {
	out  *jobOut
	req  *serveReq
	edit bool
}

func serveMeasure(cfg runConfig, n int, cold setupRun, rep *report) (*shard, error) {
	ss := cold.state.(*serveState)
	defer ss.stack.close()
	rep.info["cells"] = ss.base.cells
	rep.info["modes"] = len(ss.base.modes)
	rep.info["edits_per_share"] = serveEdits

	var tr *tracer
	if cfg.trace {
		tr = &tracer{}
	}
	// Each share replays a sequence of its own on its own server, so that
	// memory stays bounded by one sequence's edits.
	seqs, err := serveSequence(cfg.seed*shares+int64(n), ss.base)
	if err != nil {
		return nil, err
	}
	sh := &shard{}
	base := serveDone{out: ss.first, req: &serveReq{design: ss.base, body: ss.body}}
	done, stats, err := runSequences(ss.stack, seqs, &base, tr, sh, rep)
	if err != nil {
		return nil, err
	}
	// The checks after the sequence need no server; stopping it lets its
	// caches go before sign-off STA is timed.
	ss.stack.close()

	// Outside the window: conformity of every distinct result, and
	// sign-off STA on the base result.
	g, _, err := parseDesign(ss.base)
	if err != nil {
		return nil, err
	}
	cc := newConformityChecker(g)
	results := []serveDone{base}
	for _, d := range done {
		if d.edit {
			results = append(results, d)
		}
	}
	sh.Conformity, sh.Results = 100, len(results)
	for _, d := range results {
		modes, err := parseModes(g.Design, d.req.design)
		if err != nil {
			return nil, err
		}
		merged, err := parseMerged(g.Design, &d.out.res)
		if err != nil {
			return nil, err
		}
		c, err := cc.check(modes, merged)
		if err != nil {
			return nil, err
		}
		sh.Conformity = min(sh.Conformity, c)
	}
	merged, err := parseMerged(g.Design, &ss.first.res)
	if err != nil {
		return nil, err
	}
	if err := sh.signoff(g, merged); err != nil {
		return nil, err
	}

	if tr != nil {
		sh.Spans = tr.snapshot()
		rep.fillServiceRatios(stats[0], stats[1])
	}
	return sh, nil
}

// runSequences runs the client sequences on st concurrently, adds the
// jobs to sh and returns them with /v2/stats before and after. base is the
// already completed base request.
func runSequences(st *stack, seqs [][]serveJob, base *serveDone, tr *tracer, sh *shard,
	rep *report) ([]serveDone, [2]serviceStats, error) {
	var done []serveDone
	var stats [2]serviceStats
	var err error
	if stats[0], _, err = st.stats(); err != nil {
		return nil, stats, err
	}
	var mu sync.Mutex
	var traceErr error
	bytes0, allocs0 := memCounters()
	start := time.Now()
	var wg sync.WaitGroup
	for c, seq := range seqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// history[k] is the k-th request this client completed: the
			// base request, then its edits in order.
			history := []serveDone{*base}
			for k, j := range seq {
				job := 1 + c + len(seqs)*k
				req, want := j.edit, []byte(nil)
				if req == nil {
					h := history[min(j.resubmit, len(history)-1)]
					req, want = h.req, h.out.body
				}
				o, err := st.job(req.body)
				if err == nil {
					err = o.res.check(len(req.design.modes))
				}
				if err == nil && want != nil && !bytes.Equal(o.body, want) {
					err = fmt.Errorf("resubmit result differs from the original result")
				}
				mu.Lock()
				sh.Attempted++
				if err != nil {
					rep.checks.fail("job %d: %v", job, err)
					sh.Failed++
					mu.Unlock()
					continue
				}
				d := serveDone{out: o, req: req, edit: j.edit != nil}
				sh.Latencies = append(sh.Latencies, o.latency())
				sh.Reductions = append(sh.Reductions, reduction(len(req.design.modes), len(o.res.Merged)))
				done = append(done, d)
				// A traced run traces every other edit and its resubmits.
				traceIt := tr != nil && (k/4)%2 == 1
				if traceIt {
					sh.Traced = append(sh.Traced, o.latency())
				} else if tr != nil {
					sh.Untraced = append(sh.Untraced, o.latency())
				}
				mu.Unlock()
				if d.edit {
					history = append(history, d)
				}
				if traceIt {
					if err := st.traceJob(tr, job, o, nil); err != nil {
						mu.Lock()
						traceErr = err
						mu.Unlock()
					}
				}
			}
		}()
	}
	wg.Wait()
	sh.Elapsed = time.Since(start).Seconds()
	bytes1, allocs1 := memCounters()
	sh.AllocBytes, sh.Allocs = bytes1-bytes0, allocs1-allocs0
	sh.Retained = retainedHeap()
	if traceErr != nil {
		return nil, stats, traceErr
	}
	stats[1], _, err = st.stats()
	return done, stats, err
}
