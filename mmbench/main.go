// Command mmbench is the repository benchmark. It runs one closed-loop
// workload against the program's public entry points, checks every output,
// and prints one JSON result line:
//
//	mmbench -workload cli-flat7k -seed 1 -seconds 24 -trace 0
//
// Workloads (see README.md for why each exists):
//
//	cli-flat7k     the cmd/modemerge flow in-process on a 7,332-cell design
//	fabric-cold95  /v2/merge over loopback to a coordinator with one fabric
//	               worker, 95 modes per job, a fresh design every job
//	serve-ci       two clients replaying a seeded CI job sequence (cached
//	               resubmits and one-mode edits) against a solo server
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1
// it carries the per-layer metrics derived from spans the benchmark records
// around each layer's public calls, and the spans are written under -out.
// The exit code is nonzero when any output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// procs pins GOMAXPROCS; every worker and parallelism setting below is
// pinned to at most this many as well.
const procs = 2

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what one workload run needs from the command line.
type runConfig struct {
	name    string
	seed    int64
	seconds int
	trace   bool
	outDir  string
}

// shares is how many processes a run spreads over: its own and
// shares-1 children, run one after another. Each cold-starts the program
// and measures its share of the window, so that how fast one process
// happens to run weighs a third.
const shares = 3

// share is the part of the measured window one process runs.
func (c runConfig) share() time.Duration {
	return time.Duration(c.seconds) * time.Second / shares
}

// workload is one benchmark workload.
type workload struct {
	// coldStart builds the program's state from nothing and completes the
	// first validated job, returning its duration and a digest of its
	// output.
	coldStart func(seed int64) (setupRun, error)
	// measure runs share n of the measured window in this process after
	// its cold start, checks the outputs into rep, and returns what it
	// measured. Share 0 runs in the run's own process; on a traced run it
	// also sets the per-layer metrics that do not come from spans.
	measure func(cfg runConfig, n int, cold setupRun, rep *report) (*shard, error)
	// layers maps per-layer time metrics to the span names they sum.
	layers map[string]string
}

// setupRun is one cold start: its time, its output digest, and the live
// state the share continues with.
type setupRun struct {
	Seconds float64
	Digest  string
	state   any
}

var workloads = map[string]workload{
	"cli-flat7k":    cliWorkload,
	"fabric-cold95": fabricWorkload,
	"serve-ci":      serveWorkload,
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name      = flag.String("workload", "", "workload name")
		seed      = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds   = flag.Int("seconds", 30, "measured window in seconds (serve-ci runs its fixed job sequences instead)")
		traceFlag = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
		outDir    = flag.String("out", ".bench_build", "directory for span dumps")
		child     = flag.Int("child", 0, "internal: run share n of the window as a child process")
	)
	flag.Parse()
	runtime.GOMAXPROCS(procs)

	w, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "mmbench: unknown workload %q (have %v)\n", *name, names)
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "mmbench: -trace must be 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "mmbench: -seconds must be at least 1")
		return 2
	}
	cfg := runConfig{name: *name, seed: *seed, seconds: *seconds, trace: *traceFlag == 1, outDir: *outDir}

	rep := newReport()
	own, err := measureShare(w, cfg, *child, rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmbench:", err)
		return 1
	}
	if *child > 0 {
		own.Checks = rep.checks.failed
		return printJSON(own)
	}
	shards := []*shard{own}
	for n := 1; n < shares; n++ {
		var c shard
		if err := runChild(cfg, n, &c); err != nil {
			rep.checks.fail("share %d: %v", n, err)
			continue
		}
		if c.Digest != own.Digest {
			rep.checks.fail("share %d: first job output differs from the run's", n)
		}
		rep.checks.count(c.Checks)
		shards = append(shards, &c)
	}
	rep.fillEndToEnd(shards)
	if cfg.trace {
		if err := rep.fillTrace(shards, w.layers, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "mmbench:", err)
			return 1
		}
	}
	info := rep.info
	info["workload"] = *name
	info["seed"] = *seed
	info["nproc"] = runtime.NumCPU()
	info["gomaxprocs"] = runtime.GOMAXPROCS(0)
	info["go"] = runtime.Version()
	if rc := printJSON(info); rc != 0 {
		return rc
	}
	res := rep.result(cfg.trace)
	if rc := printJSON(res); rc != 0 {
		return rc
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "mmbench: %d output check(s) failed\n", rep.checks.failed)
		return 1
	}
	return 0
}

// measureShare cold-starts the program and measures share n.
func measureShare(w workload, cfg runConfig, n int, rep *report) (*shard, error) {
	cold, err := w.coldStart(cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("cold start: %w", err)
	}
	sh, err := w.measure(cfg, n, cold, rep)
	if err != nil {
		return nil, err
	}
	sh.Setup, sh.Digest = cold.Seconds, cold.Digest
	return sh, nil
}

func printJSON(v any) int {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmbench: encoding output:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}
