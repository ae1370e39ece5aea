package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// shard is what one process measured of a run: its cold start, its share
// of the window and the checks after it.
type shard struct {
	Setup      float64   `json:"setup_s"`
	Digest     string    `json:"digest"`
	Latencies  []float64 `json:"latencies_s"` // successful jobs only
	Reductions []float64 `json:"reductions_pct"`
	Attempted  int       `json:"attempted"`
	Failed     int       `json:"failed"`        // jobs that failed or failed a check
	Checks     int       `json:"failed_checks"` // all failed checks of a child
	Elapsed    float64   `json:"elapsed_s"`
	AllocBytes uint64    `json:"alloc_bytes"`
	Allocs     uint64    `json:"allocs"`
	Retained   uint64    `json:"retained_bytes"`
	Conformity float64   `json:"conformity_pct"` // lowest over Results results
	Results    int       `json:"results"`
	Signoff    []float64 `json:"signoff_s"`
	Analyze    []float64 `json:"signoff_analyze_s"`
	// On a traced run: the share's spans and its traced and untraced job
	// latencies.
	Spans    []span    `json:"spans,omitempty"`
	Traced   []float64 `json:"traced_s,omitempty"`
	Untraced []float64 `json:"untraced_s,omitempty"`
}

// runChild runs this binary once more as child n of the run, waits for it
// to exit and decodes its last output line into out.
func runChild(cfg runConfig, n int, out *shard) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", cfg.name, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.Itoa(cfg.seconds), "-trace", trace, "-child", strconv.Itoa(n))
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("running %s: %w", cmd, err)
	}
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], out); err != nil {
		return fmt.Errorf("child output: %w", err)
	}
	return nil
}
