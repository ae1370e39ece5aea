// Command modemerge merges SDC timing modes of a gate-level design into
// superset modes using the timing-graph based algorithm:
//
//	modemerge -v design.v [-top top] [-lib cells.mlf] -o merged_dir mode1.sdc mode2.sdc ...
//
// Mergeability is analyzed first; each merge clique produces one merged
// SDC file in the output directory, together with a merge report. Modes
// that cannot merge with anything are copied through unchanged.
//
// The merge and -validate share one in-memory incremental cache. With
// -cache-dir, sub-merge products (pairwise mergeability verdicts and
// whole-clique merge artifacts) also persist across runs, so re-running
// after editing one mode of N redoes only that mode's share of the work.
//
// With -hier, the netlist is loaded hierarchically (top + block
// modules) and each clique merges per block through extracted timing
// models — never optimistic relative to a flat merge, and feasible on
// designs too large for flat refinement.
//
// With -corners corners.json, the merge spans a multi-corner scenario
// matrix: the JSON file holds an array of corners ({"name": ...,
// "delay_scale": ..., "early_scale": ..., "late_scale": ...,
// "margin_scale": ..., "sdc": ...}; zero factors mean 1.0, and any other
// field is an error, as in the service's corner objects), a clique
// merges only when mergeable in every corner, refinement targets the
// across-corner worst case, and each merged mode additionally writes
// one deployment file per corner (<name>@<corner>.sdc — the merged
// text plus the corner's SDC overlay).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"modemerge/pkg/modemerge"
)

func main() {
	var (
		verilog   = flag.String("v", "", "structural Verilog netlist (required)")
		top       = flag.String("top", "", "top module name (default: inferred)")
		libFile   = flag.String("lib", "", "cell library in mini library format (default: built-in)")
		outDir    = flag.String("o", "merged", "output directory for merged SDC files")
		tolerance = flag.Float64("tolerance", 0.05, "relative tolerance for clock/drive/load constraint merging")
		workers   = flag.Int("workers", 0, "worker count (0 = all cores)")
		jobs      = flag.Int("j", 0, "intra-merge parallelism: bounds the parallel relation fills, endpoint loops and pairwise mergeability analysis; output is byte-identical for any value (0 = all cores, 1 = sequential)")
		validate  = flag.Bool("validate", true, "run the equivalence check on each merged mode")
		quiet     = flag.Bool("q", false, "suppress progress output")
		explain   = flag.Bool("explain", false, "print an explain report per merged mode and write <name>.explain.{txt,json} beside the SDC output")
		timeout   = flag.Duration("timeout", 0, "abort the whole run after this duration (0 = no limit); exits with code 3 on deadline")
		cacheDir  = flag.String("cache-dir", "", "incremental re-merge cache directory: persists sub-merge products across runs (empty = no reuse across runs)")
		hier      = flag.Bool("hier", false, "treat the netlist as hierarchical (top + block modules) and merge per block through extracted timing models; output is never optimistic relative to a flat merge and scales past flat refinement")
		corners   = flag.String("corners", "", "JSON corner-set file spanning a multi-corner scenario matrix; writes one <name>@<corner>.sdc deployment per merged mode and corner")
	)
	flag.Parse()
	if *verilog == "" || flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if err := run(ctx, *verilog, *top, *libFile, *outDir, *cacheDir, *corners, *tolerance, *workers, *jobs, *validate, *quiet, *explain, *hier, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "modemerge:", err)
		if errors.Is(err, context.DeadlineExceeded) {
			os.Exit(3)
		}
		os.Exit(1)
	}
}

// loadCorners reads and validates a -corners JSON file. Its corner
// objects are the service API's, so one corner-set file serves both, and
// like the service it rejects unknown fields: a misspelled one would
// otherwise leave that corner at nominal delays without a word.
func loadCorners(path string) ([]modemerge.Corner, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []modemerge.Corner
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&out); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("%s: trailing data after the corner list", path)
	}
	if err := modemerge.ValidateCorners(out); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

func run(ctx context.Context, verilog, top, libFile, outDir, cacheDir, cornersFile string, tolerance float64, workers, jobs int, validate, quiet, explain, hier bool, sdcFiles []string) error {
	libSrc := ""
	if libFile != "" {
		data, err := os.ReadFile(libFile)
		if err != nil {
			return err
		}
		libSrc = string(data)
	}
	vsrc, err := os.ReadFile(verilog)
	if err != nil {
		return err
	}
	var design *modemerge.Design
	if hier {
		design, err = modemerge.LoadHierDesign(string(vsrc), libSrc, top)
	} else {
		design, err = modemerge.LoadDesign(string(vsrc), libSrc, top)
	}
	if err != nil {
		return err
	}
	if warnings := design.Warnings(); len(warnings) > 0 && !quiet {
		for _, w := range warnings {
			fmt.Fprintln(os.Stderr, "warning:", w)
		}
	}
	if !quiet {
		s := design.Stats()
		fmt.Fprintf(os.Stderr, "design %s: %d cells (%d sequential), %d nets, %d ports\n",
			design.Name(), s.Cells, s.Sequential, s.Nets, s.Ports)
	}

	var modes []*modemerge.Mode
	for _, f := range sdcFiles {
		src, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		name := strings.TrimSuffix(filepath.Base(f), filepath.Ext(f))
		mode, ignored, err := design.ParseMode(name, string(src))
		if err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		if len(ignored) > 0 && !quiet {
			fmt.Fprintf(os.Stderr, "%s: ignored commands: %s\n", f, strings.Join(dedup(ignored), ", "))
		}
		modes = append(modes, mode)
	}

	opt := modemerge.Options{Tolerance: tolerance, Parallelism: jobs, Workers: workers, Hierarchical: hier}
	if cornersFile != "" {
		crns, err := loadCorners(cornersFile)
		if err != nil {
			return fmt.Errorf("corners: %w", err)
		}
		opt.Corners = crns
		if !quiet {
			names := make([]string, len(crns))
			for i, c := range crns {
				names[i] = c.Name
			}
			fmt.Fprintf(os.Stderr, "scenario matrix: %d modes x %d corners (%s)\n",
				len(sdcFiles), len(crns), strings.Join(names, ", "))
		}
	}
	// The merge and -validate share one in-memory cache, so the check
	// reuses the merge's analysis contexts instead of rebuilding them.
	opt.Cache = modemerge.NewCache(0)
	if cacheDir != "" {
		if err := opt.Cache.WithDisk(cacheDir); err != nil {
			return fmt.Errorf("cache dir: %w", err)
		}
	}
	merged, reports, mb, err := modemerge.MergeAll(ctx, design, modes, opt)
	if err != nil {
		return err
	}
	cliques := mb.Cliques()
	if !quiet {
		fmt.Fprint(os.Stderr, modemerge.FormatMergeability(mb, cliques))
		fmt.Fprintf(os.Stderr, "%d modes -> %d merged modes\n", len(modes), len(merged))
		cs := opt.Cache.Stats()
		fmt.Fprintf(os.Stderr, "cache: pair %d/%d hits, clique %d/%d hits\n",
			cs.PairHits, cs.PairHits+cs.PairMisses, cs.CliqueHits, cs.CliqueHits+cs.CliqueMisses)
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	for i, m := range merged {
		path := filepath.Join(outDir, sanitize(m.Name)+".sdc")
		text := modemerge.WriteSDC(m)
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			return err
		}
		// Each merged mode deploys once per corner: the merged base text
		// with the corner's overlay appended — one cell of the reduced
		// scenario matrix.
		for _, crn := range opt.Corners {
			dpath := filepath.Join(outDir, sanitize(m.Name)+"@"+sanitize(crn.Name)+".sdc")
			if err := os.WriteFile(dpath, []byte(crn.Deploy(text)), 0o644); err != nil {
				return err
			}
		}
		rep := reports[i]
		if !quiet {
			fmt.Fprintf(os.Stderr, "wrote %s (uniquified=%d dropped=%d refinement FPs=%d stops=%d)\n",
				path, rep.UniquifiedExceptions, rep.DroppedExceptions,
				rep.AddedFalsePaths+rep.LaunchBlocks, rep.ClockStops)
			for _, w := range rep.Warnings {
				fmt.Fprintln(os.Stderr, "  warning:", w)
			}
		}
		if explain {
			exp := rep.Explain(m.Name)
			text := exp.Text()
			fmt.Print(text)
			base := filepath.Join(outDir, sanitize(m.Name))
			if err := os.WriteFile(base+".explain.txt", []byte(text), 0o644); err != nil {
				return err
			}
			data, err := json.MarshalIndent(exp, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(base+".explain.json", append(data, '\n'), 0o644); err != nil {
				return err
			}
		}
	}

	if validate {
		ok := true
		for ci, clique := range cliques {
			if len(clique) < 2 {
				continue
			}
			group := make([]*modemerge.Mode, len(clique))
			for i, mi := range clique {
				group[i] = modes[mi]
			}
			res, err := modemerge.CheckEquivalence(ctx, design, group, merged[ci], opt)
			if err != nil {
				return err
			}
			status := "OK"
			if !res.Equivalent() {
				status = "FAILED"
				ok = false
			}
			fmt.Printf("validation %s: %s (%s)\n", merged[ci].Name, status, res)
			for _, m := range res.OptimisticMismatches {
				fmt.Printf("  optimistic: %s\n", m)
			}
		}
		if !ok {
			return fmt.Errorf("equivalence validation failed")
		}
	}
	return nil
}

func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-', r == '+':
			return r
		default:
			return '_'
		}
	}, name)
}

func dedup(in []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
