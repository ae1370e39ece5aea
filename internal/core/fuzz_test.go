package core

import (
	"context"
	"testing"

	"modemerge/internal/gen"
	"modemerge/internal/graph"
	"modemerge/internal/sdc"
)

// FuzzDecodeCliqueArtifact feeds arbitrary bytes to the clique artifact
// decoder, the one /fabric/v1 payload decoded beyond plain JSON (it
// re-parses the merged SDC against the design). Decoding must never
// panic, and an accepted artifact must re-encode to bytes that decode to
// the same SDC text.
func FuzzDecodeCliqueArtifact(f *testing.F) {
	gd, err := gen.Generate(gen.DesignSpec{Name: "fz", Seed: 101, Domains: 1, BlocksPerDomain: 2,
		Stages: 2, RegsPerStage: 2, CloudDepth: 1, CrossPaths: 1, IOPairs: 1})
	if err != nil {
		f.Fatal(err)
	}
	g, err := graph.Build(gd.Design)
	if err != nil {
		f.Fatal(err)
	}
	var modes []*sdc.Mode
	for _, m := range gd.Modes(gen.FamilySpec{Groups: 1, ModesPerGroup: []int{2}, BasePeriod: 2}) {
		mode, _, err := sdc.Parse(m.Name, m.Text, g.Design)
		if err != nil {
			f.Fatal(err)
		}
		modes = append(modes, mode)
	}
	merged, report, err := MergeClique(context.Background(), g, modes, Options{})
	if err != nil {
		f.Fatal(err)
	}
	art, err := EncodeCliqueArtifact(merged, report, nil)
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(art),
		`{"name":"m","sdc":"create_clock -name C -period 2 [get_ports clk]\n","report":{}}`,
		`{"name":"m","sdc":"","report":{},"disable_comments":["x"]}`,
		`{"name":"m","sdc":"set_case_analysis 0 [get_ports nope]\n","report":{}}`,
		`{"name":"m","sdc":""}`,
		// Nested loops must exhaust the decoder's step budget instead of
		// running 2^40 iterations.
		`{"name":"m","sdc":"while 1 {while 1 {}}","report":{}}`,
		// Parses, but to a mode whose written SDC does not re-parse (the
		// word [get_clocks ...]0 names a clock that does not exist), so
		// the decoder must reject it as non-canonical.
		`{"sdc":"create_clock -n 0 -p 1 -n scan_clk -c 0\nset_clock_groups -p -g {}-g [get_clocks {*ca**c* }]0\n","report":{}}`,
		`null`,
		`{`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		mode, rep, err := DecodeCliqueArtifact(b, g)
		if err != nil {
			return
		}
		again, err := EncodeCliqueArtifact(mode, rep, nil)
		if err != nil {
			t.Fatalf("re-encoding an accepted artifact: %v", err)
		}
		mode2, _, err := DecodeCliqueArtifact(again, g)
		if err != nil {
			t.Fatalf("decoding a re-encoded artifact: %v\n%s", err, again)
		}
		if want, got := sdc.Write(mode), sdc.Write(mode2); got != want {
			t.Fatalf("SDC text changed through re-encoding:\n%s\n---\n%s", want, got)
		}
	})
}
