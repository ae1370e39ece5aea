// MCMM corner ablation: the same 4-mode family merged over scenario
// matrices of growing corner count. The corner axis multiplies the
// number of member analysis contexts (modes × corners, corner-major),
// so merge cost should scale roughly linearly in corners while the
// merged output stays corner-less. See EXPERIMENTS.md "Ablation 5".
package modemerge

import (
	"context"
	"testing"

	"modemerge/internal/core"
	"modemerge/internal/gen"
	"modemerge/internal/graph"
	"modemerge/internal/sdc"
)

func benchCornerMatrix(b *testing.B, corners int) {
	gd, err := gen.Generate(gen.DesignSpec{
		Name: "corner_bench", Seed: 404, Domains: 2, BlocksPerDomain: 2,
		Stages: 2, RegsPerStage: 2, CloudDepth: 1, CrossPaths: 2, IOPairs: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	g, err := graph.Build(gd.Design)
	if err != nil {
		b.Fatal(err)
	}
	family := gen.FamilySpec{Groups: 1, ModesPerGroup: []int{4}, BasePeriod: 2,
		FunctionalOnly: true, Corners: corners}
	var modes []*sdc.Mode
	for _, m := range gd.Modes(family) {
		mode, _, err := sdc.Parse(m.Name, m.Text, g.Design)
		if err != nil {
			b.Fatal(err)
		}
		modes = append(modes, mode)
	}
	opt := core.Options{Corners: gd.CornerSet(family)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.MergeClique(context.Background(), g, modes, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCornerMatrixMergeC0(b *testing.B) { benchCornerMatrix(b, 0) }
func BenchmarkCornerMatrixMergeC1(b *testing.B) { benchCornerMatrix(b, 1) }
func BenchmarkCornerMatrixMergeC2(b *testing.B) { benchCornerMatrix(b, 2) }
func BenchmarkCornerMatrixMergeC4(b *testing.B) { benchCornerMatrix(b, 4) }
