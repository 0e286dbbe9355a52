package graphite

// One testing.B benchmark per table and figure of the paper's evaluation
// (§7), each delegating to the shared experiment harness at a reduced scale
// so `go test -bench=.` completes in minutes. cmd/graphite-bench runs the
// same experiments at full scale with the paper's numbers printed alongside.
//
// Additional Benchmark_Ablation* targets cover the design decisions listed
// in DESIGN.md §5.

import (
	"context"
	"math/rand"
	"strconv"
	"testing"

	"graphite/internal/bench"
	"graphite/internal/compress"
	"graphite/internal/gnn"
	"graphite/internal/graph"
	"graphite/internal/kernels"
	"graphite/internal/locality"
	"graphite/internal/sched"
	"graphite/internal/sparse"
	"graphite/internal/tensor"
)

func benchConfig() bench.Config {
	return bench.Config{Scale: 4000, SimScale: 1500, Hidden: 64, SimCores: 4}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rep, err := bench.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", rep)
		}
	}
}

func BenchmarkTable3DatasetStats(b *testing.B)         { runExperiment(b, "table3") }
func BenchmarkFig2SampledTraining(b *testing.B)        { runExperiment(b, "fig2") }
func BenchmarkFig3PipelineBreakdown(b *testing.B)      { runExperiment(b, "fig3") }
func BenchmarkFig11aInference(b *testing.B)            { runExperiment(b, "fig11a") }
func BenchmarkFig11bTraining(b *testing.B)             { runExperiment(b, "fig11b") }
func BenchmarkFig11aInferenceSim(b *testing.B)         { runExperiment(b, "fig11a-sim") }
func BenchmarkFig11bTrainingSim(b *testing.B)          { runExperiment(b, "fig11b-sim") }
func BenchmarkFig12aDMAInference(b *testing.B)         { runExperiment(b, "fig12a") }
func BenchmarkFig12bDMATraining(b *testing.B)          { runExperiment(b, "fig12b") }
func BenchmarkFig13FusionBreakdown(b *testing.B)       { runExperiment(b, "fig13") }
func BenchmarkFig14CompressionSweep(b *testing.B)      { runExperiment(b, "fig14") }
func BenchmarkFig15LocalityVsRandom(b *testing.B)      { runExperiment(b, "fig15") }
func BenchmarkFig16TrackingTable(b *testing.B)         { runExperiment(b, "fig16") }
func BenchmarkTable4Characterization(b *testing.B)     { runExperiment(b, "table4") }
func BenchmarkTable5CacheAccessReduction(b *testing.B) { runExperiment(b, "table5") }

// --- Ablation benches (DESIGN.md §5) ---

func ablationFixture(b *testing.B, p graph.Profile, n, cols int) (*graph.CSR, []float32, *tensor.Matrix) {
	b.Helper()
	g, err := graph.GenerateProfile(p, n)
	if err != nil {
		b.Fatal(err)
	}
	g = g.AddSelfLoops()
	f := sparse.Factors(g, sparse.NormGCN)
	h := tensor.NewMatrix(g.NumVertices(), cols)
	h.FillSparse(rand.New(rand.NewSource(1)), 1, 0.5)
	return g, f, h
}

// D1: dynamic vs static scheduling of the aggregation under power-law
// degree skew.
func BenchmarkAblationScheduling(b *testing.B) {
	ctx := context.Background()
	g, f, h := ablationFixture(b, graph.Twitter, 6000, 64)
	out := tensor.NewMatrix(g.NumVertices(), 64)
	src := kernels.NewDenseSource(h)
	b.Run("dynamic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := kernels.BasicCtx(ctx, out, g, f, src, kernels.Options{Threads: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("static", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := kernels.DistGNNCtx(ctx, out, g, f, h, 4, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// D2: fused block size B — the a block must stay cache resident between the
// aggregation and update halves.
func BenchmarkAblationFusedBlockSize(b *testing.B) {
	g, err := graph.GenerateProfile(graph.Products, 4000)
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.NewMatrix(g.NumVertices(), 64)
	x.FillSparse(rand.New(rand.NewSource(2)), 1, 0.5)
	w, err := gnn.NewWorkload(g, gnn.GCN, x, nil)
	if err != nil {
		b.Fatal(err)
	}
	net, err := gnn.NewNetwork(gnn.Config{Kind: gnn.GCN, Dims: []int{64, 64}, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	for _, blockSize := range []int{8, 64, 512, 4096} {
		b.Run(sizeName(blockSize), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := gnn.Forward(context.Background(), net, w, gnn.RunOptions{Impl: gnn.ImplFused, BlockSize: blockSize}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// D3: fixed-capacity compressed rows (O(1) addressing) vs materialising
// dense rows on every access.
func BenchmarkAblationCompressedLayout(b *testing.B) {
	g, f, h := ablationFixture(b, graph.Products, 4000, 64)
	cm := compress.FromDense(h, 0)
	out := tensor.NewMatrix(g.NumVertices(), 64)
	b.Run("fused-decompress-axpy", func(b *testing.B) {
		src := kernels.NewCompressedSource(cm)
		for i := 0; i < b.N; i++ {
			if err := kernels.BasicCtx(context.Background(), out, g, f, src, kernels.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decompress-then-axpy", func(b *testing.B) {
		row := make([]float32, 64)
		for i := 0; i < b.N; i++ {
			for v := 0; v < g.NumVertices(); v++ {
				dst := out.Row(v)
				clear(dst)
				for e := g.Ptr[v]; e < g.Ptr[v+1]; e++ {
					cm.DecompressRow(row, int(g.Col[e]))
					tensor.AXPY(dst, row, f[e])
				}
			}
		}
	})
}

// D4: width-specialised kernels (the JIT substitute) vs the generic loop.
func BenchmarkAblationKernelSpecialization(b *testing.B) {
	const cols = 256
	dst := make([]float32, cols)
	src := make([]float32, cols)
	for j := range src {
		src[j] = float32(j)
	}
	b.Run("specialized", func(b *testing.B) {
		axpy := kernels.MakeAXPY(cols)
		for i := 0; i < b.N; i++ {
			axpy(dst, src, 1.0001)
		}
	})
	b.Run("generic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.AXPY(dst, src, 1.0001)
		}
	})
}

// D6: Algorithm 3's highest-degree-neighbour grouping vs grouping under the
// first neighbour.
func BenchmarkAblationLocalityGreedy(b *testing.B) {
	g, err := graph.GenerateProfile(graph.Products, 6000)
	if err != nil {
		b.Fatal(err)
	}
	firstNeighborOrder := func(g *graph.CSR) []int32 {
		n := g.NumVertices()
		groups := make([][]int32, n)
		for v := 0; v < n; v++ {
			u := v
			if nbr := g.Neighbors(v); len(nbr) > 0 {
				u = int(nbr[0])
			}
			groups[u] = append(groups[u], int32(v))
		}
		order := make([]int32, 0, n)
		for _, grp := range groups {
			order = append(order, grp...)
		}
		return order
	}
	b.Run("highest-degree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			order := locality.Reorder(g)
			if hr, err := locality.HitRate(g, order, 128); err != nil || hr <= 0 {
				b.Fatal("bad hit rate", err)
			}
		}
	})
	b.Run("first-neighbor", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			order := firstNeighborOrder(g)
			if hr, err := locality.HitRate(g, order, 128); err != nil || hr <= 0 {
				b.Fatal("bad hit rate", err)
			}
		}
	})
}

// Scheduling substrate overhead.
func BenchmarkSchedDynamic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sched.Dynamic(100_000, 256, 4, nil, func(_, s, e int) {})
	}
}

func sizeName(n int) string { return "B" + strconv.Itoa(n) }
