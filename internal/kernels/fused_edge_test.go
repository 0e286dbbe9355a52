package kernels

import (
	"math/rand"
	"testing"

	"graphite/internal/compress"
	"graphite/internal/graph"
	"graphite/internal/locality"
	"graphite/internal/sparse"
	"graphite/internal/tensor"
)

// TestCompressedSourceWithOrder combines compression and a processing
// order, the paper's "combined + locality" configuration, at kernel level.
func TestCompressedSourceWithOrder(t *testing.T) {
	g, f, h := fixture(t, graph.Products, 260, 96)
	want := reference(g, f, h)
	cm := compress.FromDense(h, 2)
	got := tensor.NewMatrix(g.NumVertices(), 96)
	basic(t, got, g, f, NewCompressedSource(cm), Options{
		Threads: 3, Order: locality.Reorder(g), PrefetchDistance: 4, TaskSize: 13,
	})
	if d := tensor.MaxAbsDiff(got, want); d > 1e-4 {
		t.Fatalf("max diff %g", d)
	}
}

// TestStarGraphLoadImbalance: one vertex owns nearly all the work; every
// kernel must still be correct.
func TestStarGraphLoadImbalance(t *testing.T) {
	g, err := graph.Star(500)
	if err != nil {
		t.Fatal(err)
	}
	g = g.AddSelfLoops()
	f := sparse.Factors(g, sparse.NormMean)
	h := tensor.NewMatrix(500, 24)
	h.FillRandom(rand.New(rand.NewSource(4)), 1)
	want := reference(g, f, h)
	got := tensor.NewMatrix(500, 24)
	basic(t, got, g, f, NewDenseSource(h), Options{Threads: 4, TaskSize: 8})
	if d := tensor.MaxAbsDiff(got, want); d > 1e-4 {
		t.Fatalf("basic on star: max diff %g", d)
	}
	distGNN(t, got, g, f, h, 4)
	if d := tensor.MaxAbsDiff(got, want); d > 1e-4 {
		t.Fatalf("distgnn on star: max diff %g", d)
	}
}

// TestSingleVertexGraph is the smallest possible aggregation.
func TestSingleVertexGraph(t *testing.T) {
	g, err := graph.FromEdges(1, []int32{0}, []int32{0})
	if err != nil {
		t.Fatal(err)
	}
	f := sparse.Factors(g, sparse.NormMean)
	h := tensor.NewMatrix(1, 4)
	h.Set(0, 2, 7)
	out := tensor.NewMatrix(1, 4)
	basic(t, out, g, f, NewDenseSource(h), Options{})
	if out.At(0, 2) != 7 {
		t.Fatalf("self mean aggregation got %g", out.At(0, 2))
	}
}

// TestPrefetchDistanceBeyondEnd must not panic near the end of the order.
func TestPrefetchDistanceBeyondEnd(t *testing.T) {
	g, f, h := fixture(t, graph.Wikipedia, 40, 16)
	out := tensor.NewMatrix(g.NumVertices(), 16)
	basic(t, out, g, f, NewDenseSource(h), Options{PrefetchDistance: 1000})
	if d := tensor.MaxAbsDiff(out, reference(g, f, h)); d > 1e-4 {
		t.Fatalf("max diff %g", d)
	}
}

func BenchmarkCompressedAggregation(b *testing.B) {
	g, f, h := fixture(b, graph.Products, 2000, 256)
	cm := compress.FromDense(h, 0)
	out := tensor.NewMatrix(g.NumVertices(), 256)
	src := NewCompressedSource(cm)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		basic(b, out, g, f, src, Options{Threads: 2})
	}
}
