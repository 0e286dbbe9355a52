package kernels

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"graphite/internal/compress"
	"graphite/internal/graph"
	"graphite/internal/locality"
	"graphite/internal/sparse"
	"graphite/internal/tensor"
)

func fixture(t testing.TB, p graph.Profile, n, cols int) (*graph.CSR, []float32, *tensor.Matrix) {
	t.Helper()
	g, err := graph.GenerateProfile(p, n)
	if err != nil {
		t.Fatal(err)
	}
	g = g.AddSelfLoops()
	f := sparse.Factors(g, sparse.NormGCN)
	h := tensor.NewMatrix(g.NumVertices(), cols)
	h.FillSparse(rand.New(rand.NewSource(11)), 1, 0.5)
	return g, f, h
}

func reference(g *graph.CSR, f []float32, h *tensor.Matrix) *tensor.Matrix {
	out := tensor.NewMatrix(g.NumVertices(), h.Cols)
	sparse.SpMM(out, g, f, h, 1)
	return out
}

// basic runs BasicCtx under context.Background(), failing tb on an error.
func basic(tb testing.TB, out *tensor.Matrix, g *graph.CSR, f []float32, src Source, opt Options) {
	tb.Helper()
	if err := BasicCtx(context.Background(), out, g, f, src, opt); err != nil {
		tb.Fatal(err)
	}
}

// distGNN runs DistGNNCtx under context.Background() without telemetry,
// failing tb on an error.
func distGNN(tb testing.TB, out *tensor.Matrix, g *graph.CSR, f []float32, h *tensor.Matrix, threads int) {
	tb.Helper()
	if err := DistGNNCtx(context.Background(), out, g, f, h, threads, nil); err != nil {
		tb.Fatal(err)
	}
}

func TestBasicMatchesSpMM(t *testing.T) {
	for _, cols := range []int{5, 16, 100, 256} {
		g, f, h := fixture(t, graph.Wikipedia, 300, cols)
		want := reference(g, f, h)
		got := tensor.NewMatrix(g.NumVertices(), cols)
		basic(t, got, g, f, NewDenseSource(h), Options{Threads: 3, TaskSize: 17, PrefetchDistance: 4})
		if d := tensor.MaxAbsDiff(got, want); d > 1e-4 {
			t.Fatalf("cols=%d: max diff %g", cols, d)
		}
	}
}

func TestBasicCompressedMatchesDense(t *testing.T) {
	g, f, h := fixture(t, graph.Products, 300, 128)
	want := reference(g, f, h)
	cm := compress.FromDense(h, 2)
	got := tensor.NewMatrix(g.NumVertices(), 128)
	basic(t, got, g, f, NewCompressedSource(cm), Options{Threads: 2, PrefetchDistance: 2})
	if d := tensor.MaxAbsDiff(got, want); d > 1e-4 {
		t.Fatalf("max diff %g", d)
	}
}

func TestBasicWithProcessingOrder(t *testing.T) {
	g, f, h := fixture(t, graph.Products, 250, 32)
	want := reference(g, f, h)
	for _, order := range [][]int32{
		locality.Reorder(g),
		locality.Randomized(g.NumVertices(), 5),
	} {
		got := tensor.NewMatrix(g.NumVertices(), 32)
		basic(t, got, g, f, NewDenseSource(h), Options{Threads: 2, Order: order, PrefetchDistance: 3})
		if d := tensor.MaxAbsDiff(got, want); d > 1e-4 {
			t.Fatalf("order changed results: max diff %g", d)
		}
	}
}

func TestDistGNNMatchesSpMM(t *testing.T) {
	g, f, h := fixture(t, graph.Twitter, 300, 64)
	want := reference(g, f, h)
	got := tensor.NewMatrix(g.NumVertices(), 64)
	distGNN(t, got, g, f, h, 3)
	if d := tensor.MaxAbsDiff(got, want); d > 1e-4 {
		t.Fatalf("max diff %g", d)
	}
}

func TestAggregateBlockConsecutiveRows(t *testing.T) {
	g, f, h := fixture(t, graph.Wikipedia, 120, 48)
	want := reference(g, f, h)
	order := locality.Reorder(g)
	opt := Options{Order: order, PrefetchDistance: 2}
	buf := tensor.NewMatrix(16, 48)
	AggregateBlock(buf, 0, g, f, NewDenseSource(h), opt, 32, 48)
	for i := 0; i < 16; i++ {
		v := int(order[32+i])
		for j := 0; j < 48; j++ {
			if d := buf.At(i, j) - want.At(v, j); d > 1e-4 || d < -1e-4 {
				t.Fatalf("block row %d (vertex %d) col %d: %g vs %g", i, v, j, buf.At(i, j), want.At(v, j))
			}
		}
	}
}

func TestAggregateBlockByVertexRows(t *testing.T) {
	g, f, h := fixture(t, graph.Wikipedia, 120, 48)
	want := reference(g, f, h)
	order := locality.Randomized(g.NumVertices(), 1)
	opt := Options{Order: order}
	out := tensor.NewMatrix(g.NumVertices(), 48)
	AggregateBlockByVertex(out, g, f, NewDenseSource(h), opt, 0, g.NumVertices())
	if d := tensor.MaxAbsDiff(out, want); d > 1e-4 {
		t.Fatalf("max diff %g", d)
	}
}

func TestZeroDegreeVertexYieldsZeroRow(t *testing.T) {
	// Vertex 2 has no edges at all (no self loop added).
	g, err := graph.FromEdges(3, []int32{0, 1}, []int32{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	f := sparse.Factors(g, sparse.NormSum)
	h := tensor.NewMatrix(3, 8)
	h.FillRandom(rand.New(rand.NewSource(1)), 1)
	out := tensor.NewMatrix(3, 8)
	for j := 0; j < 8; j++ {
		out.Set(2, j, 99) // stale garbage that must be cleared
	}
	basic(t, out, g, f, NewDenseSource(h), Options{Threads: 1})
	for j := 0; j < 8; j++ {
		if out.At(2, j) != 0 {
			t.Fatalf("isolated vertex row not zeroed: col %d = %g", j, out.At(2, j))
		}
	}
}

func TestMakeAXPYSpecializedMatchesGeneric(t *testing.T) {
	f := func(seed int64, colsSel uint8) bool {
		cols := []int{16, 32, 256, 7, 100, 1}[int(colsSel)%6]
		rng := rand.New(rand.NewSource(seed))
		dst1 := make([]float32, cols)
		dst2 := make([]float32, cols)
		src := make([]float32, cols)
		for j := range src {
			src[j] = rng.Float32()
			dst1[j] = rng.Float32()
			dst2[j] = dst1[j]
		}
		MakeAXPY(cols)(dst1, src, 0.7)
		tensor.AXPY(dst2, src, 0.7)
		for j := range dst1 {
			if dst1[j] != dst2[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckAggArgsPanics(t *testing.T) {
	g, f, h := fixture(t, graph.Products, 50, 16)
	ctx, src := context.Background(), NewDenseSource(h)
	cases := []func(){
		func() { _ = BasicCtx(ctx, tensor.NewMatrix(10, 16), g, f, src, Options{}) },
		func() { _ = BasicCtx(ctx, tensor.NewMatrix(g.NumVertices(), 8), g, f, src, Options{}) },
		func() { _ = BasicCtx(ctx, tensor.NewMatrix(g.NumVertices(), 16), g, f[:3], src, Options{}) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkBasicAggregation(b *testing.B) {
	g, f, h := fixture(b, graph.Products, 2000, 256)
	out := tensor.NewMatrix(g.NumVertices(), 256)
	src := NewDenseSource(h)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		basic(b, out, g, f, src, Options{Threads: 2, PrefetchDistance: 4})
	}
}

func BenchmarkDistGNNAggregation(b *testing.B) {
	g, f, h := fixture(b, graph.Products, 2000, 256)
	out := tensor.NewMatrix(g.NumVertices(), 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		distGNN(b, out, g, f, h, 2)
	}
}
