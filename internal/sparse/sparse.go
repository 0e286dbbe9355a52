// Package sparse provides sparse-matrix algebra over CSR graphs: the
// per-edge normalization factors that implement the paper's feature
// processing function ψ (Table 2), and an SpMM aggregation that serves both
// as the "MKL" comparison point (§6) and as the reference implementation the
// optimized kernels are verified against.
//
// When the reduction is "sum" and the binary operator is "multiply", the
// aggregation is exactly a sparse-matrix dense-matrix multiplication
// a = Â·h, where Â holds the normalization factors as CSR values (§5.2 notes
// the DMA engine computes the same thing). The factor arrays built here are
// therefore shared by every implementation, including the DMA descriptors
// (Fig. 9b: FACTOR points into the CSR value array).
package sparse

import (
	"context"
	"fmt"
	"math"

	"graphite/internal/graph"
	"graphite/internal/sched"
	"graphite/internal/telemetry"
	"graphite/internal/tensor"
)

// Norm selects the aggregation normalization, i.e. which GNN model's ψ the
// factor array encodes (Table 2).
type Norm int

const (
	// NormSum applies no scaling (plain neighbourhood sum).
	NormSum Norm = iota
	// NormGCN scales edge (v,u) by 1/sqrt(D_v·D_u), the GCN symmetric
	// normalization. Degrees are row lengths of the self-looped graph.
	NormGCN
	// NormMean scales edge (v,u) by 1/D_v, GraphSAGE's mean aggregator
	// (D_v counts the self edge, matching the paper's 1/(D_v+1)).
	NormMean
)

// String implements fmt.Stringer.
func (n Norm) String() string {
	switch n {
	case NormSum:
		return "sum"
	case NormGCN:
		return "gcn"
	case NormMean:
		return "mean"
	}
	return fmt.Sprintf("Norm(%d)", int(n))
}

// Factors returns the per-edge factor array aligned with g.Col. g must
// already contain self loops for NormGCN/NormMean to match the paper's
// N(v) ∪ {v} semantics.
func Factors(g *graph.CSR, norm Norm) []float32 {
	f := make([]float32, g.NumEdges())
	n := g.NumVertices()
	switch norm {
	case NormSum:
		for i := range f {
			f[i] = 1
		}
	case NormMean:
		for v := 0; v < n; v++ {
			d := g.Degree(v)
			if d == 0 {
				continue
			}
			inv := float32(1) / float32(d)
			for e := g.Ptr[v]; e < g.Ptr[v+1]; e++ {
				f[e] = inv
			}
		}
	case NormGCN:
		invSqrt := make([]float32, n)
		for v := 0; v < n; v++ {
			if d := g.Degree(v); d > 0 {
				invSqrt[v] = float32(1 / math.Sqrt(float64(d)))
			}
		}
		for v := 0; v < n; v++ {
			sv := invSqrt[v]
			for e := g.Ptr[v]; e < g.Ptr[v+1]; e++ {
				f[e] = sv * invSqrt[g.Col[e]]
			}
		}
	default:
		panic(fmt.Sprintf("sparse: unknown norm %d", int(norm)))
	}
	return f
}

// TransposeFactors returns the factor array for the transposed graph gT such
// that the transposed aggregation applies the SAME per-edge weights as the
// forward aggregation did. The backward pass needs aᵀ gradients propagated
// with Âᵀ, whose CSR values are the forward factors rearranged to the
// transposed edge order.
//
// g and gT must be transposes of each other and factors must align with
// g.Col.
func TransposeFactors(g, gT *graph.CSR, factors []float32) []float32 {
	n := g.NumVertices()
	out := make([]float32, len(factors))
	// Walk forward edges (v -> u, weight w); locate the transposed edge
	// (u -> v) by scanning u's row cursor. Rows in gT are sorted, and we
	// visit each u's in-edges in increasing v, so a per-row fill cursor
	// walks monotonically — but duplicates of (u,v) must map one-to-one,
	// which the cursor also handles.
	cursor := make([]int32, n)
	copy(cursor, gT.Ptr[:n])
	for v := 0; v < n; v++ {
		for e := g.Ptr[v]; e < g.Ptr[v+1]; e++ {
			u := g.Col[e]
			c := cursor[u]
			for gT.Col[c] != int32(v) {
				c++
			}
			out[c] = factors[e]
			cursor[u] = c + 1
		}
	}
	return out
}

// SpMM computes out[v,:] = Σ_{e∈row v} factors[e] · h[Col[e],:]. It is the
// paper's "MKL" aggregation baseline and the correctness oracle for the
// optimized kernels. Parallelised over output rows (no races: each task
// owns disjoint rows of out, all other operands are read-only — §4.1).
func SpMM(out *tensor.Matrix, g *graph.CSR, factors []float32, h *tensor.Matrix, threads int) {
	SpMMTel(out, g, factors, h, threads, nil)
}

// SpMMTel is SpMM with kernel counters and per-worker scheduler accounting.
func SpMMTel(out *tensor.Matrix, g *graph.CSR, factors []float32, h *tensor.Matrix, threads int, tel *telemetry.Sink) {
	if err := SpMMCtx(context.Background(), out, g, factors, h, threads, tel); err != nil {
		panic(err)
	}
}

// SpMMCtx is SpMMTel observing ctx at chunk boundaries and returning worker
// panics as *sched.WorkerError instead of crashing.
func SpMMCtx(ctx context.Context, out *tensor.Matrix, g *graph.CSR, factors []float32, h *tensor.Matrix, threads int, tel *telemetry.Sink) error {
	if out.Rows != g.NumVertices() || h.Rows != g.NumVertices() {
		panic(fmt.Sprintf("sparse: SpMM rows out=%d h=%d graph=%d", out.Rows, h.Rows, g.NumVertices()))
	}
	if out.Cols != h.Cols {
		panic(fmt.Sprintf("sparse: SpMM cols out=%d h=%d", out.Cols, h.Cols))
	}
	if len(factors) != g.NumEdges() {
		panic(fmt.Sprintf("sparse: factor array length %d, want %d", len(factors), g.NumEdges()))
	}
	return sched.DynamicCtx(ctx, g.NumVertices(), 64, threads, tel, func(_, start, end int) {
		var edges int64
		for v := start; v < end; v++ {
			dst := out.Row(v)
			clear(dst)
			edges += int64(g.Ptr[v+1] - g.Ptr[v])
			for e := g.Ptr[v]; e < g.Ptr[v+1]; e++ {
				tensor.AXPY(dst, h.Row(int(g.Col[e])), factors[e])
			}
		}
		if tel.Enabled() {
			tel.Add(telemetry.CtrVerticesAggregated, int64(end-start))
			tel.Add(telemetry.CtrEdgesAggregated, edges)
		}
	})
}
