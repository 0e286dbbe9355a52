package kernels

import (
	"context"

	"graphite/internal/graph"
	"graphite/internal/sched"
	"graphite/internal/telemetry"
	"graphite/internal/tensor"
)

// Options tunes the optimized aggregation kernels. Zero values pick the
// defaults the paper's constants suggest.
type Options struct {
	// Threads is the worker count (<=0 uses GOMAXPROCS).
	Threads int
	// TaskSize is T in Algorithm 1: vertices per dynamically-scheduled
	// task (default 256).
	TaskSize int
	// PrefetchDistance is D in Algorithm 1 (default 4; 0 disables the
	// software-prefetch emulation).
	PrefetchDistance int
	// Order is the vertex processing order M (§4.4); nil means natural
	// order. Must be a permutation of the vertex set.
	Order []int32
	// Tel receives kernel counters and scheduler accounting; nil disables
	// instrumentation at the cost of one branch per claimed chunk.
	Tel *telemetry.Sink
}

func (o Options) taskSize() int {
	if o.TaskSize <= 0 {
		return 256
	}
	return o.TaskSize
}

func (o Options) vertexAt(i int) int {
	if o.Order == nil {
		return i
	}
	return int(o.Order[i])
}

// AggregateVertex computes one vertex's aggregation feature vector:
// dst = Σ_{e∈row v} factors[e]·src[Col[e]] (Lines 4-7 of Algorithm 1).
// The self edge is part of the row (AddSelfLoops), so N(v) ∪ {v} needs no
// special case.
func AggregateVertex(dst []float32, g *graph.CSR, factors []float32, src Source, v int) {
	clear(dst)
	for e := g.Ptr[v]; e < g.Ptr[v+1]; e++ {
		src.AXPYRow(dst, int(g.Col[e]), factors[e])
	}
}

// prefetchVertex touches the first cache lines of every input row vertex v
// will gather (Line 9 of Algorithm 1).
func prefetchVertex(g *graph.CSR, src Source, v int) float32 {
	var sink float32
	for e := g.Ptr[v]; e < g.Ptr[v+1]; e++ {
		sink += src.Touch(int(g.Col[e]))
	}
	return sink
}

// BasicCtx is the paper's parallel vectorized aggregation (Algorithm 1):
// dynamic scheduling over vertex chunks, width-specialised inner loops, and
// software prefetch of the features needed D vertices ahead. It observes
// ctx at task boundaries and returns worker panics as *sched.WorkerError
// instead of crashing; shape errors panic on the calling goroutine. With a
// background context the scheduler's uncancellable fast path is taken, so
// the kernel pays nothing per row for the error plumbing.
func BasicCtx(ctx context.Context, out *tensor.Matrix, g *graph.CSR, factors []float32, src Source, opt Options) error {
	n := g.NumVertices()
	checkAggArgs(out, n, g.NumEdges(), factors, src)
	dist := opt.PrefetchDistance
	_, srcCompressed := src.(*CompressedSource)
	return sched.DynamicCtx(ctx, n, opt.taskSize(), opt.Threads, opt.Tel, func(_, start, end int) {
		var sink float32
		var edges int64
		for i := start; i < end; i++ {
			v := opt.vertexAt(i)
			edges += int64(g.Ptr[v+1] - g.Ptr[v])
			AggregateVertex(out.Row(v), g, factors, src, v)
			if dist > 0 && i+dist < n {
				sink += prefetchVertex(g, src, opt.vertexAt(i+dist))
			}
		}
		foldSink(sink)
		countAggregate(opt.Tel, int64(end-start), edges, srcCompressed)
	})
}

// countAggregate flushes one task's aggregation counts: vertex rows
// produced, edges traversed, and (for compressed sources) one row expansion
// per edge gather. One call per claimed chunk keeps atomics off the
// per-edge path.
func countAggregate(tel *telemetry.Sink, vertices, edges int64, srcCompressed bool) {
	if !tel.Enabled() {
		return
	}
	tel.Add(telemetry.CtrVerticesAggregated, vertices)
	tel.Add(telemetry.CtrEdgesAggregated, edges)
	if srcCompressed {
		tel.Add(telemetry.CtrRowsDecompressed, edges)
	}
}

// AggregateBlock aggregates the vertices at positions [posStart, posEnd) of
// the processing order into consecutive rows of dst starting at dstRow,
// with prefetch for the next block. It is the aggregation half of one
// j-loop iteration of the fused kernel (Algorithm 2, Lines 3-7); the fused
// drivers in the gnn package pair it with their update.
func AggregateBlock(dst *tensor.Matrix, dstRow int, g *graph.CSR, factors []float32, src Source, opt Options, posStart, posEnd int) {
	n := g.NumVertices()
	dist := opt.PrefetchDistance
	var sink float32
	for i := posStart; i < posEnd; i++ {
		v := opt.vertexAt(i)
		AggregateVertex(dst.Row(dstRow+i-posStart), g, factors, src, v)
		if dist > 0 && i+dist < n {
			sink += prefetchVertex(g, src, opt.vertexAt(i+dist))
		}
	}
	foldSink(sink)
}

// AggregateBlockByVertex is AggregateBlock writing each vertex's result to
// its own row of dst (dst row index = vertex id), as the fused training
// kernel needs: the full aggregation matrix a is kept for back-propagation
// (§4.2), so rows live at their global positions.
func AggregateBlockByVertex(dst *tensor.Matrix, g *graph.CSR, factors []float32, src Source, opt Options, posStart, posEnd int) {
	n := g.NumVertices()
	dist := opt.PrefetchDistance
	var sink float32
	for i := posStart; i < posEnd; i++ {
		v := opt.vertexAt(i)
		AggregateVertex(dst.Row(v), g, factors, src, v)
		if dist > 0 && i+dist < n {
			sink += prefetchVertex(g, src, opt.vertexAt(i+dist))
		}
	}
	foldSink(sink)
}

// DistGNNCtx is the baseline aggregation standing in for DistGNN's
// single-socket kernel (§6): statically scheduled over contiguous vertex
// ranges, generic (non-specialised) inner loop, no software prefetch, no
// processing-order support. The evaluation normalises everything to this.
// Kernel counters and per-worker accounting go to tel (nil disables them);
// ctx is checked before each worker's static range, and worker panics come
// back as *sched.WorkerError.
func DistGNNCtx(ctx context.Context, out *tensor.Matrix, g *graph.CSR, factors []float32, h *tensor.Matrix, threads int, tel *telemetry.Sink) error {
	n := g.NumVertices()
	checkAggArgs(out, n, g.NumEdges(), factors, NewDenseSource(h))
	return sched.StaticCtx(ctx, n, threads, tel, func(_, start, end int) {
		var edges int64
		for v := start; v < end; v++ {
			dst := out.Row(v)
			clear(dst)
			edges += int64(g.Ptr[v+1] - g.Ptr[v])
			for e := g.Ptr[v]; e < g.Ptr[v+1]; e++ {
				tensor.AXPY(dst, h.Row(int(g.Col[e])), factors[e])
			}
		}
		countAggregate(tel, int64(end-start), edges, false)
	})
}
