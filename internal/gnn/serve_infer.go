package gnn

import (
	"context"
	"fmt"
	"math/rand"

	"graphite/internal/graph"
	"graphite/internal/telemetry"
	"graphite/internal/tensor"
)

// InferVerticesContext runs batched per-vertex inference: the requested
// vertices' K-hop neighbourhoods are sampled backwards through the layers
// (SampleBlocks), their input features gathered, and the layers executed
// through the ctx-aware scheduling path. It returns one logits row per
// requested vertex, aligned with ids.
//
// This is the serving path: a request batcher coalesces per-vertex
// inference requests into one ids slice and dispatches it here with the
// batch's deadline as ctx. fanouts has one entry per layer (<= 0 means the
// full neighbourhood — with full fanouts the result matches the full-batch
// forward pass row-for-row); nil means full neighbourhoods at every layer.
// rng drives neighbour sampling and may be nil when every fanout is full.
//
// Cancellation is observed between layers and at scheduler chunk
// boundaries; kernel worker panics are contained into a returned error.
func InferVerticesContext(ctx context.Context, net *Network, g *graph.CSR, x *tensor.Matrix, ids []int32, fanouts []int, rng *rand.Rand, opts RunOptions) (_ *tensor.Matrix, err error) {
	defer contain(opts.Tel, &err)
	if net.NumLayers() == 0 {
		return nil, fmt.Errorf("gnn: empty network")
	}
	if g == nil || x == nil {
		return nil, fmt.Errorf("gnn: nil graph or features")
	}
	if x.Rows != g.NumVertices() {
		return nil, fmt.Errorf("gnn: %d feature rows for %d vertices", x.Rows, g.NumVertices())
	}
	if net.Layers[0].In() != x.Cols {
		return nil, fmt.Errorf("gnn: layer 0 expects %d input features, got %d", net.Layers[0].In(), x.Cols)
	}
	if len(fanouts) == 0 {
		fanouts = make([]int, net.NumLayers())
	}
	if len(fanouts) != net.NumLayers() {
		return nil, fmt.Errorf("gnn: %d fanouts for %d layers", len(fanouts), net.NumLayers())
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	if cerr := ctxErr(ctx); cerr != nil {
		return nil, cerr
	}

	sp := opts.Tel.Begin(telemetry.PhaseInfer)
	defer sp.End()

	// Trace annotation mirrors the sink spans at the same phase names: on
	// an untraced context StartSpan is a no-op (zero handle, ctx unchanged).
	_, tsp := telemetry.StartSpan(ctx, telemetry.PhaseSample)
	ssp := opts.Tel.Begin(telemetry.PhaseSample)
	blocks, err := SampleBlocks(g, net.Kind, ids, fanouts, rng)
	if err != nil {
		ssp.End()
		tsp.End()
		return nil, err
	}
	feats, err := gatherRows(ctx, x, blocks[0].SrcIDs, opts.Threads)
	ssp.End()
	tsp.End()
	if err != nil {
		return nil, err
	}
	return SampledForwardContext(ctx, net, blocks, feats, opts)
}
