package gnn

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"graphite/internal/graph"
	"graphite/internal/sched"
	"graphite/internal/telemetry"
	"graphite/internal/tensor"
)

// Block is one layer's message-flow graph in a sampled mini-batch, in the
// DGL style the paper profiles (§3): a bipartite aggregation from SrcIDs
// (whose features are the layer input) to the first NumDst of them (whose
// features are the layer output). The destination vertices are always a
// prefix of the sources, so consecutive blocks chain: block k's sources
// are block k+1's destinations.
type Block struct {
	// SubG has NumDst rows; column indices are source-local.
	SubG *graph.CSR
	// Factors is the per-edge ψ array for the block.
	Factors []float32
	// SrcIDs maps source-local ids to global vertex ids.
	SrcIDs []int32
	// NumDst is the number of destination vertices.
	NumDst int
}

// SampleBlocks builds the K blocks for one mini-batch: starting from the
// batch vertices it walks the layers backwards, sampling up to fanouts[k]
// neighbours per vertex (plus the vertex itself) at layer k — Equation 3's
// SAMPLE. len(fanouts) must equal the number of layers; fanout <= 0 means
// "no sampling at that layer" (full neighbourhood, i.e. plain
// mini-batching).
//
// This is the pipeline whose cost Fig. 2 shows dominating sampled training
// epochs, and it runs on the CPU even in GPU setups (§2.1).
func SampleBlocks(g *graph.CSR, kind Kind, batch []int32, fanouts []int, rng *rand.Rand) ([]*Block, error) {
	if len(batch) == 0 {
		return nil, fmt.Errorf("gnn: empty batch")
	}
	n := g.NumVertices()
	for _, v := range batch {
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("gnn: batch vertex %d out of range [0,%d)", v, n)
		}
	}
	blocks := make([]*Block, len(fanouts))
	dst := append([]int32(nil), batch...)
	for k := len(fanouts) - 1; k >= 0; k-- {
		blk, err := sampleOneBlock(g, kind, dst, fanouts[k], rng)
		if err != nil {
			return nil, err
		}
		blocks[k] = blk
		dst = blk.SrcIDs
	}
	return blocks, nil
}

func sampleOneBlock(g *graph.CSR, kind Kind, dst []int32, fanout int, rng *rand.Rand) (*Block, error) {
	// Source-local id assignment: destinations first (prefix invariant).
	local := make(map[int32]int32, len(dst)*2)
	srcIDs := append([]int32(nil), dst...)
	for i, v := range dst {
		local[v] = int32(i)
	}
	intern := func(v int32) int32 {
		if id, ok := local[v]; ok {
			return id
		}
		id := int32(len(srcIDs))
		local[v] = id
		srcIDs = append(srcIDs, v)
		return id
	}
	ptr := make([]int32, len(dst)+1)
	var col []int32
	for i, v := range dst {
		nbr := g.Neighbors(int(v))
		// Self edge first (N(v) ∪ {v}).
		col = append(col, int32(i))
		switch {
		case fanout <= 0 || len(nbr) <= fanout:
			for _, u := range nbr {
				col = append(col, intern(u))
			}
		default:
			// Floyd-style sample of `fanout` distinct positions.
			chosen := make(map[int]struct{}, fanout)
			for j := len(nbr) - fanout; j < len(nbr); j++ {
				p := rng.Intn(j + 1)
				if _, dup := chosen[p]; dup {
					p = j
				}
				chosen[p] = struct{}{}
				col = append(col, intern(nbr[p]))
			}
		}
		ptr[i+1] = int32(len(col))
	}
	// Build the block CSR over the source-local universe. Validate against
	// the source count, not the dst count: columns index sources.
	sub := &graph.CSR{Ptr: ptr, Col: col}
	factors := make([]float32, len(col))
	switch kind.Norm().String() {
	case "mean":
		for i := range dst {
			d := float32(ptr[i+1] - ptr[i])
			for e := ptr[i]; e < ptr[i+1]; e++ {
				factors[e] = 1 / d
			}
		}
	default:
		// GCN-style symmetric norm approximated with in-block degrees on
		// the destination side and full-graph degrees on the source side.
		for i := range dst {
			dv := float64(ptr[i+1] - ptr[i])
			for e := ptr[i]; e < ptr[i+1]; e++ {
				du := float64(g.Degree(int(srcIDs[sub.Col[e]])) + 1)
				factors[e] = float32(1 / math.Sqrt(dv*du))
			}
		}
	}
	return &Block{SubG: sub, Factors: factors, SrcIDs: srcIDs, NumDst: len(dst)}, nil
}

// GatherRows copies X rows for the given global ids into a fresh matrix —
// the mini-batch feature extraction whose memory traffic is part of the
// sampling overhead (§3: sampling and mini-batching contribute over 80% of
// sampled-training time). It is gatherRows under context.Background(): a
// worker panic re-panics as a *sched.WorkerError.
func GatherRows(x *tensor.Matrix, ids []int32, threads int) *tensor.Matrix {
	out, err := gatherRows(context.Background(), x, ids, threads)
	if err != nil {
		panic(err)
	}
	return out
}

// gatherRows is the one row-copy body behind GatherRows and the serving
// path: under cancellation the copies drain at chunk granularity.
func gatherRows(ctx context.Context, x *tensor.Matrix, ids []int32, threads int) (*tensor.Matrix, error) {
	out := tensor.NewMatrix(len(ids), x.Cols)
	if err := sched.DynamicCtx(ctx, len(ids), 256, threads, nil, func(_, s, e int) {
		for i := s; i < e; i++ {
			copy(out.Row(i), x.Row(int(ids[i])))
		}
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// SampledForwardContext runs the network over a mini-batch's blocks and
// returns the logits for the batch vertices. h holds the gathered input
// features of blocks[0].SrcIDs. Aggregation and the final bias add run
// through the ctx-aware scheduler (cancellation at chunk boundaries, worker
// panics contained), each layer records aggregate/update spans, and the
// kernel counters account the vertices, edges and FLOPs the mini-batch
// moved.
func SampledForwardContext(ctx context.Context, net *Network, blocks []*Block, h *tensor.Matrix, opts RunOptions) (*tensor.Matrix, error) {
	return sampledForward(ctx, net, blocks, h, opts, nil)
}

// sampledForward is the package's one per-layer loop over sampled blocks,
// shared by serving (SampledForwardContext), RunSampledEpoch and the
// sampled trainer. When st is non-nil it records each layer's input,
// aggregation and output for SampledBackward.
func sampledForward(ctx context.Context, net *Network, blocks []*Block, h *tensor.Matrix, opts RunOptions, st *SampledState) (_ *tensor.Matrix, err error) {
	defer contain(opts.Tel, &err)
	if len(blocks) != net.NumLayers() {
		return nil, fmt.Errorf("gnn: %d blocks for %d layers", len(blocks), net.NumLayers())
	}
	threads := opts.Threads
	for k, layer := range net.Layers {
		if cerr := ctxErr(ctx); cerr != nil {
			return nil, cerr
		}
		blk := blocks[k]
		if h.Rows != len(blk.SrcIDs) {
			return nil, fmt.Errorf("gnn: layer %d input has %d rows, block expects %d", k, h.Rows, len(blk.SrcIDs))
		}
		if layer.In() != h.Cols {
			return nil, fmt.Errorf("gnn: layer %d expects %d inputs, got %d", k, layer.In(), h.Cols)
		}

		// Per-layer trace span, with aggregate/update children under it —
		// trace granularity stops here; kernels below never see traces
		// (the hotloop-telemetry lint enforces that).
		lctx, lsp := telemetry.StartSpan(ctx, telemetry.LayerName(k))

		_, atsp := telemetry.StartSpan(lctx, telemetry.PhaseAggregate)
		asp := opts.Tel.Begin(telemetry.PhaseAggregate)
		a := tensor.NewMatrix(blk.NumDst, layer.In())
		aggErr := sched.DynamicCtx(ctx, blk.NumDst, 64, threads, nil, func(_, s, e int) {
			for i := s; i < e; i++ {
				dst := a.Row(i)
				clear(dst)
				for eIdx := blk.SubG.Ptr[i]; eIdx < blk.SubG.Ptr[i+1]; eIdx++ {
					tensor.AXPY(dst, h.Row(int(blk.SubG.Col[eIdx])), blk.Factors[eIdx])
				}
			}
		})
		asp.End()
		atsp.End()
		if aggErr != nil {
			lsp.End()
			return nil, aggErr
		}
		opts.Tel.Add(telemetry.CtrVerticesAggregated, int64(blk.NumDst))
		opts.Tel.Add(telemetry.CtrEdgesAggregated, int64(len(blk.SubG.Col)))

		_, utsp := telemetry.StartSpan(lctx, telemetry.PhaseUpdate)
		usp := opts.Tel.Begin(telemetry.PhaseUpdate)
		z := tensor.NewMatrix(blk.NumDst, layer.Out())
		tensor.MatMul(z, a, layer.W, threads)
		if k < net.NumLayers()-1 {
			tensor.AddBiasReLU(z, layer.B, threads)
		} else if uerr := sched.DynamicCtx(ctx, z.Rows, 256, threads, nil, func(_, s, e int) {
			tensor.AddBiasRange(z, layer.B, s, e)
		}); uerr != nil {
			usp.End()
			utsp.End()
			lsp.End()
			return nil, uerr
		}
		usp.End()
		utsp.End()
		lsp.End()
		opts.Tel.Add(telemetry.CtrGEMMFLOPs, 2*int64(blk.NumDst)*int64(layer.In())*int64(layer.Out()))
		if st != nil {
			st.Inputs = append(st.Inputs, h)
			st.A = append(st.A, a)
			st.H = append(st.H, z)
		}
		h = z
	}
	return h, nil
}

// SampledEpochBreakdown is one epoch of sampled mini-batch training cost,
// split the way Fig. 2 splits it.
type SampledEpochBreakdown struct {
	Sampling  time.Duration // neighbourhood sampling + block building + feature gathering
	GNNLayers time.Duration // layer computation
	Batches   int
}

// RunSampledEpoch executes one epoch of sampled forward passes over all
// vertices in mini-batches and reports the time split. layerSpeedup
// divides the measured layer-compute time to model a throughput-oriented
// accelerator computing the layers (DESIGN.md substitution 6 — the paper's
// Titan V); 1 means "layers on this CPU".
func RunSampledEpoch(net *Network, g *graph.CSR, x *tensor.Matrix, batchSize int, fanouts []int, layerSpeedup float64, threads int, seed int64) (SampledEpochBreakdown, error) {
	if batchSize <= 0 {
		return SampledEpochBreakdown{}, fmt.Errorf("gnn: batch size %d", batchSize)
	}
	if layerSpeedup <= 0 {
		layerSpeedup = 1
	}
	rng := rand.New(rand.NewSource(seed))
	n := g.NumVertices()
	perm := rng.Perm(n)
	var out SampledEpochBreakdown
	for start := 0; start < n; start += batchSize {
		end := start + batchSize
		if end > n {
			end = n
		}
		batch := make([]int32, end-start)
		for i := range batch {
			batch[i] = int32(perm[start+i])
		}
		t0 := time.Now()
		blocks, err := SampleBlocks(g, net.Kind, batch, fanouts, rng)
		if err != nil {
			return out, err
		}
		feats := GatherRows(x, blocks[0].SrcIDs, threads)
		t1 := time.Now()
		if _, err := SampledForwardContext(context.Background(), net, blocks, feats, RunOptions{Threads: threads}); err != nil {
			return out, err
		}
		t2 := time.Now()
		out.Sampling += t1.Sub(t0)
		out.GNNLayers += time.Duration(float64(t2.Sub(t1)) / layerSpeedup)
		out.Batches++
	}
	return out, nil
}
