package gnn

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"graphite/internal/compress"
	"graphite/internal/kernels"
	"graphite/internal/sched"
	"graphite/internal/sparse"
	"graphite/internal/telemetry"
	"graphite/internal/tensor"
)

// Impl selects the layer implementation variant, matching the names used in
// the evaluation (§7.1.1).
type Impl int

const (
	// ImplDistGNN is the baseline: statically scheduled aggregation plus
	// MKL-style GEMM update.
	ImplDistGNN Impl = iota
	// ImplMKL computes the aggregation with SpMM and the update with GEMM.
	ImplMKL
	// ImplBasic is the paper's Algorithm 1 aggregation plus GEMM update.
	ImplBasic
	// ImplFused is layer fusion (Algorithm 2) on top of basic.
	ImplFused
	// ImplCompressed is basic plus feature compression (§4.3).
	ImplCompressed
	// ImplCombined is fusion plus compression.
	ImplCombined
)

// Impls lists all variants in the paper's presentation order.
func Impls() []Impl {
	return []Impl{ImplDistGNN, ImplMKL, ImplBasic, ImplFused, ImplCompressed, ImplCombined}
}

// String implements fmt.Stringer with the paper's labels.
func (im Impl) String() string {
	switch im {
	case ImplDistGNN:
		return "DistGNN"
	case ImplMKL:
		return "MKL"
	case ImplBasic:
		return "basic"
	case ImplFused:
		return "fusion"
	case ImplCompressed:
		return "compression"
	case ImplCombined:
		return "combined"
	}
	return fmt.Sprintf("Impl(%d)", int(im))
}

// UsesCompression reports whether the variant stores hidden features
// compressed.
func (im Impl) UsesCompression() bool { return im == ImplCompressed || im == ImplCombined }

// UsesFusion reports whether the variant fuses aggregation and update.
func (im Impl) UsesFusion() bool { return im == ImplFused || im == ImplCombined }

// RunOptions tunes a forward/backward execution.
type RunOptions struct {
	Impl    Impl
	Threads int
	// BlockSize is B in Algorithm 2 (default 64): vertices aggregated and
	// then updated per fused block. Sized so the a-block stays in cache
	// between the two phases (Fig. 5b).
	BlockSize int
	// BlocksPerTask is T in Algorithm 2 (default 4).
	BlocksPerTask int
	// PrefetchDistance is D in Algorithm 1 (default 4).
	PrefetchDistance int
	// Order is the vertex processing order (§4.4); nil = natural order.
	Order []int32
	// Train keeps the aggregation matrices for back-propagation and
	// enables dropout (§4.2: the footprint reduction of Fig. 5c is
	// inference-only).
	Train bool
	// DropoutSeed seeds the dropout RNG streams.
	DropoutSeed int64
	// Tel receives phase spans and kernel counters; nil disables
	// instrumentation (the hot paths then pay one pointer test per
	// chunk, nothing per edge).
	Tel *telemetry.Sink
}

func (o RunOptions) blockSize() int {
	if o.BlockSize <= 0 {
		return 64
	}
	return o.BlockSize
}

func (o RunOptions) blocksPerTask() int {
	if o.BlocksPerTask <= 0 {
		return 4
	}
	return o.BlocksPerTask
}

func (o RunOptions) prefetch() int {
	if o.PrefetchDistance < 0 {
		return 0
	}
	if o.PrefetchDistance == 0 {
		return 4
	}
	return o.PrefetchDistance
}

func (o RunOptions) kernelOptions() kernels.Options {
	return kernels.Options{
		Threads:          o.Threads,
		PrefetchDistance: o.prefetch(),
		Order:            o.Order,
		Tel:              o.Tel,
	}
}

// Timings accumulates phase wall-clock time. Unfused variants split the
// layer into aggregation and update (the Fig. 13 breakdown); fused variants
// report a single fused time because the phases interleave per block.
type Timings struct {
	Aggregate time.Duration
	Update    time.Duration
	Fused     time.Duration
	Backward  time.Duration
}

// Total returns the sum of all phases.
func (t Timings) Total() time.Duration {
	return t.Aggregate + t.Update + t.Fused + t.Backward
}

// Add accumulates other into t.
func (t *Timings) Add(other Timings) {
	t.Aggregate += other.Aggregate
	t.Update += other.Update
	t.Fused += other.Fused
	t.Backward += other.Backward
}

// ForwardState holds everything the backward pass needs, plus the phase
// timings.
type ForwardState struct {
	// H[k] is layer k's post-activation output; H[K-1] holds the logits.
	// Hidden entries are nil for compressed inference (the compressed
	// form is the only stored copy, Fig. 5c's footprint saving analogue).
	H []*tensor.Matrix
	// HC[k] is the compressed form of H[k] for compressed variants.
	HC []*compress.Matrix
	// A[k] is layer k's aggregation output, kept only in training.
	A []*tensor.Matrix
	// DropMasks[k] records layer k's dropout mask (nil when unused).
	DropMasks [][]bool
	Timings   Timings
}

// Logits returns the final layer output.
func (s *ForwardState) Logits() *tensor.Matrix { return s.H[len(s.H)-1] }

// Forward runs the full K-layer forward pass with the selected
// implementation. Panics escaping the kernels — worker panics contained by
// the scheduler as *sched.WorkerError, and caller-goroutine shape panics —
// are converted to returned errors here, so a malformed workload cannot
// kill the process. Cancellation of ctx aborts between layers and at chunk
// boundaries inside each layer; a nil or background ctx keeps the kernels
// on their uncancellable fast path (no per-row branches).
func Forward(ctx context.Context, net *Network, w *Workload, opts RunOptions) (st *ForwardState, err error) {
	defer contain(opts.Tel, &err)
	if net.NumLayers() == 0 {
		return nil, fmt.Errorf("gnn: empty network")
	}
	if net.Layers[0].In() != w.X.Cols {
		return nil, fmt.Errorf("gnn: layer 0 expects %d input features, workload has %d",
			net.Layers[0].In(), w.X.Cols)
	}
	k := net.NumLayers()
	st = &ForwardState{
		H:         make([]*tensor.Matrix, k),
		HC:        make([]*compress.Matrix, k),
		A:         make([]*tensor.Matrix, k),
		DropMasks: make([][]bool, k),
	}
	n := w.G.NumVertices()

	fsp := opts.Tel.Begin(telemetry.PhaseForward)
	defer fsp.End()

	// Current layer input: dense and/or compressed.
	x := w.X
	var xc *compress.Matrix
	if opts.Impl.UsesCompression() {
		if w.XC == nil {
			csp := opts.Tel.Begin(telemetry.PhaseCompressInput)
			w.CompressedInput(opts.Threads)
			csp.End()
			opts.Tel.Add(telemetry.CtrRowsCompressed, int64(n))
		}
		xc = w.XC
	}

	for layerIdx, layer := range net.Layers {
		if cerr := ctxErr(ctx); cerr != nil {
			return nil, cerr
		}
		if layer.In() != x.Cols {
			return nil, fmt.Errorf("gnn: layer %d expects %d inputs, got %d", layerIdx, layer.In(), x.Cols)
		}
		lsp := opts.Tel.Begin(telemetry.LayerName(layerIdx))
		relu := layerIdx < k-1
		wantCompressedOut := opts.Impl.UsesCompression() && relu
		keepDense := opts.Train || !wantCompressedOut

		var src kernels.Source
		if xc != nil {
			src = kernels.NewCompressedSource(xc)
		} else {
			src = kernels.NewDenseSource(x)
		}

		var hOut *tensor.Matrix
		if keepDense {
			hOut = tensor.NewMatrix(n, layer.Out())
		}
		var hcOut *compress.Matrix
		if wantCompressedOut {
			hcOut = compress.NewMatrix(n, layer.Out())
		}
		ep := epilogue{
			relu:     relu,
			dropout:  0,
			dense:    hOut,
			comp:     hcOut,
			dropSeed: opts.DropoutSeed + int64(layerIdx)*7919,
		}
		if opts.Train && relu && net.Dropout > 0 {
			ep.dropout = net.Dropout
			st.DropMasks[layerIdx] = make([]bool, n*layer.Out())
			ep.mask = st.DropMasks[layerIdx]
		}

		if opts.Impl.UsesFusion() {
			fusp := opts.Tel.Begin(telemetry.PhaseFused)
			a, fusedTime, ferr := fusedLayer(ctx, w, src, layer, ep, opts)
			fusp.End()
			if ferr != nil {
				return nil, ferr
			}
			st.Timings.Fused += fusedTime
			if opts.Train {
				st.A[layerIdx] = a
			}
		} else {
			a := tensor.NewMatrix(n, layer.In())
			asp := opts.Tel.Begin(telemetry.PhaseAggregate)
			t0 := time.Now()
			var aggErr error
			switch opts.Impl {
			case ImplDistGNN:
				aggErr = kernels.DistGNNCtx(ctx, a, w.G, w.Factors, x, opts.Threads, opts.Tel)
			case ImplMKL:
				aggErr = sparse.SpMMCtx(ctx, a, w.G, w.Factors, x, opts.Threads, opts.Tel)
			default:
				aggErr = kernels.BasicCtx(ctx, a, w.G, w.Factors, src, opts.kernelOptions())
			}
			t1 := time.Now()
			asp.End()
			if aggErr != nil {
				return nil, aggErr
			}
			usp := opts.Tel.Begin(telemetry.PhaseUpdate)
			uerr := unfusedUpdate(ctx, a, layer, ep, opts)
			t2 := time.Now()
			usp.End()
			if uerr != nil {
				return nil, uerr
			}
			st.Timings.Aggregate += t1.Sub(t0)
			st.Timings.Update += t2.Sub(t1)
			if opts.Train {
				st.A[layerIdx] = a
			}
		}
		lsp.End()

		st.H[layerIdx] = hOut
		st.HC[layerIdx] = hcOut
		x, xc = hOut, hcOut
		if hOut == nil && hcOut == nil {
			return nil, fmt.Errorf("gnn: layer %d produced no output", layerIdx)
		}
		if hOut == nil {
			// Compressed-only hidden output: the next layer reads the
			// compressed matrix; keep x's shape bookkeeping via a header
			// only (cols checked against xc below).
			x = &tensor.Matrix{Rows: n, Cols: layer.Out()}
		}
	}
	return st, nil
}

// epilogue is the per-row post-GEMM step: bias, activation, dropout, and
// output placement (dense and/or compressed).
type epilogue struct {
	relu     bool
	dropout  float64
	mask     []bool
	dense    *tensor.Matrix
	comp     *compress.Matrix
	dropSeed int64
}

// finishRow applies bias/activation/dropout to z (a freshly computed GEMM
// row for vertex v) and stores it.
func (ep *epilogue) finishRow(z []float32, bias []float32, v int, rng *rand.Rand) {
	for j := range z {
		val := z[j] + bias[j]
		if ep.relu && val < 0 {
			val = 0
		}
		z[j] = val
	}
	if ep.dropout > 0 {
		scale := float32(1 / (1 - ep.dropout))
		base := v * len(z)
		for j := range z {
			if rng.Float64() < ep.dropout {
				z[j] = 0
				ep.mask[base+j] = false
			} else {
				z[j] *= scale
				ep.mask[base+j] = true
			}
		}
	}
	if ep.dense != nil {
		copy(ep.dense.Row(v), z)
	}
	if ep.comp != nil {
		ep.comp.CompressRow(v, z)
	}
}

// unfusedUpdate runs the whole update phase after a full aggregation:
// z = a·W + b with activation/dropout/compression, parallel over rows. The
// cursor observes ctx, so cancellation drains the workers at chunk
// granularity; worker panics come back as *sched.WorkerError.
func unfusedUpdate(ctx context.Context, a *tensor.Matrix, layer *Layer, ep epilogue, opts RunOptions) error {
	axpyOut := kernels.MakeAXPY(layer.Out())
	cur := sched.NewCursorCtx(ctx, a.Rows, 64)
	return sched.ForEachThreadCtx(ctx, opts.Threads, opts.Tel, func(thread int) {
		rng := rand.New(rand.NewSource(ep.dropSeed + int64(thread)))
		z := make([]float32, layer.Out())
		var chunks, rows int64
		t0 := time.Now()
		for {
			s, e, ok := cur.Next()
			if !ok {
				break
			}
			chunks++
			rows += int64(e - s)
			for v := s; v < e; v++ {
				rowGEMM(z, a.Row(v), layer.W, axpyOut)
				ep.finishRow(z, layer.B, v, rng)
			}
		}
		flushUpdateCounters(opts.Tel, thread, chunks, rows, time.Since(t0), layer, ep.comp != nil)
	})
}

// flushUpdateCounters accounts one update-phase worker's totals: scheduler
// claims, dense-equivalent GEMM FLOPs for its rows, and (when the epilogue
// writes a compressed output) one compressed row per row produced. One call
// per worker keeps every atomic off the per-row path.
func flushUpdateCounters(tel *telemetry.Sink, worker int, chunks, rows int64, busy time.Duration, layer *Layer, compressedOut bool) {
	if !tel.Enabled() || chunks == 0 {
		return
	}
	tel.WorkerClaim(worker, chunks, rows, busy)
	tel.Add(telemetry.CtrSchedChunks, chunks)
	tel.Add(telemetry.CtrSchedRows, rows)
	tel.Add(telemetry.CtrGEMMFLOPs, rows*tensor.GEMMFLOPs(1, layer.In(), layer.Out()))
	if compressedOut {
		tel.Add(telemetry.CtrRowsCompressed, rows)
	}
}

// rowGEMM computes z = row·W using the width-specialised axpy.
func rowGEMM(z, row []float32, w *tensor.Matrix, axpy func(dst, src []float32, alpha float32)) {
	clear(z)
	for l, av := range row {
		if av == 0 {
			continue
		}
		axpy(z, w.Row(l), av)
	}
}

// fusedLayer is the Algorithm 2 / Algorithm 5-style fused driver: each
// thread claims tasks of T blocks of B vertices, aggregates a block, then
// immediately updates it while the block's a-rows are still cache resident
// (Fig. 5b). Inference reuses one per-thread a-buffer (Fig. 5c); training
// writes a to its global rows and returns the matrix for backward.
func fusedLayer(ctx context.Context, w *Workload, src kernels.Source, layer *Layer, ep epilogue, opts RunOptions) (*tensor.Matrix, time.Duration, error) {
	n := w.G.NumVertices()
	blockSz := opts.blockSize()
	taskSz := blockSz * opts.blocksPerTask()
	kopt := opts.kernelOptions()
	axpyOut := kernels.MakeAXPY(layer.Out())

	var aFull *tensor.Matrix
	if opts.Train {
		aFull = tensor.NewMatrix(n, layer.In())
	}
	_, srcCompressed := src.(*kernels.CompressedSource)
	start := time.Now()
	cur := sched.NewCursorCtx(ctx, n, taskSz)
	err := sched.ForEachThreadCtx(ctx, opts.Threads, opts.Tel, func(thread int) {
		rng := rand.New(rand.NewSource(ep.dropSeed + int64(thread)))
		var aBuf *tensor.Matrix
		if !opts.Train {
			aBuf = tensor.NewMatrix(blockSz, layer.In())
		}
		z := make([]float32, layer.Out())
		var chunks, rows, edges int64
		t0 := time.Now()
		for {
			ts, te, ok := cur.Next()
			if !ok {
				break
			}
			chunks++
			rows += int64(te - ts)
			for bs := ts; bs < te; bs += blockSz {
				be := bs + blockSz
				if be > te {
					be = te
				}
				// Aggregation half of the j-loop iteration.
				if opts.Train {
					kernels.AggregateBlockByVertex(aFull, w.G, w.Factors, src, kopt, bs, be)
				} else {
					kernels.AggregateBlock(aBuf, 0, w.G, w.Factors, src, kopt, bs, be)
				}
				// Update half, while the a-block is cache resident.
				for i := bs; i < be; i++ {
					v := i
					if opts.Order != nil {
						v = int(opts.Order[i])
					}
					edges += int64(w.G.Ptr[v+1] - w.G.Ptr[v])
					var aRow []float32
					if opts.Train {
						aRow = aFull.Row(v)
					} else {
						aRow = aBuf.Row(i - bs)
					}
					rowGEMM(z, aRow, layer.W, axpyOut)
					ep.finishRow(z, layer.B, v, rng)
				}
			}
		}
		if opts.Tel.Enabled() && chunks > 0 {
			flushUpdateCounters(opts.Tel, thread, chunks, rows, time.Since(t0), layer, ep.comp != nil)
			opts.Tel.Add(telemetry.CtrVerticesAggregated, rows)
			opts.Tel.Add(telemetry.CtrEdgesAggregated, edges)
			if srcCompressed {
				opts.Tel.Add(telemetry.CtrRowsDecompressed, edges)
			}
		}
	})
	return aFull, time.Since(start), err
}
