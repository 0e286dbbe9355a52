package gnn

import (
	"context"
	"fmt"
	"math"
	"time"

	"graphite/internal/kernels"
	"graphite/internal/sparse"
	"graphite/internal/telemetry"
	"graphite/internal/tensor"
)

// Gradients holds parameter gradients, parallel to Network.Layers.
type Gradients struct {
	W []*tensor.Matrix
	B [][]float32
}

// NewGradients allocates zeroed gradients matching net.
func NewGradients(net *Network) *Gradients {
	g := &Gradients{}
	for _, l := range net.Layers {
		g.W = append(g.W, tensor.NewMatrix(l.W.Rows, l.W.Cols))
		g.B = append(g.B, make([]float32, len(l.B)))
	}
	return g
}

// Backward back-propagates dLogits through the network, filling grads. The
// forward state must come from a Train-mode Forward (which keeps every
// layer's aggregation matrix — the reason layer fusion cannot shrink the a
// footprint in training, §4.2).
//
// Per layer k (following the chain rule through h = act(a·W + b) and
// a = Â·h_prev):
//
//	dz = dh ⊙ act'        dW = aᵀ·dz       db = Σ dz
//	da = dz·Wᵀ            dh_prev = Âᵀ·da
//
// The Âᵀ aggregation runs on the transposed graph with the transposed
// factor array and uses the implementation's aggregation kernel, so the
// backward pass benefits from the same techniques as the forward pass. The
// "one more GEMM than the forward propagation" the paper mentions (§7.1.1)
// is the dW product.
//
// Like Forward, escaped kernel panics convert to returned errors and ctx is
// observed between layers and inside the aggregation kernels.
func Backward(ctx context.Context, net *Network, w *Workload, st *ForwardState, dLogits *tensor.Matrix, grads *Gradients, opts RunOptions) (err error) {
	defer contain(opts.Tel, &err)
	k := net.NumLayers()
	if len(st.A) != k || st.A[k-1] == nil {
		return fmt.Errorf("gnn: forward state lacks aggregation matrices; run Forward with Train=true")
	}
	start := time.Now()
	bsp := opts.Tel.Begin(telemetry.PhaseBackward)
	defer bsp.End()
	gT, fT := w.Transposed()
	dh := dLogits
	for layerIdx := k - 1; layerIdx >= 0; layerIdx-- {
		if cerr := ctxErr(ctx); cerr != nil {
			return cerr
		}
		layer := net.Layers[layerIdx]
		a := st.A[layerIdx]
		relu := layerIdx < k-1

		// Dropout and activation backward.
		dz := dh
		if relu {
			if mask := st.DropMasks[layerIdx]; mask != nil {
				tensor.DropoutBackward(dh, mask, net.Dropout)
			}
			dz = tensor.NewMatrix(dh.Rows, dh.Cols)
			tensor.ReLUBackward(dz, dh, st.H[layerIdx], opts.Threads)
		}

		// Parameter gradients.
		gsp := opts.Tel.Begin(telemetry.PhaseBackwardGEMM)
		tensor.MatMulTransA(grads.W[layerIdx], a, dz, opts.Threads, opts.Tel)
		tensor.SumRows(grads.B[layerIdx], dz)

		if layerIdx == 0 {
			gsp.End()
			break // no gradient needed for the input features
		}

		// da = dz·Wᵀ, then dh_prev = Âᵀ·da.
		da := tensor.NewMatrix(dz.Rows, layer.In())
		tensor.MatMulTransB(da, dz, layer.W, opts.Threads, opts.Tel)
		gsp.End()
		dhPrev := tensor.NewMatrix(dz.Rows, layer.In())
		asp := opts.Tel.Begin(telemetry.PhaseBackwardAgg)
		var aggErr error
		switch opts.Impl {
		case ImplDistGNN:
			aggErr = kernels.DistGNNCtx(ctx, dhPrev, gT, fT, da, opts.Threads, opts.Tel)
		case ImplMKL:
			aggErr = sparse.SpMMCtx(ctx, dhPrev, gT, fT, da, opts.Threads, opts.Tel)
		default:
			aggErr = kernels.BasicCtx(ctx, dhPrev, gT, fT, kernels.NewDenseSource(da), opts.kernelOptions())
		}
		asp.End()
		if aggErr != nil {
			return aggErr
		}
		dh = dhPrev
	}
	st.Timings.Backward += time.Since(start)
	return nil
}

// SGD applies grads to net with the given learning rate.
func SGD(net *Network, grads *Gradients, lr float32) {
	for k, l := range net.Layers {
		gw := grads.W[k]
		for i := 0; i < l.W.Rows; i++ {
			wr, gr := l.W.Row(i), gw.Row(i)
			for j := range wr {
				wr[j] -= lr * gr[j]
			}
		}
		for j := range l.B {
			l.B[j] -= lr * grads.B[k][j]
		}
	}
}

// Adam is a standard Adam optimizer over a network's parameters, provided
// for the example applications that train to convergence.
type Adam struct {
	LR      float32
	Beta1   float32
	Beta2   float32
	Eps     float32
	t       int
	mW, vW  []*tensor.Matrix
	mB, vB  [][]float32
	started bool
}

// NewAdam returns an Adam optimizer with the usual defaults.
func NewAdam(lr float32) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one Adam update.
func (ad *Adam) Step(net *Network, grads *Gradients) {
	if !ad.started {
		for _, l := range net.Layers {
			ad.mW = append(ad.mW, tensor.NewMatrix(l.W.Rows, l.W.Cols))
			ad.vW = append(ad.vW, tensor.NewMatrix(l.W.Rows, l.W.Cols))
			ad.mB = append(ad.mB, make([]float32, len(l.B)))
			ad.vB = append(ad.vB, make([]float32, len(l.B)))
		}
		ad.started = true
	}
	ad.t++
	c1 := 1 - pow(ad.Beta1, ad.t)
	c2 := 1 - pow(ad.Beta2, ad.t)
	upd := func(p, g, m, v []float32) {
		for j := range p {
			m[j] = ad.Beta1*m[j] + (1-ad.Beta1)*g[j]
			v[j] = ad.Beta2*v[j] + (1-ad.Beta2)*g[j]*g[j]
			mh := m[j] / c1
			vh := v[j] / c2
			p[j] -= ad.LR * mh / (sqrt32(vh) + ad.Eps)
		}
	}
	for k, l := range net.Layers {
		for i := 0; i < l.W.Rows; i++ {
			upd(l.W.Row(i), grads.W[k].Row(i), ad.mW[k].Row(i), ad.vW[k].Row(i))
		}
		upd(l.B, grads.B[k], ad.mB[k], ad.vB[k])
	}
}

func pow(b float32, n int) float32 {
	return float32(math.Pow(float64(b), float64(n)))
}

func sqrt32(x float32) float32 {
	return float32(math.Sqrt(float64(x)))
}
