package gnn

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"graphite/internal/graph"
	"graphite/internal/tensor"
)

// SampledState keeps what the sampled backward pass needs: each layer's
// input (gathered features for blocks[k].SrcIDs), aggregation output, and
// post-activation output.
type SampledState struct {
	Inputs []*tensor.Matrix // layer k input, rows = blocks[k].SrcIDs
	A      []*tensor.Matrix // layer k aggregation, rows = blocks[k].NumDst
	H      []*tensor.Matrix // layer k output, rows = blocks[k].NumDst
}

// Logits returns the final layer's output.
func (s *SampledState) Logits() *tensor.Matrix { return s.H[len(s.H)-1] }

// SampledBackward back-propagates dLogits through the blocks, accumulating
// into grads (so multiple mini-batches can share one gradient buffer when
// accumulation is wanted; call grads' zeroing yourself between steps).
func SampledBackward(net *Network, blocks []*Block, st *SampledState, dLogits *tensor.Matrix, grads *Gradients, threads int) error {
	k := net.NumLayers()
	if len(st.A) != k {
		return fmt.Errorf("gnn: state has %d layers, network %d", len(st.A), k)
	}
	dh := dLogits
	for layerIdx := k - 1; layerIdx >= 0; layerIdx-- {
		layer := net.Layers[layerIdx]
		blk := blocks[layerIdx]
		dz := dh
		if layerIdx < k-1 {
			dz = tensor.NewMatrix(dh.Rows, dh.Cols)
			tensor.ReLUBackward(dz, dh, st.H[layerIdx], threads)
		}
		dW := tensor.NewMatrix(layer.In(), layer.Out())
		tensor.MatMulTransA(dW, st.A[layerIdx], dz, threads, nil)
		for i := 0; i < dW.Rows; i++ {
			tensor.AXPY(grads.W[layerIdx].Row(i), dW.Row(i), 1)
		}
		db := make([]float32, layer.Out())
		tensor.SumRows(db, dz)
		tensor.AXPY(grads.B[layerIdx], db, 1)
		if layerIdx == 0 {
			break
		}
		da := tensor.NewMatrix(dz.Rows, layer.In())
		tensor.MatMulTransB(da, dz, layer.W, threads, nil)
		// Transposed block aggregation: scatter each destination's da into
		// its sources. Serial over destinations — sources overlap across
		// rows so the scatter would race if parallelised naively.
		dhPrev := tensor.NewMatrix(len(blk.SrcIDs), layer.In())
		for i := 0; i < blk.NumDst; i++ {
			src := da.Row(i)
			for eIdx := blk.SubG.Ptr[i]; eIdx < blk.SubG.Ptr[i+1]; eIdx++ {
				tensor.AXPY(dhPrev.Row(int(blk.SubG.Col[eIdx])), src, blk.Factors[eIdx])
			}
		}
		dh = dhPrev
	}
	return nil
}

// SampledTrainer drives mini-batch training with neighbourhood sampling —
// the workflow the paper profiles in §3 to motivate full-batch CPU
// training (Fig. 2 shows sampling dominating it).
type SampledTrainer struct {
	Net       *Network
	G         *graph.CSR
	X         *tensor.Matrix
	Labels    []int32
	BatchSize int
	Fanouts   []int
	LR        float32
	Threads   int

	rng   *rand.Rand
	grads *Gradients
}

// NewSampledTrainer validates and wires a sampled trainer.
func NewSampledTrainer(net *Network, g *graph.CSR, x *tensor.Matrix, labels []int32, batchSize int, fanouts []int, lr float32, threads int, seed int64) (*SampledTrainer, error) {
	if len(fanouts) != net.NumLayers() {
		return nil, fmt.Errorf("gnn: %d fanouts for %d layers", len(fanouts), net.NumLayers())
	}
	if batchSize <= 0 {
		return nil, fmt.Errorf("gnn: batch size %d", batchSize)
	}
	if len(labels) != g.NumVertices() || x.Rows != g.NumVertices() {
		return nil, fmt.Errorf("gnn: labels/features do not cover the graph")
	}
	return &SampledTrainer{
		Net: net, G: g, X: x, Labels: labels, BatchSize: batchSize,
		Fanouts: fanouts, LR: lr, Threads: threads,
		rng: rand.New(rand.NewSource(seed)), grads: NewGradients(net),
	}, nil
}

// SampledEpochResult reports one sampled epoch.
type SampledEpochResult struct {
	Loss      float64 // mean over batches
	Accuracy  float64 // over all batch vertices
	Sampling  time.Duration
	GNNLayers time.Duration
	Batches   int
}

// Epoch runs one epoch of sampled mini-batch SGD over all vertices.
func (t *SampledTrainer) Epoch() (SampledEpochResult, error) {
	n := t.G.NumVertices()
	perm := t.rng.Perm(n)
	var out SampledEpochResult
	var lossSum float64
	correct, scored := 0, 0
	for start := 0; start < n; start += t.BatchSize {
		end := start + t.BatchSize
		if end > n {
			end = n
		}
		batch := make([]int32, end-start)
		batchLabels := make([]int32, end-start)
		for i := range batch {
			batch[i] = int32(perm[start+i])
			batchLabels[i] = t.Labels[batch[i]]
		}
		t0 := time.Now()
		blocks, err := SampleBlocks(t.G, t.Net.Kind, batch, t.Fanouts, t.rng)
		if err != nil {
			return out, err
		}
		feats := GatherRows(t.X, blocks[0].SrcIDs, t.Threads)
		t1 := time.Now()
		st := &SampledState{}
		if _, err := sampledForward(context.Background(), t.Net, blocks, feats, RunOptions{Threads: t.Threads}, st); err != nil {
			return out, err
		}
		loss, dLogits, err := SoftmaxCrossEntropy(st.Logits(), batchLabels)
		if err != nil {
			return out, err
		}
		lossSum += loss
		for i, lb := range batchLabels {
			if lb < 0 {
				continue
			}
			scored++
			row := st.Logits().Row(i)
			best := 0
			for j := 1; j < len(row); j++ {
				if row[j] > row[best] {
					best = j
				}
			}
			if int32(best) == lb {
				correct++
			}
		}
		zeroGradients(t.grads)
		if err := SampledBackward(t.Net, blocks, st, dLogits, t.grads, t.Threads); err != nil {
			return out, err
		}
		SGD(t.Net, t.grads, t.LR)
		out.GNNLayers += time.Since(t1)
		out.Sampling += t1.Sub(t0)
		out.Batches++
	}
	if out.Batches > 0 {
		out.Loss = lossSum / float64(out.Batches)
	}
	if scored > 0 {
		out.Accuracy = float64(correct) / float64(scored)
	}
	return out, nil
}

func zeroGradients(g *Gradients) {
	for k := range g.W {
		g.W[k].Zero()
		clear(g.B[k])
	}
}
