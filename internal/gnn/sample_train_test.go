package gnn

import (
	"context"
	"math/rand"
	"testing"

	"graphite/internal/graph"
	"graphite/internal/tensor"
)

// TestSampledGradientsMatchFullBatch: with fanout=0 (full neighbourhoods)
// and a batch of every vertex, the sampled backward pass must produce the
// same parameter gradients as the full-batch path (SAGE's mean block
// factors are exact).
func TestSampledGradientsMatchFullBatch(t *testing.T) {
	n := 70
	g, err := graph.GenerateProfile(graph.Wikipedia, n)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.NewMatrix(n, 10)
	x.FillRandom(rand.New(rand.NewSource(1)), 1)
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = int32(i % 3)
	}
	net := testNet(t, SAGE, []int{10, 8, 3})

	// Full-batch gradients.
	w, err := NewWorkload(g, SAGE, x, labels)
	if err != nil {
		t.Fatal(err)
	}
	opts := RunOptions{Impl: ImplBasic, Threads: 1, Train: true}
	stFull, err := Forward(context.Background(), net, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, dFull, err := SoftmaxCrossEntropy(stFull.Logits(), labels)
	if err != nil {
		t.Fatal(err)
	}
	gFull := NewGradients(net)
	if err := Backward(context.Background(), net, w, stFull, dFull, gFull, opts); err != nil {
		t.Fatal(err)
	}

	// Sampled path with full neighbourhoods over one all-vertex batch.
	batch := make([]int32, n)
	for i := range batch {
		batch[i] = int32(i)
	}
	blocks, err := SampleBlocks(g, SAGE, batch, []int{0, 0}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	feats := GatherRows(x, blocks[0].SrcIDs, 1)
	stS := &SampledState{}
	if _, err := sampledForward(context.Background(), net, blocks, feats, RunOptions{Threads: 1}, stS); err != nil {
		t.Fatal(err)
	}
	_, dS, err := SoftmaxCrossEntropy(stS.Logits(), labels) // batch order == vertex order
	if err != nil {
		t.Fatal(err)
	}
	gS := NewGradients(net)
	if err := SampledBackward(net, blocks, stS, dS, gS, 1); err != nil {
		t.Fatal(err)
	}

	for k := range net.Layers {
		if d := tensor.MaxAbsDiff(gFull.W[k], gS.W[k]); d > 2e-3 {
			t.Errorf("layer %d dW differs by %g", k, d)
		}
		for j := range gFull.B[k] {
			diff := float64(gFull.B[k][j] - gS.B[k][j])
			if diff < 0 {
				diff = -diff
			}
			if diff > 2e-3 {
				t.Errorf("layer %d dB[%d] differs by %g", k, j, diff)
			}
		}
	}
}

func TestSampledTrainerReducesLoss(t *testing.T) {
	n := 400
	g, err := graph.GenerateProfile(graph.Products, n)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.NewMatrix(n, 12)
	x.FillRandom(rand.New(rand.NewSource(3)), 1)
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = int32(i % 4)
		x.Row(i)[labels[i]] += 2 // learnable signal
	}
	net := testNet(t, SAGE, []int{12, 16, 4})
	tr, err := NewSampledTrainer(net, g, x, labels, 64, []int{10, 5}, 0.4, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	first, err := tr.Epoch()
	if err != nil {
		t.Fatal(err)
	}
	var last SampledEpochResult
	for e := 0; e < 5; e++ {
		last, err = tr.Epoch()
		if err != nil {
			t.Fatal(err)
		}
	}
	if last.Loss >= first.Loss {
		t.Fatalf("sampled training loss did not decrease: %.4f -> %.4f", first.Loss, last.Loss)
	}
	if last.Accuracy <= first.Accuracy {
		t.Fatalf("sampled training accuracy did not improve: %.3f -> %.3f", first.Accuracy, last.Accuracy)
	}
	if first.Sampling <= 0 || first.GNNLayers <= 0 || first.Batches != (n+63)/64 {
		t.Fatalf("epoch bookkeeping wrong: %+v", first)
	}
}

func TestNewSampledTrainerValidation(t *testing.T) {
	g, _ := graph.Star(10)
	x := tensor.NewMatrix(10, 4)
	labels := make([]int32, 10)
	net := testNet(t, SAGE, []int{4, 3, 2})
	if _, err := NewSampledTrainer(net, g, x, labels, 4, []int{3}, 0.1, 1, 1); err == nil {
		t.Fatal("fanout/layer mismatch accepted")
	}
	if _, err := NewSampledTrainer(net, g, x, labels, 0, []int{3, 3}, 0.1, 1, 1); err == nil {
		t.Fatal("zero batch accepted")
	}
	if _, err := NewSampledTrainer(net, g, x, labels[:5], 4, []int{3, 3}, 0.1, 1, 1); err == nil {
		t.Fatal("short labels accepted")
	}
}
