package gnn

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"graphite/internal/graph"
	"graphite/internal/tensor"
)

// TestTrainerRejectsDivergedLogits injects Inf features and checks the
// trainer surfaces the divergence instead of silently corrupting weights.
func TestTrainerRejectsDivergedLogits(t *testing.T) {
	g, err := graph.GenerateProfile(graph.Products, 80)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.NewMatrix(80, 6)
	x.FillRandom(rand.New(rand.NewSource(1)), 1)
	x.Set(3, 2, float32(math.Inf(1)))
	labels := make([]int32, 80)
	w, err := NewWorkload(g, GCN, x, labels)
	if err != nil {
		t.Fatal(err)
	}
	net := testNet(t, GCN, []int{6, 4, 2})
	tr, err := NewTrainer(net, w, RunOptions{Impl: ImplBasic}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Epoch(); err == nil {
		t.Fatal("Inf input did not surface as an error")
	}
}

func TestNewTrainerRequiresLabels(t *testing.T) {
	w := testWorkload(t, GCN, graph.Products, 50, 4, false)
	net := testNet(t, GCN, []int{4, 2})
	if _, err := NewTrainer(net, w, RunOptions{}, 0.1); err == nil {
		t.Fatal("unlabeled workload accepted for training")
	}
}

func TestForwardEmptyNetwork(t *testing.T) {
	w := testWorkload(t, GCN, graph.Products, 50, 4, false)
	if _, err := Forward(context.Background(), &Network{}, w, RunOptions{}); err == nil {
		t.Fatal("empty network accepted")
	}
}

func TestRunOptionsDefaults(t *testing.T) {
	o := RunOptions{}
	if o.blockSize() != 64 || o.blocksPerTask() != 4 || o.prefetch() != 4 {
		t.Fatalf("defaults wrong: B=%d T=%d D=%d", o.blockSize(), o.blocksPerTask(), o.prefetch())
	}
	o = RunOptions{BlockSize: 16, BlocksPerTask: 2, PrefetchDistance: -1}
	if o.blockSize() != 16 || o.blocksPerTask() != 2 || o.prefetch() != 0 {
		t.Fatal("explicit values not honoured")
	}
}

func TestTimingsAccumulate(t *testing.T) {
	a := Timings{Aggregate: 1, Update: 2, Fused: 3, Backward: 4}
	b := Timings{Aggregate: 10, Update: 20, Fused: 30, Backward: 40}
	a.Add(b)
	if a.Total() != 110 {
		t.Fatalf("total %d", a.Total())
	}
}

// TestFusedBlockBoundary exercises a block size that does not divide the
// vertex count and exceeds it entirely.
func TestFusedBlockBoundary(t *testing.T) {
	w := testWorkload(t, SAGE, graph.Wikipedia, 101, 8, false)
	net := testNet(t, SAGE, []int{8, 4})
	ref, err := Forward(context.Background(), net, w, RunOptions{Impl: ImplBasic})
	if err != nil {
		t.Fatal(err)
	}
	for _, blockSize := range []int{1, 7, 100, 101, 5000} {
		st, err := Forward(context.Background(), net, w, RunOptions{Impl: ImplFused, BlockSize: blockSize})
		if err != nil {
			t.Fatalf("B=%d: %v", blockSize, err)
		}
		if d := tensor.MaxAbsDiff(st.Logits(), ref.Logits()); d > 1e-3 {
			t.Fatalf("B=%d: logits differ by %g", blockSize, d)
		}
	}
}

// TestSingleLayerNetwork checks the no-hidden-layer edge case (no ReLU, no
// compression of outputs).
func TestSingleLayerNetwork(t *testing.T) {
	w := testWorkload(t, GCN, graph.Papers, 90, 8, true)
	net := testNet(t, GCN, []int{8, 4})
	for _, impl := range Impls() {
		st, err := Forward(context.Background(), net, w, RunOptions{Impl: impl, Train: true})
		if err != nil {
			t.Fatalf("%v: %v", impl, err)
		}
		loss, dl, err := SoftmaxCrossEntropy(st.Logits(), w.Labels)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(loss) {
			t.Fatalf("%v: NaN loss", impl)
		}
		if err := Backward(context.Background(), net, w, st, dl, NewGradients(net), RunOptions{Impl: impl}); err != nil {
			t.Fatalf("%v: backward: %v", impl, err)
		}
	}
}
