package gnn

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"graphite/internal/graph"
	"graphite/internal/locality"
	"graphite/internal/tensor"
)

func testWorkload(t testing.TB, kind Kind, p graph.Profile, n, fin int, labeled bool) *Workload {
	t.Helper()
	g, err := graph.GenerateProfile(p, n)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.NewMatrix(n, fin)
	x.FillSparse(rand.New(rand.NewSource(100)), 1, 0.5)
	var labels []int32
	if labeled {
		rng := rand.New(rand.NewSource(101))
		labels = make([]int32, n)
		for i := range labels {
			labels[i] = int32(rng.Intn(4))
		}
	}
	w, err := NewWorkload(g, kind, x, labels)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func testNet(t testing.TB, kind Kind, dims []int) *Network {
	t.Helper()
	net, err := NewNetwork(Config{Kind: kind, Dims: dims, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestNewNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(Config{Dims: []int{5}}); err == nil {
		t.Fatal("single-dim network accepted")
	}
	if _, err := NewNetwork(Config{Dims: []int{5, 0}}); err == nil {
		t.Fatal("zero dim accepted")
	}
	if _, err := NewNetwork(Config{Dims: []int{5, 3}, Dropout: 1.0}); err == nil {
		t.Fatal("dropout=1 accepted")
	}
	net := testNet(t, GCN, []int{8, 16, 4})
	if net.NumLayers() != 2 {
		t.Fatalf("layers %d, want 2", net.NumLayers())
	}
	if net.NumParams() != 8*16+16+16*4+4 {
		t.Fatalf("params %d", net.NumParams())
	}
}

func TestAllImplsProduceSameLogits(t *testing.T) {
	for _, kind := range []Kind{GCN, SAGE} {
		w := testWorkload(t, kind, graph.Products, 250, 24, false)
		net := testNet(t, kind, []int{24, 32, 5})
		var ref *tensor.Matrix
		for _, impl := range Impls() {
			for _, train := range []bool{false, true} {
				st, err := Forward(context.Background(), net, w, RunOptions{Impl: impl, Threads: 2, Train: train, BlockSize: 16})
				if err != nil {
					t.Fatalf("%v %v train=%v: %v", kind, impl, train, err)
				}
				if ref == nil {
					ref = st.Logits()
					continue
				}
				if d := tensor.MaxAbsDiff(st.Logits(), ref); d > 2e-3 {
					t.Errorf("%v %v train=%v: logits differ from DistGNN by %g", kind, impl, train, d)
				}
			}
		}
	}
}

func TestForwardWithLocalityOrder(t *testing.T) {
	w := testWorkload(t, GCN, graph.Products, 200, 16, false)
	net := testNet(t, GCN, []int{16, 8, 3})
	base, err := Forward(context.Background(), net, w, RunOptions{Impl: ImplCombined, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	order := locality.Reorder(w.G)
	got, err := Forward(context.Background(), net, w, RunOptions{Impl: ImplCombined, Threads: 2, Order: order, BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(got.Logits(), base.Logits()); d > 2e-3 {
		t.Fatalf("reordered logits differ by %g", d)
	}
}

func TestCompressedInferenceSkipsDenseHidden(t *testing.T) {
	w := testWorkload(t, SAGE, graph.Wikipedia, 150, 16, false)
	net := testNet(t, SAGE, []int{16, 8, 3})
	st, err := Forward(context.Background(), net, w, RunOptions{Impl: ImplCombined, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.H[0] != nil {
		t.Fatal("compressed inference kept a dense hidden matrix")
	}
	if st.HC[0] == nil {
		t.Fatal("compressed inference missing the compressed hidden matrix")
	}
	if st.Logits() == nil {
		t.Fatal("missing logits")
	}
}

func TestTrainModeKeepsAggregations(t *testing.T) {
	w := testWorkload(t, GCN, graph.Papers, 150, 16, false)
	net := testNet(t, GCN, []int{16, 8, 3})
	st, err := Forward(context.Background(), net, w, RunOptions{Impl: ImplFused, Threads: 2, Train: true})
	if err != nil {
		t.Fatal(err)
	}
	for k := range net.Layers {
		if st.A[k] == nil {
			t.Fatalf("layer %d aggregation not kept in training", k)
		}
	}
	stInf, err := Forward(context.Background(), net, w, RunOptions{Impl: ImplFused, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stInf.A[0] != nil {
		t.Fatal("inference kept the aggregation matrix (should reuse the block buffer)")
	}
}

func TestForwardDimensionMismatch(t *testing.T) {
	w := testWorkload(t, GCN, graph.Products, 100, 16, false)
	net := testNet(t, GCN, []int{8, 4}) // expects 8 input features, workload has 16
	if _, err := Forward(context.Background(), net, w, RunOptions{}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

// TestGradientCheck verifies Backward against numeric differentiation of
// the loss with respect to a sample of weights and biases.
func TestGradientCheck(t *testing.T) {
	for _, kind := range []Kind{GCN, SAGE} {
		w := testWorkload(t, kind, graph.Wikipedia, 60, 6, true)
		net := testNet(t, kind, []int{6, 5, 4})
		opts := RunOptions{Impl: ImplBasic, Threads: 1, Train: true}

		lossAt := func() float64 {
			st, err := Forward(context.Background(), net, w, opts)
			if err != nil {
				t.Fatal(err)
			}
			loss, _, err := SoftmaxCrossEntropy(st.Logits(), w.Labels)
			if err != nil {
				t.Fatal(err)
			}
			return loss
		}
		st, err := Forward(context.Background(), net, w, opts)
		if err != nil {
			t.Fatal(err)
		}
		_, dLogits, err := SoftmaxCrossEntropy(st.Logits(), w.Labels)
		if err != nil {
			t.Fatal(err)
		}
		grads := NewGradients(net)
		if err := Backward(context.Background(), net, w, st, dLogits, grads, opts); err != nil {
			t.Fatal(err)
		}

		const eps = 1e-2
		check := func(name string, get func() float32, set func(float32), analytic float32) {
			orig := get()
			set(orig + eps)
			lp := lossAt()
			set(orig - eps)
			lm := lossAt()
			set(orig)
			numeric := (lp - lm) / (2 * eps)
			if math.Abs(numeric-float64(analytic)) > 5e-3+0.15*math.Abs(numeric) {
				t.Errorf("%v %s: analytic %g vs numeric %g", kind, name, analytic, numeric)
			}
		}
		rng := rand.New(rand.NewSource(5))
		for k, layer := range net.Layers {
			for trial := 0; trial < 4; trial++ {
				i, j := rng.Intn(layer.W.Rows), rng.Intn(layer.W.Cols)
				check("W", func() float32 { return layer.W.At(i, j) },
					func(v float32) { layer.W.Set(i, j, v) }, grads.W[k].At(i, j))
			}
			j := rng.Intn(len(layer.B))
			check("B", func() float32 { return layer.B[j] },
				func(v float32) { layer.B[j] = v }, grads.B[k][j])
		}
	}
}

func TestBackwardRequiresTrainState(t *testing.T) {
	w := testWorkload(t, GCN, graph.Products, 60, 6, true)
	net := testNet(t, GCN, []int{6, 4})
	st, err := Forward(context.Background(), net, w, RunOptions{Impl: ImplBasic})
	if err != nil {
		t.Fatal(err)
	}
	dl := tensor.NewMatrix(60, 4)
	if err := Backward(context.Background(), net, w, st, dl, NewGradients(net), RunOptions{}); err == nil {
		t.Fatal("backward accepted inference-mode state")
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	for _, impl := range []Impl{ImplDistGNN, ImplBasic, ImplCombined} {
		w := testWorkload(t, GCN, graph.Products, 200, 12, true)
		net := testNet(t, GCN, []int{12, 16, 4})
		tr, err := NewTrainer(net, w, RunOptions{Impl: impl, Threads: 2}, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		results, err := tr.Train(15)
		if err != nil {
			t.Fatalf("%v: %v", impl, err)
		}
		first, last := results[0].Loss, results[len(results)-1].Loss
		if last >= first {
			t.Errorf("%v: loss did not decrease: %.4f -> %.4f", impl, first, last)
		}
	}
}

func TestTrainingWithDropoutAndLocalityRuns(t *testing.T) {
	g, err := graph.GenerateProfile(graph.Products, 150)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.NewMatrix(150, 10)
	x.FillRandom(rand.New(rand.NewSource(1)), 1)
	labels := make([]int32, 150)
	for i := range labels {
		labels[i] = int32(i % 3)
	}
	w, err := NewWorkload(g, SAGE, x, labels)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(Config{Kind: SAGE, Dims: []int{10, 8, 3}, Dropout: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrainer(net, w, RunOptions{
		Impl: ImplCombined, Threads: 2, Order: locality.Reorder(w.G),
	}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Train(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("got %d epochs", len(res))
	}
	for _, r := range res {
		if math.IsNaN(r.Loss) {
			t.Fatal("NaN loss")
		}
	}
}

func TestSoftmaxCrossEntropy(t *testing.T) {
	logits := tensor.NewMatrix(2, 3)
	logits.Set(0, 0, 10) // confident, correct
	logits.Set(1, 2, 10) // confident, wrong (label 0)
	labels := []int32{0, 0}
	loss, grad, err := SoftmaxCrossEntropy(logits, labels)
	if err != nil {
		t.Fatal(err)
	}
	if loss < 4 { // second row contributes ≈10
		t.Fatalf("loss %g too small", loss)
	}
	// Gradient row 0 ≈ 0 (already correct); row 1 has -0.5 at label, +0.5 at 2.
	if math.Abs(float64(grad.At(1, 0))+0.5) > 1e-3 || math.Abs(float64(grad.At(1, 2))-0.5) > 1e-3 {
		t.Fatalf("gradient wrong: %v", grad.Row(1))
	}
	if Accuracy(logits, labels) != 0.5 {
		t.Fatalf("accuracy %g, want 0.5", Accuracy(logits, labels))
	}
}

func TestSoftmaxCrossEntropyUnlabeled(t *testing.T) {
	logits := tensor.NewMatrix(3, 2)
	labels := []int32{-1, -1, -1}
	loss, grad, err := SoftmaxCrossEntropy(logits, labels)
	if err != nil {
		t.Fatal(err)
	}
	if loss != 0 {
		t.Fatalf("loss %g for fully unlabeled", loss)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			if grad.At(i, j) != 0 {
				t.Fatal("nonzero gradient for unlabeled vertex")
			}
		}
	}
	if _, _, err := SoftmaxCrossEntropy(logits, []int32{5, 0, 0}); err == nil {
		t.Fatal("out-of-range label accepted")
	}
	if _, _, err := SoftmaxCrossEntropy(logits, []int32{0}); err == nil {
		t.Fatal("short label slice accepted")
	}
}

func TestAdamConverges(t *testing.T) {
	w := testWorkload(t, GCN, graph.Products, 150, 8, true)
	net := testNet(t, GCN, []int{8, 12, 4})
	tr, err := NewTrainer(net, w, RunOptions{Impl: ImplBasic, Threads: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr.Adam = NewAdam(0.02)
	res, err := tr.Train(20)
	if err != nil {
		t.Fatal(err)
	}
	if res[19].Loss >= res[0].Loss {
		t.Fatalf("Adam loss did not decrease: %.4f -> %.4f", res[0].Loss, res[19].Loss)
	}
}

func TestWorkloadValidation(t *testing.T) {
	g, _ := graph.FromEdges(3, []int32{0}, []int32{1})
	x := tensor.NewMatrix(2, 4) // wrong row count
	if _, err := NewWorkload(g, GCN, x, nil); err == nil {
		t.Fatal("row mismatch accepted")
	}
	x3 := tensor.NewMatrix(3, 4)
	if _, err := NewWorkload(g, GCN, x3, []int32{0}); err == nil {
		t.Fatal("label mismatch accepted")
	}
	if _, err := NewWorkload(nil, GCN, x3, nil); err == nil {
		t.Fatal("nil graph accepted")
	}
}

func TestKindStrings(t *testing.T) {
	if GCN.String() != "GCN" || SAGE.String() != "GraphSAGE" {
		t.Fatal("Kind.String wrong")
	}
	for _, im := range Impls() {
		if im.String() == "" {
			t.Fatal("empty Impl string")
		}
	}
	if !ImplCombined.UsesCompression() || !ImplCombined.UsesFusion() {
		t.Fatal("combined flags wrong")
	}
	if ImplBasic.UsesCompression() || ImplBasic.UsesFusion() {
		t.Fatal("basic flags wrong")
	}
}
