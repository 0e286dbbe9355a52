package gnn

import (
	"context"
	"testing"

	"graphite/internal/graph"
	"graphite/internal/sparse"
	"graphite/internal/tensor"
)

func TestGINNormIsSum(t *testing.T) {
	if GIN.Norm() != sparse.NormSum {
		t.Fatalf("GIN norm %v, want sum", GIN.Norm())
	}
	if GIN.String() != "GIN" {
		t.Fatal("GIN label wrong")
	}
}

func TestGINAllImplsAgree(t *testing.T) {
	w := testWorkload(t, GIN, graph.Wikipedia, 200, 12, false)
	net := testNet(t, GIN, []int{12, 16, 4})
	var ref *tensor.Matrix
	for _, impl := range Impls() {
		st, err := Forward(context.Background(), net, w, RunOptions{Impl: impl, Threads: 2})
		if err != nil {
			t.Fatalf("%v: %v", impl, err)
		}
		if ref == nil {
			ref = st.Logits()
			continue
		}
		// Sum aggregation amplifies values (no normalization), so the
		// tolerance scales with magnitude.
		if d := tensor.MaxAbsDiff(st.Logits(), ref); d > 0.05 {
			t.Errorf("%v: logits differ by %g", impl, d)
		}
	}
}

func TestGINTrainingReducesLoss(t *testing.T) {
	// GIN's unnormalized sums need a small learning rate on high-degree
	// graphs; use the low-degree wikipedia profile.
	w := testWorkload(t, GIN, graph.Wikipedia, 200, 10, true)
	net := testNet(t, GIN, []int{10, 12, 4})
	tr, err := NewTrainer(net, w, RunOptions{Impl: ImplCombined, Threads: 2}, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Train(10)
	if err != nil {
		t.Fatal(err)
	}
	if res[len(res)-1].Loss >= res[0].Loss {
		t.Fatalf("GIN loss did not decrease: %.4f -> %.4f", res[0].Loss, res[len(res)-1].Loss)
	}
}
