package gnn

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"graphite/internal/graph"
	"graphite/internal/tensor"
)

// TestSoftmaxGradientRowsSumToZero: for every labeled vertex, the
// cross-entropy gradient row sums to zero (softmax probabilities sum to 1,
// minus the one-hot).
func TestSoftmaxGradientRowsSumToZero(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := rng.Intn(20) + 1
		cols := rng.Intn(6) + 2
		logits := tensor.NewMatrix(rows, cols)
		logits.FillRandom(rng, 3)
		labels := make([]int32, rows)
		for i := range labels {
			labels[i] = int32(rng.Intn(cols + 1)) // cols means unlabeled
			if int(labels[i]) == cols {
				labels[i] = -1
			}
		}
		_, grad, err := SoftmaxCrossEntropy(logits, labels)
		if err != nil {
			return false
		}
		for i := 0; i < rows; i++ {
			var sum float64
			for _, v := range grad.Row(i) {
				sum += float64(v)
			}
			if math.Abs(sum) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestForwardPermutationEquivariance: relabelling the graph's vertices and
// permuting the feature rows identically must permute the logits the same
// way (GNNs are permutation equivariant).
func TestForwardPermutationEquivariance(t *testing.T) {
	n := 60
	g, err := graph.GenerateProfile(graph.Wikipedia, n)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.NewMatrix(n, 8)
	x.FillRandom(rand.New(rand.NewSource(3)), 1)
	net := testNet(t, GCN, []int{8, 6, 3})

	w, err := NewWorkload(g, GCN, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Forward(context.Background(), net, w, RunOptions{Impl: ImplBasic})
	if err != nil {
		t.Fatal(err)
	}

	perm := rand.New(rand.NewSource(4)).Perm(n)
	order := make([]int32, n)
	for newID, oldID := range perm {
		order[newID] = int32(oldID)
	}
	pg, err := g.Permute(order)
	if err != nil {
		t.Fatal(err)
	}
	px := tensor.NewMatrix(n, 8)
	for newID, oldID := range order {
		copy(px.Row(newID), x.Row(int(oldID)))
	}
	pw, err := NewWorkload(pg, GCN, px, nil)
	if err != nil {
		t.Fatal(err)
	}
	permuted, err := Forward(context.Background(), net, pw, RunOptions{Impl: ImplBasic})
	if err != nil {
		t.Fatal(err)
	}
	for newID, oldID := range order {
		a := permuted.Logits().Row(newID)
		b := base.Logits().Row(int(oldID))
		for j := range a {
			if math.Abs(float64(a[j]-b[j])) > 1e-3 {
				t.Fatalf("vertex %d (old %d) logit %d: %g vs %g", newID, oldID, j, a[j], b[j])
			}
		}
	}
}

// TestAccuracyBounds: accuracy is always in [0,1] and exactly 1 when the
// logits encode the labels.
func TestAccuracyBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := rng.Intn(20) + 1
		cols := rng.Intn(5) + 2
		logits := tensor.NewMatrix(rows, cols)
		logits.FillRandom(rng, 1)
		labels := make([]int32, rows)
		for i := range labels {
			labels[i] = int32(rng.Intn(cols))
		}
		acc := Accuracy(logits, labels)
		if acc < 0 || acc > 1 {
			return false
		}
		for i := range labels {
			logits.Set(i, int(labels[i]), 100)
		}
		return Accuracy(logits, labels) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
