package gnn

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"graphite/internal/graph"
	"graphite/internal/tensor"
)

func TestSampleBlocksStructure(t *testing.T) {
	g, err := graph.GenerateProfile(graph.Products, 400)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	batch := []int32{3, 50, 99, 120}
	blocks, err := SampleBlocks(g, SAGE, batch, []int{5, 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 2 {
		t.Fatalf("got %d blocks", len(blocks))
	}
	// Last block's destinations are the batch.
	last := blocks[1]
	if last.NumDst != len(batch) {
		t.Fatalf("last block has %d dsts, want %d", last.NumDst, len(batch))
	}
	for i, v := range batch {
		if last.SrcIDs[i] != v {
			t.Fatalf("dst prefix violated at %d", i)
		}
	}
	// Chain invariant: block k's sources are block k+1's... destinations
	// of block 0 equal sources of block... blocks[0].NumDst == len(blocks[1].SrcIDs).
	if blocks[0].NumDst != len(blocks[1].SrcIDs) {
		t.Fatalf("chain broken: block0 dst %d vs block1 src %d", blocks[0].NumDst, len(blocks[1].SrcIDs))
	}
	// Fanout respected: each dst row has at most fanout+1 edges (self).
	for i := 0; i < last.NumDst; i++ {
		deg := int(last.SubG.Ptr[i+1] - last.SubG.Ptr[i])
		if deg > 3+1 {
			t.Fatalf("dst %d has %d sampled edges, fanout 3", i, deg)
		}
		if deg < 1 {
			t.Fatalf("dst %d lost its self edge", i)
		}
	}
	// Column indices are source-local and in range.
	for _, c := range last.SubG.Col {
		if c < 0 || int(c) >= len(last.SrcIDs) {
			t.Fatalf("column %d out of source range %d", c, len(last.SrcIDs))
		}
	}
}

func TestSampleBlocksNoSamplingTakesFullNeighborhood(t *testing.T) {
	g, err := graph.Star(10)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := SampleBlocks(g, SAGE, []int32{0}, []int{0}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	blk := blocks[0]
	// Hub gathers from itself + all 9 spokes.
	if got := int(blk.SubG.Ptr[1] - blk.SubG.Ptr[0]); got != 10 {
		t.Fatalf("hub row has %d edges, want 10", got)
	}
}

func TestSampleBlocksErrors(t *testing.T) {
	g, _ := graph.Star(5)
	rng := rand.New(rand.NewSource(3))
	if _, err := SampleBlocks(g, SAGE, nil, []int{3}, rng); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := SampleBlocks(g, SAGE, []int32{99}, []int{3}, rng); err == nil {
		t.Fatal("out-of-range batch vertex accepted")
	}
}

func TestSampledForwardMatchesFullBatchWithoutSampling(t *testing.T) {
	// With fanout=0 (full neighbourhoods) and a batch of all vertices, the
	// sampled path must reproduce the full-batch forward (mean aggregator:
	// block factors are exact for SAGE).
	n := 80
	g, err := graph.GenerateProfile(graph.Wikipedia, n)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.NewMatrix(n, 12)
	x.FillRandom(rand.New(rand.NewSource(4)), 1)
	net := testNet(t, SAGE, []int{12, 8, 4})
	w, err := NewWorkload(g, SAGE, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Forward(context.Background(), net, w, RunOptions{Impl: ImplBasic, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]int32, n)
	for i := range batch {
		batch[i] = int32(i)
	}
	blocks, err := SampleBlocks(g, SAGE, batch, []int{0, 0}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	feats := GatherRows(x, blocks[0].SrcIDs, 2)
	logits, err := SampledForwardContext(context.Background(), net, blocks, feats, RunOptions{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Row i of logits corresponds to batch[i] == vertex i.
	if d := tensor.MaxAbsDiff(logits, full.Logits()); d > 2e-3 {
		t.Fatalf("sampled(full-neighbourhood) differs from full batch by %g", d)
	}
}

// TestSampledForwardBitwiseStable: the sampled layer loop is
// output-parallel with a fixed per-row reduction order, so for fixed blocks
// its logits must be bitwise identical for any thread count, and recording
// the backward state must not change them.
func TestSampledForwardBitwiseStable(t *testing.T) {
	n := 400
	g, err := graph.GenerateProfile(graph.Products, n)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.NewMatrix(n, 16)
	x.FillRandom(rand.New(rand.NewSource(8)), 1)
	net := testNet(t, GCN, []int{16, 8, 4})
	batch := make([]int32, 150)
	for i := range batch {
		batch[i] = int32(2 * i)
	}
	blocks, err := SampleBlocks(g, GCN, batch, []int{10, 5}, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	feats := GatherRows(x, blocks[0].SrcIDs, 1)
	want, err := SampledForwardContext(context.Background(), net, blocks, feats, RunOptions{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		threads int
		record  bool
	}{
		{1, false}, {2, false}, {4, false}, {1, true}, {2, true}, {4, true},
	} {
		var st *SampledState
		if tc.record {
			st = &SampledState{}
		}
		got, err := sampledForward(context.Background(), net, blocks, feats, RunOptions{Threads: tc.threads}, st)
		if err != nil {
			t.Fatalf("threads=%d record=%v: %v", tc.threads, tc.record, err)
		}
		if got.Rows != want.Rows || got.Cols != want.Cols {
			t.Fatalf("threads=%d record=%v: logits %dx%d, want %dx%d", tc.threads, tc.record, got.Rows, got.Cols, want.Rows, want.Cols)
		}
		for i := 0; i < want.Rows; i++ {
			for j := 0; j < want.Cols; j++ {
				if math.Float32bits(got.At(i, j)) != math.Float32bits(want.At(i, j)) {
					t.Fatalf("threads=%d record=%v: logit (%d,%d) = %v, want %v", tc.threads, tc.record, i, j, got.At(i, j), want.At(i, j))
				}
			}
		}
		if tc.record {
			if len(st.Inputs) != len(blocks) || len(st.A) != len(blocks) || len(st.H) != len(blocks) {
				t.Fatalf("threads=%d: recorded %d/%d/%d layers, want %d", tc.threads, len(st.Inputs), len(st.A), len(st.H), len(blocks))
			}
			if st.Inputs[0] != feats || st.Logits() != got {
				t.Fatalf("threads=%d: recorded state does not chain input features to logits", tc.threads)
			}
		}
	}
}

func TestGatherRows(t *testing.T) {
	x := tensor.NewMatrix(5, 3)
	for i := 0; i < 5; i++ {
		for j := 0; j < 3; j++ {
			x.Set(i, j, float32(10*i+j))
		}
	}
	out := GatherRows(x, []int32{4, 0, 2}, 2)
	if out.At(0, 1) != 41 || out.At(1, 0) != 0 || out.At(2, 2) != 22 {
		t.Fatalf("gather wrong: %v %v %v", out.Row(0), out.Row(1), out.Row(2))
	}
}

func TestRunSampledEpochBreakdown(t *testing.T) {
	n := 300
	g, err := graph.GenerateProfile(graph.Products, n)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.NewMatrix(n, 16)
	x.FillRandom(rand.New(rand.NewSource(6)), 1)
	net := testNet(t, SAGE, []int{16, 8, 4})
	bd, err := RunSampledEpoch(net, g, x, 64, []int{10, 5}, 8, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantBatches := (n + 63) / 64
	if bd.Batches != wantBatches {
		t.Fatalf("batches %d, want %d", bd.Batches, wantBatches)
	}
	if bd.Sampling <= 0 || bd.GNNLayers <= 0 {
		t.Fatalf("timings not recorded: %+v", bd)
	}
	if _, err := RunSampledEpoch(net, g, x, 0, []int{3, 3}, 1, 1, 1); err == nil {
		t.Fatal("zero batch size accepted")
	}
}

// TestRunSampledEpochWidthMismatch: features narrower than the network's
// input must come back from RunSampledEpoch as an error, not as a worker
// panic out of the aggregation.
func TestRunSampledEpochWidthMismatch(t *testing.T) {
	n := 300
	g, err := graph.GenerateProfile(graph.Products, n)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.NewMatrix(n, 12)
	x.FillRandom(rand.New(rand.NewSource(6)), 1)
	net := testNet(t, SAGE, []int{16, 8, 4})
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("RunSampledEpoch panicked: %v", r)
			}
		}()
		if _, err = RunSampledEpoch(net, g, x, 64, []int{10, 5}, 1, 2, 1); err == nil {
			t.Fatal("12-wide features accepted by a 16-input network")
		}
	}()
	t.Logf("error: %v", err)
}
