package gnn

import (
	"bytes"
	"context"
	"testing"

	"graphite/internal/graph"
	"graphite/internal/tensor"
)

func TestCheckpointRoundTrip(t *testing.T) {
	net, err := NewNetwork(Config{Kind: SAGE, Dims: []int{10, 16, 4}, Dropout: 0.5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Kind != SAGE || back.Dropout != 0.5 || back.NumLayers() != 2 {
		t.Fatalf("metadata lost: %+v", back)
	}
	for k := range net.Layers {
		if d := tensor.MaxAbsDiff(net.Layers[k].W, back.Layers[k].W); d != 0 {
			t.Fatalf("layer %d weights differ by %g", k, d)
		}
		for j := range net.Layers[k].B {
			if net.Layers[k].B[j] != back.Layers[k].B[j] {
				t.Fatalf("layer %d bias differs", k)
			}
		}
	}
}

func TestCheckpointedNetworkSameLogits(t *testing.T) {
	w := testWorkload(t, GCN, graph.Products, 120, 8, false)
	net := testNet(t, GCN, []int{8, 6, 3})
	ref, err := Forward(context.Background(), net, w, RunOptions{Impl: ImplBasic})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Forward(context.Background(), back, w, RunOptions{Impl: ImplBasic})
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(got.Logits(), ref.Logits()); d != 0 {
		t.Fatalf("restored network diverges by %g", d)
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	net := testNet(t, GCN, []int{4, 2})
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	bad := append([]byte(nil), good...)
	bad[0] = 0
	if _, err := Load(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
	bad = append([]byte(nil), good...)
	bad[4] = 9
	if _, err := Load(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad version accepted")
	}
	if _, err := Load(bytes.NewReader(good[:len(good)-3])); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
}
