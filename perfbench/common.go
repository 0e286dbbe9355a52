package main

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"graphite/internal/gnn"
	"graphite/internal/graph"
	"graphite/internal/telemetry"
	"graphite/internal/tensor"
)

// Model shape shared by every workload: GCN 100→256→16 on the products
// profile (100-long input features, 50% of them zero).
var dims = []int{100, 256, 16}

const (
	featureSparsity = 0.5
	// setupReps is how many times a run builds its inputs; setup_s is the
	// median, and the last build is the one measured.
	setupReps = 3
)

// Seed slots: every generated input has its own stream derived from the
// run seed.
const (
	seedGraph = iota
	seedFeatures
	seedWeights
	seedLabels
	seedSchedule
	seedVertices
	seedSampling
)

// genGraph generates the products-profile graph at n vertices from the
// run seed.
func genGraph(r *run, n int) (*graph.CSR, error) {
	cfg, err := graph.ProfileConfig(graph.Products, n)
	if err != nil {
		return nil, err
	}
	cfg.Seed = r.subSeed(seedGraph)
	return graph.Generate(cfg)
}

// genFeatures returns the seeded 50%-sparse input features.
func genFeatures(r *run, n int) *tensor.Matrix {
	x := tensor.NewMatrix(n, dims[0])
	x.FillSparse(rand.New(rand.NewSource(r.subSeed(seedFeatures))), 1, featureSparsity)
	return x
}

// genLabels labels each vertex by the argmax of a seeded random linear
// teacher over its features, so the labels are learnable and the training
// loss can fall.
func genLabels(r *run, x *tensor.Matrix) []int32 {
	rng := rand.New(rand.NewSource(r.subSeed(seedLabels)))
	classes := dims[len(dims)-1]
	teacher := make([]float32, x.Cols*classes)
	for i := range teacher {
		teacher[i] = float32(rng.NormFloat64())
	}
	labels := make([]int32, x.Rows)
	score := make([]float32, classes)
	for v := range labels {
		clear(score)
		for j, f := range x.Row(v) {
			if f == 0 {
				continue
			}
			for c := range score {
				score[c] += f * teacher[j*classes+c]
			}
		}
		best := 0
		for c := range score {
			if score[c] > score[best] {
				best = c
			}
		}
		labels[v] = int32(best)
	}
	return labels
}

// newNetwork builds the seeded GCN; equal seeds give equal weights, which
// is how reference engines and probes share the measured model's weights.
func newNetwork(r *run) (*gnn.Network, error) {
	return gnn.NewNetwork(gnn.Config{Kind: gnn.GCN, Dims: dims, Seed: r.subSeed(seedWeights)})
}

// setupFunc builds a workload's inputs once, recording its spans in group
// under parent, and returns its graph-generation and preparation times.
type setupFunc func(group, parent int64) (gen, prep time.Duration, err error)

// repeatSetup builds a workload's inputs setupReps times and keeps the last
// build. Each build starts from a collected heap so earlier builds' garbage
// does not bill the next one.
func repeatSetup(r *run, build setupFunc) error {
	var total, generate, prepare []float64 // seconds
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		group := -int64(i + 1)
		sp := r.rec.begin("setup", group, 0)
		gen, prep, err := build(group, sp.ID())
		sp.end()
		if err != nil {
			return err
		}
		total = append(total, (gen + prep).Seconds())
		generate = append(generate, gen.Seconds())
		prepare = append(prepare, prep.Seconds())
	}
	r.set("setup_s", medianOf(total))
	r.set("graph.generate_s", medianOf(generate))
	r.set("gnn.prepare_s", medianOf(prepare))
	runtime.GC()
	return nil
}

// timed runs f inside a span and returns its duration.
func timed(r *run, name string, group, parent int64, f func()) time.Duration {
	t0 := time.Now()
	sp := r.rec.begin(name, group, parent)
	f()
	sp.end()
	return time.Since(t0)
}

// maxAbsDiff returns the largest elementwise difference of two equally
// shaped matrices and the largest magnitude in want.
func maxAbsDiff(got, want *tensor.Matrix) (diff, scale float64) {
	for i := 0; i < want.Rows; i++ {
		g, w := got.Row(i), want.Row(i)
		for j := range w {
			diff = math.Max(diff, math.Abs(float64(g[j]-w[j])))
			scale = math.Max(scale, math.Abs(float64(w[j])))
		}
	}
	return diff, scale
}

// logitTol is the agreement required between implementations: 1e-4
// relative to the largest logit (absolute when logits are below 1), the
// tolerance the repository's own cross-implementation tests use.
const logitTol = 1e-4

func agree(got, want *tensor.Matrix) (bool, float64) {
	if got == nil || got.Rows != want.Rows || got.Cols != want.Cols {
		return false, math.Inf(1)
	}
	d, s := maxAbsDiff(got, want)
	return d <= logitTol*math.Max(1, s), d
}

// phaseSum returns the summed duration of one sink phase.
func phaseSum(snap telemetry.Snapshot, phase string) time.Duration {
	for _, l := range snap.Latencies {
		if l.Phase == phase {
			return l.Sum
		}
	}
	return 0
}

// medianOf returns the median of unsorted values.
func medianOf(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	return median(ys)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
