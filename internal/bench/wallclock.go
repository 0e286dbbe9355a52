package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"graphite/internal/gnn"
	"graphite/internal/graph"
	"graphite/internal/locality"
	"graphite/internal/telemetry"
	"graphite/internal/tensor"
)

// buildWorkload prepares one profile's graph, features and labels.
func buildWorkload(p graph.Profile, kind gnn.Kind, n, fin int, sparsity float64, threads int) (*gnn.Workload, error) {
	g, err := graph.GenerateProfile(p, n)
	if err != nil {
		return nil, err
	}
	x := tensor.NewMatrix(g.NumVertices(), fin)
	x.FillSparse(rand.New(rand.NewSource(11)), 1, sparsity)
	labels := make([]int32, g.NumVertices())
	rng := rand.New(rand.NewSource(13))
	for i := range labels {
		labels[i] = int32(rng.Intn(16))
	}
	w, err := gnn.NewWorkload(g, kind, x, labels)
	if err != nil {
		return nil, err
	}
	w.CompressedInput(threads) // outside any timed region
	return w, nil
}

func dims2(fin, hidden int) []int { return []int{fin, hidden, 16} }

// table3 regenerates the dataset statistics table for the scaled corpus.
func table3(cfg Config) (*Report, error) {
	r := &Report{ID: "table3", Title: "dataset corpus statistics (scaled synthetic vs paper)"}
	r.Addf("%-10s %10s %12s %8s %10s %14s   %s", "graph", "|V|", "|E|", "avg", "max", "variance", "paper (full size)")
	for _, p := range graph.Profiles() {
		g, err := graph.GenerateProfile(p, cfg.Scale)
		if err != nil {
			return nil, err
		}
		s := g.Stats()
		pv, pe, ps := p.PaperStats()
		r.Addf("%-10s %10d %12d %8.1f %10d %14.0f   |V|=%.2gM |E|=%.3gM avg=%.1f max=%d var=%.3g",
			p, g.NumVertices(), g.NumEdges(), s.Mean, s.Max, s.Variance,
			float64(pv)/1e6, float64(pe)/1e6, ps.Mean, ps.Max, ps.Variance)
	}
	return r, nil
}

// fig2 regenerates the sampled-training motivation experiment: sampling +
// mini-batching dominates epoch time and shrinking batches makes it worse.
func fig2(cfg Config) (*Report, error) {
	r := &Report{ID: "fig2", Title: "sampled GraphSAGE epoch time breakdown (paper: sampling ≥80%, grows as batch shrinks)"}
	g, err := graph.GenerateProfile(graph.Products, cfg.Scale)
	if err != nil {
		return nil, err
	}
	fin := graph.Products.InputFeatureLen()
	x := tensor.NewMatrix(g.NumVertices(), fin)
	x.FillSparse(rand.New(rand.NewSource(21)), 1, 0.3)
	net, err := gnn.NewNetwork(gnn.Config{Kind: gnn.SAGE, Dims: []int{fin, cfg.Hidden, cfg.Hidden, 16}, Seed: 1})
	if err != nil {
		return nil, err
	}
	// The paper's fanouts for a 3-layer sampled SAGE; layer compute is
	// scaled by 10x to model the Titan V (DESIGN.md substitution 6).
	const layerSpeedup = 10.0
	fanouts := []int{15, 10, 5}
	r.Addf("%-12s %14s %14s %10s", "batch", "sampling+mb", "GNN layers", "sampling%")
	for _, batch := range []int{1024, 2048, 4096} {
		var bd gnn.SampledEpochBreakdown
		_, err := cfg.timeIt(r, fmt.Sprintf("epoch/batch-%d", batch), func() error {
			var err error
			bd, err = gnn.RunSampledEpoch(net, g, x, batch, fanouts, layerSpeedup, cfg.Threads, 7)
			return err
		})
		if err != nil {
			return nil, err
		}
		total := bd.Sampling + bd.GNNLayers
		r.Addf("batch-%-6d %14s %14s %9.1f%%", batch,
			bd.Sampling.Round(time.Millisecond), bd.GNNLayers.Round(time.Millisecond),
			100*float64(bd.Sampling)/float64(total))
	}
	r.Addf("paper: 88.5%% / 92.4%% / 94.2%% sampling share at batch 4096/2048/1024")
	return r, nil
}

// fig11 measures the software-technique speedups over the DistGNN baseline.
func fig11(cfg Config, train bool) (*Report, error) {
	id, what := "fig11a", "inference"
	if train {
		id, what = "fig11b", "training"
	}
	r := &Report{ID: id, Title: fmt.Sprintf("software %s speedup over DistGNN @50%% feature sparsity", what)}
	impls := []gnn.Impl{gnn.ImplDistGNN, gnn.ImplMKL, gnn.ImplBasic, gnn.ImplFused, gnn.ImplCompressed, gnn.ImplCombined}
	header := "model graph       "
	for _, im := range impls {
		header += fmt.Sprintf("%12s", im)
	}
	if train {
		header += fmt.Sprintf("%12s", "c-locality")
	}
	r.Addf("%s", header)
	for _, kind := range []gnn.Kind{gnn.GCN, gnn.SAGE} {
		for _, p := range graph.Profiles() {
			w, err := buildWorkload(p, kind, cfg.Scale, p.InputFeatureLen(), 0.5, cfg.Threads)
			if err != nil {
				return nil, err
			}
			dims := dims2(p.InputFeatureLen(), cfg.Hidden)
			times := make([]time.Duration, 0, len(impls)+1)
			for _, im := range impls {
				d, err := timeVariant(r, fmt.Sprintf("%s/%s/%s", kind, p, im), w, kind, dims, im, train, nil, cfg)
				if err != nil {
					return nil, err
				}
				times = append(times, d)
			}
			if train {
				order := locality.Reorder(w.G)
				d, err := timeVariant(r, fmt.Sprintf("%s/%s/c-locality", kind, p), w, kind, dims, gnn.ImplCombined, true, order, cfg)
				if err != nil {
					return nil, err
				}
				times = append(times, d)
			}
			line := fmt.Sprintf("%-5s %-11s", kind, p)
			for _, d := range times {
				line += fmt.Sprintf("%11.2fx", float64(times[0])/float64(d))
			}
			r.Addf("%s", line)
		}
	}
	if train {
		r.Addf("paper: combined 1.50-1.62x, c-locality 1.60-2.64x (GCN+SAGE across graphs)")
	} else {
		r.Addf("paper: combined 1.72-1.94x (GCN+SAGE across graphs)")
	}
	return r, nil
}

func fig11a(cfg Config) (*Report, error) { return fig11(cfg, false) }
func fig11b(cfg Config) (*Report, error) { return fig11(cfg, true) }

// timeVariant measures one forward (or forward+backward) pass, recording the
// reps as a sample named name on r (nil r skips recording).
func timeVariant(r *Report, name string, w *gnn.Workload, kind gnn.Kind, dims []int, im gnn.Impl, train bool, order []int32, cfg Config) (time.Duration, error) {
	net, err := gnn.NewNetwork(gnn.Config{Kind: kind, Dims: dims, Seed: 5})
	if err != nil {
		return 0, err
	}
	opts := gnn.RunOptions{Impl: im, Threads: cfg.Threads, Order: order, Train: train, Tel: cfg.Telemetry}
	grads := gnn.NewGradients(net)
	return cfg.timeIt(r, name, func() error {
		st, err := gnn.Forward(context.Background(), net, w, opts)
		if err != nil {
			return err
		}
		if !train {
			return nil
		}
		_, dLogits, err := gnn.SoftmaxCrossEntropy(st.Logits(), w.Labels)
		if err != nil {
			return err
		}
		return gnn.Backward(context.Background(), net, w, st, dLogits, grads, opts)
	})
}

// phasesBreakdown reports where wallclock time goes per implementation
// variant, sourced from the telemetry phase spans rather than ad-hoc
// timers: the runtime analogue of the paper's Table 4 phase decomposition.
// Training runs (forward + backward) on the products profile, one fresh
// sink per variant.
func phasesBreakdown(cfg Config) (*Report, error) {
	r := &Report{ID: "phases", Title: "per-phase training time breakdown from telemetry spans (GCN, products)"}
	cols := []string{
		telemetry.PhaseAggregate, telemetry.PhaseUpdate, telemetry.PhaseFused,
		telemetry.PhaseBackwardAgg, telemetry.PhaseBackwardGEMM,
	}
	header := fmt.Sprintf("%-12s", "impl")
	for _, c := range cols {
		header += fmt.Sprintf("%19s", c)
	}
	header += fmt.Sprintf("%16s%14s%14s", "forward-total", "edges(M)", "gflops")
	r.Addf("%s", header)
	p := graph.Products
	w, err := buildWorkload(p, gnn.GCN, cfg.Scale, p.InputFeatureLen(), 0.5, cfg.Threads)
	if err != nil {
		return nil, err
	}
	dims := dims2(p.InputFeatureLen(), cfg.Hidden)
	for _, im := range gnn.Impls() {
		tel := telemetry.New(0)
		run := cfg
		run.Telemetry = tel
		if _, err := timeVariant(r, fmt.Sprintf("train/%s", im), w, gnn.GCN, dims, im, true, nil, run); err != nil {
			return nil, err
		}
		totals := tel.PhaseTotals()
		line := fmt.Sprintf("%-12s", im)
		for _, c := range cols {
			line += fmt.Sprintf("%19s", totals[c].Round(time.Microsecond))
		}
		snap := tel.Snapshot()
		line += fmt.Sprintf("%16s%14.2f%14.2f",
			totals[telemetry.PhaseForward].Round(time.Microsecond),
			float64(snap.Counters[telemetry.CtrEdgesAggregated.Name()])/1e6,
			float64(snap.Counters[telemetry.CtrGEMMFLOPs.Name()])/1e9)
		r.Addf("%s", line)
	}
	r.Addf("paper: Table 4 shows aggregation dominating (DRAM-bound); fused variants fold update into aggregate")
	return r, nil
}

// fig13 regenerates the fusion breakdown: basic's aggregation/update split
// vs fused inference and fused forward-training time, on a hidden layer
// (same input and output width).
func fig13(cfg Config) (*Report, error) {
	r := &Report{ID: "fig13", Title: "execution time of hidden-layer basic (agg+update) vs fused, normalized to basic"}
	r.Addf("%-11s %8s %8s %12s %12s", "graph", "agg", "update", "fused-inf", "fused-train")
	for _, p := range graph.Profiles() {
		w, err := buildWorkload(p, gnn.GCN, cfg.Scale, cfg.Hidden, 0.5, cfg.Threads)
		if err != nil {
			return nil, err
		}
		dims := []int{cfg.Hidden, cfg.Hidden}
		net, err := gnn.NewNetwork(gnn.Config{Kind: gnn.GCN, Dims: dims, Seed: 5})
		if err != nil {
			return nil, err
		}
		var basicT gnn.Timings
		_, err = cfg.timeIt(r, fmt.Sprintf("%s/basic", p), func() error {
			st, err := gnn.Forward(context.Background(), net, w, gnn.RunOptions{Impl: gnn.ImplBasic, Threads: cfg.Threads})
			if err == nil {
				basicT = st.Timings
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		fusedInf, err := cfg.timeIt(r, fmt.Sprintf("%s/fused-inf", p), func() error {
			_, err := gnn.Forward(context.Background(), net, w, gnn.RunOptions{Impl: gnn.ImplFused, Threads: cfg.Threads})
			return err
		})
		if err != nil {
			return nil, err
		}
		fusedTrain, err := cfg.timeIt(r, fmt.Sprintf("%s/fused-train", p), func() error {
			_, err := gnn.Forward(context.Background(), net, w, gnn.RunOptions{Impl: gnn.ImplFused, Threads: cfg.Threads, Train: true})
			return err
		})
		if err != nil {
			return nil, err
		}
		total := float64(basicT.Aggregate + basicT.Update)
		r.Addf("%-11s %7.2f%% %7.2f%% %11.2f %11.2f", p,
			100*float64(basicT.Aggregate)/total, 100*float64(basicT.Update)/total,
			float64(fusedInf)/total, float64(fusedTrain)/total)
	}
	r.Addf("paper: update share 7-31%%; fused-inference ≈ basic's aggregation time (update fully hidden)")
	return r, nil
}

// fig14 sweeps feature sparsity for the compression technique.
func fig14(cfg Config) (*Report, error) {
	r := &Report{ID: "fig14", Title: "compression speedup over basic vs feature sparsity (GCN)"}
	sparsities := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	for _, train := range []bool{false, true} {
		what := "inference"
		if train {
			what = "training"
		}
		header := fmt.Sprintf("%-11s %-10s", "graph", what)
		for _, s := range sparsities {
			header += fmt.Sprintf("%9.0f%%", s*100)
		}
		r.Addf("%s", header)
		for _, p := range graph.Profiles() {
			line := fmt.Sprintf("%-11s %-10s", p, "")
			for _, s := range sparsities {
				w, err := buildWorkload(p, gnn.GCN, cfg.Scale, cfg.Hidden, s, cfg.Threads)
				if err != nil {
					return nil, err
				}
				dims := dims2(cfg.Hidden, cfg.Hidden)
				tb, err := timeVariant(r, fmt.Sprintf("%s/%s/s%.0f/basic", what, p, s*100), w, gnn.GCN, dims, gnn.ImplBasic, train, nil, cfg)
				if err != nil {
					return nil, err
				}
				tc, err := timeVariant(r, fmt.Sprintf("%s/%s/s%.0f/compressed", what, p, s*100), w, gnn.GCN, dims, gnn.ImplCompressed, train, nil, cfg)
				if err != nil {
					return nil, err
				}
				line += fmt.Sprintf("%8.2fx", float64(tb)/float64(tc))
			}
			r.Addf("%s", line)
		}
	}
	r.Addf("paper: <1x at 10%%, crossover ≈30%%, 1.58-2.95x at 90%%")
	return r, nil
}

// fig15 compares the natural order, randomized orders, and the locality
// reorder for combined training.
func fig15(cfg Config) (*Report, error) {
	r := &Report{ID: "fig15", Title: "combined GCN training: speedup over randomized processing order"}
	r.Addf("%-11s %12s %12s %12s", "graph", "randomized", "natural", "locality")
	for _, p := range graph.Profiles() {
		w, err := buildWorkload(p, gnn.GCN, cfg.Scale, cfg.Hidden, 0.5, cfg.Threads)
		if err != nil {
			return nil, err
		}
		dims := dims2(cfg.Hidden, cfg.Hidden)
		var randTotal time.Duration
		const randRuns = 3
		for seed := int64(0); seed < randRuns; seed++ {
			d, err := timeVariant(r, fmt.Sprintf("%s/randomized-%d", p, seed), w, gnn.GCN, dims, gnn.ImplCombined, true,
				locality.Randomized(w.G.NumVertices(), seed), cfg)
			if err != nil {
				return nil, err
			}
			randTotal += d
		}
		randAvg := randTotal / randRuns
		natural, err := timeVariant(r, fmt.Sprintf("%s/natural", p), w, gnn.GCN, dims, gnn.ImplCombined, true, nil, cfg)
		if err != nil {
			return nil, err
		}
		loc, err := timeVariant(r, fmt.Sprintf("%s/locality", p), w, gnn.GCN, dims, gnn.ImplCombined, true, locality.Reorder(w.G), cfg)
		if err != nil {
			return nil, err
		}
		r.Addf("%-11s %11.2fx %11.2fx %11.2fx", p, 1.0,
			float64(randAvg)/float64(natural), float64(randAvg)/float64(loc))
	}
	r.Addf("paper: natural ≈1.0x on products/papers (no embedded locality), up to 1.13x on twitter;")
	r.Addf("       locality reorder 1.17-1.64x over randomized")
	return r, nil
}
