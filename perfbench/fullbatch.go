package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"graphite"
	"graphite/internal/compress"
	"graphite/internal/gnn"
	"graphite/internal/kernels"
	"graphite/internal/locality"
	"graphite/internal/telemetry"
	"graphite/internal/tensor"
)

// fullbatchVertices is |V| of the full-batch graph (products profile,
// about 2M edges with self loops).
const fullbatchVertices = 40_000

// minSteps keeps the loss and tail checks meaningful on short runs.
const minSteps = 3

// hitRateCapacity is the LRU capacity, in feature vectors, at which
// locality.hit_rate_* are stated: 8192 rows of 100 floats is about 3.5 MB,
// one core's share of this host's L2.
const hitRateCapacity = 8192

// fullInputs is one build of a full-batch workload.
type fullInputs struct {
	cfg graphite.Config
	eng *graphite.Engine
	w   *graphite.Workload
	tr  *graphite.Trainer // training only
}

// buildFull generates the graph and features, builds the engine and
// prepares the workload: input compression for inference, the reorder and
// the transposed graph for training. These are the costs setup_s bills.
func buildFull(r *run, train bool, in *fullInputs) setupFunc {
	return func(group, parent int64) (gen, prep time.Duration, err error) {
		root := r.rec.begin("graph.Generate", group, parent)
		t0 := time.Now()
		g, err := genGraph(r, fullbatchVertices)
		gen = time.Since(t0)
		root.end()
		if err != nil {
			return gen, 0, err
		}
		t1 := time.Now()
		sp := r.rec.begin("graphite.prepare", group, parent)
		defer sp.end()
		x := genFeatures(r, g.NumVertices())
		var labels []int32
		if train {
			labels = genLabels(r, x)
		}
		cfg := graphite.Config{Model: graphite.GCN, Dims: dims, Impl: graphite.Combined,
			Seed: r.subSeed(seedWeights), LocalityOrder: train}
		eng, err := graphite.NewEngine(cfg)
		if err != nil {
			return gen, 0, err
		}
		w, err := eng.NewWorkload(g, x, labels)
		if err != nil {
			return gen, 0, err
		}
		var tr *graphite.Trainer
		if train {
			if tr, err = eng.NewTrainer(w); err != nil {
				return gen, 0, err
			}
			w.Transposed()
		} else {
			w.CompressedInput(0)
		}
		*in = fullInputs{cfg: cfg, eng: eng, w: w, tr: tr}
		return gen, time.Since(t1), nil
	}
}

// stepStats are the step times and the peak heap of an untraced run.
type stepStats struct {
	durs   []time.Duration // wall time of each step
	scale  float64         // calibration to the nominal host speed (calib.go)
	refs   []time.Duration // the reference kernel times it came from
	heapMB float64
}

// stepLoop runs step until the run's time is spent (and at least minSteps
// times), recording each step's duration and timing the reference kernel
// before the first step and after every step.
func stepLoop(r *run, step func(i int) error) (stepStats, error) {
	var st stepStats
	cal, err := newCalibrator()
	if err != nil {
		return st, fmt.Errorf("reference kernel: %w", err)
	}
	defer cal.close()
	runtime.GC()
	hs := startHeapSampler()
	start := time.Now()
	cal.measure()
	for i := 0; i < minSteps || time.Since(start) < r.seconds; i++ {
		t0 := time.Now()
		err := step(i)
		d := time.Since(t0)
		cal.measure()
		r.attempted++
		if err != nil {
			r.failed++
			r.check(false, "step %d: %v", i, err)
			continue
		}
		st.durs = append(st.durs, d)
	}
	st.heapMB = hs.stopMB()
	st.scale, st.refs = cal.scale(), cal.refs
	return st, nil
}

// reportSteps sets the end-to-end metrics of a full-batch run: step times
// calibrated to the nominal host speed, peak heap and the success share.
func reportSteps(r *run, st stepStats, vertices int) {
	wall := sortedMS(st.durs)
	r.set("p50_ms", median(wall)*st.scale)
	var total time.Duration
	for _, d := range st.durs {
		total += d
	}
	if total > 0 {
		r.set("capacity_vps", float64(vertices)*float64(len(st.durs))/(total.Seconds()*st.scale))
	}
	r.set("heap_peak_mb", st.heapMB)
	r.set("ok_frac", float64(r.attempted-r.failed)/float64(max(r.attempted, 1)))
	tl, pct := tail(wall)
	fmt.Fprintf(os.Stderr, "perfbench: %d steps, wall p50 %.1f ms, tail p%.1f %.1f ms (the highest percentile with %d steps beyond it, never below p50)\n",
		len(st.durs), median(wall), pct, tl, tailBeyond)
	logCalibration(st.scale, st.refs)
	fmt.Fprintf(os.Stderr, "perfbench: wall step times in order %.0f ms\n", inOrderMS(st.durs))
}

func inOrderMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// runFullbatchInfer repeats full-batch forward passes through the public
// engine API with the Combined implementation.
func runFullbatchInfer(r *run) error {
	var in fullInputs
	if err := repeatSetup(r, buildFull(r, false, &in)); err != nil {
		return err
	}
	ctx := context.Background()
	n := in.w.G.NumVertices()

	// Reference: the DistGNN baseline engine with the same seed has the
	// same weights; Combined must agree with it.
	refCfg := in.cfg
	refCfg.Impl = graphite.DistGNNBaseline
	refEng, err := graphite.NewEngine(refCfg)
	if err != nil {
		return err
	}
	ref, err := refEng.InferContext(ctx, in.w)
	if err != nil {
		return fmt.Errorf("reference pass: %w", err)
	}
	first, err := in.eng.InferContext(ctx, in.w)
	if err != nil {
		return fmt.Errorf("first pass: %w", err)
	}
	ok, d := agree(first, ref)
	r.check(ok, "Combined logits differ from DistGNN baseline by %g", d)
	r.check(!first.HasNaN(), "Combined logits are not finite")

	verify := func(logits *graphite.Matrix) error {
		if ok, d := agree(logits, first); !ok {
			return fmt.Errorf("logits moved by %g from the checked pass", d)
		}
		return nil
	}
	if !r.trace {
		st, err := stepLoop(r, func(i int) error {
			logits, err := in.eng.InferContext(ctx, in.w)
			if err != nil {
				return err
			}
			return verify(logits)
		})
		if err != nil {
			return err
		}
		reportSteps(r, st, n)
		return nil
	}
	return traceFullbatchInfer(r, &in, first, verify)
}

// traceFullbatchInfer alternates an untraced step, a step on an engine with
// telemetry on, and an unfused probe that times the aggregation kernels,
// the update GEMMs and compression directly on the same data.
func traceFullbatchInfer(r *run, in *fullInputs, first *graphite.Matrix, verify func(*graphite.Matrix) error) error {
	ctx := context.Background()
	telCfg := in.cfg
	telCfg.Metrics = true
	telEng, err := graphite.NewEngine(telCfg)
	if err != nil {
		return err
	}
	net, err := newNetwork(r)
	if err != nil {
		return err
	}
	w := in.w
	n, edges := w.G.NumVertices(), int64(len(w.G.Col))
	l0, l1 := net.Layers[0], net.Layers[1]

	var untraced, traced, fused, aggEdges, chunks, imbalance []float64
	var agg, gemm, compIn []float64
	var g0, g1 gcStats
	start := time.Now()
	for c := 0; c < minSteps || time.Since(start) < r.seconds; c++ {
		group := int64(c)
		// Untraced step: the runtime costs per step come from these.
		a := readGC()
		t0 := time.Now()
		logits, err := in.eng.InferContext(ctx, w)
		untraced = append(untraced, ms(time.Since(t0)))
		b := readGC()
		g0, g1 = addGC(g0, a), addGC(g1, b)
		r.attempted++
		if err == nil {
			err = verify(logits)
		}
		if err != nil {
			r.failed++
			r.check(false, "untraced step %d: %v", c, err)
		}

		// Traced step.
		telEng.ResetTelemetry()
		stepSp := r.rec.begin("step", group, 0)
		var tlog *graphite.Matrix
		d := timed(r, "graphite.InferContext", group, stepSp.ID(), func() { tlog, err = telEng.InferContext(ctx, w) })
		stepSp.end()
		traced = append(traced, ms(d))
		r.attempted++
		if err == nil {
			err = verify(tlog)
		}
		if err != nil {
			r.failed++
			r.check(false, "traced step %d: %v", c, err)
		}
		snap := telEng.Metrics()
		fused = append(fused, ms(phaseSum(snap, telemetry.PhaseFused)))
		aggEdges = append(aggEdges, float64(snap.Counters[telemetry.CtrEdgesAggregated.Name()]))
		chunks = append(chunks, float64(snap.Counters[telemetry.CtrSchedChunks.Name()]))
		imbalance = append(imbalance, snap.BusyImbalance())

		// Unfused probe of the same pass, layer by layer.
		probe := r.rec.begin("probe", group, 0)
		pid := probe.ID()
		a0 := tensor.NewMatrix(n, l0.In())
		var aggErr error
		dAgg0 := timed(r, "kernels.aggregate", group, pid, func() {
			aggErr = kernels.BasicCtx(ctx, a0, w.G, w.Factors, kernels.NewCompressedSource(w.XC), kernels.Options{PrefetchDistance: 4})
		})
		z0 := tensor.NewMatrix(n, l0.Out())
		dGemm0 := timed(r, "tensor.MatMul", group, pid, func() { tensor.MatMul(z0, a0, l0.W, 0) })
		tensor.AddBiasReLU(z0, l0.B, 0)
		var h1 *compress.Matrix
		timed(r, "compress.FromDense", group, pid, func() { h1 = compress.FromDense(z0, 0) })
		a1 := tensor.NewMatrix(n, l1.In())
		var aggErr1 error
		dAgg1 := timed(r, "kernels.aggregate", group, pid, func() {
			aggErr1 = kernels.BasicCtx(ctx, a1, w.G, w.Factors, kernels.NewCompressedSource(h1), kernels.Options{PrefetchDistance: 4})
		})
		z1 := tensor.NewMatrix(n, l1.Out())
		dGemm1 := timed(r, "tensor.MatMul", group, pid, func() { tensor.MatMul(z1, a1, l1.W, 0) })
		tensor.AddBiasRange(z1, l1.B, 0, n)
		dComp := timed(r, "compress.FromDense", group, pid, func() { compress.FromDense(w.X, 0) })
		probe.end()
		if aggErr != nil || aggErr1 != nil {
			return fmt.Errorf("probe aggregation: %v %v", aggErr, aggErr1)
		}
		if ok, d := agree(z1, first); !ok {
			r.check(false, "unfused probe differs from Combined by %g", d)
		}
		agg = append(agg, ms(dAgg0+dAgg1))
		gemm = append(gemm, ms(dGemm0+dGemm1))
		compIn = append(compIn, ms(dComp))
	}

	aggMS := medianOf(agg)
	gemmMS := medianOf(gemm)
	bytes := float64(edges) * float64(l0.In()+l1.In()) * 4
	flops := float64(tensor.GEMMFLOPs(n, l0.In(), l0.Out()) + tensor.GEMMFLOPs(n, l1.In(), l1.Out()))
	r.set("agg.ms_per_step", aggMS)
	r.set("fused.ms_per_step", medianOf(fused))
	r.set("agg.edges_per_step", medianOf(aggEdges))
	r.set("agg.gbytes_per_s", bytes/(aggMS/1e3)/1e9)
	r.set("gemm.ms_per_step", gemmMS)
	r.set("gemm.gflops", flops/(gemmMS/1e3)/1e9)
	r.set("compress.input_ms", medianOf(compIn))
	r.set("compress.bytes_ratio", float64(w.XC.TotalTrafficBytes())/float64(int64(n)*w.XC.UncompressedRowBytes()))
	r.set("sched.chunks_per_step", medianOf(chunks))
	r.set("sched.busy_imbalance", medianOf(imbalance))
	setRuntime(r, g0, g1, len(untraced))
	setTraceSteps(r, untraced, traced)
	return nil
}

// setTraceSteps reports the untraced steps' tail and the tracing overhead:
// the traced steps' median against the untraced ones'.
func setTraceSteps(r *run, untraced, traced []float64) {
	u := append([]float64(nil), untraced...)
	sort.Float64s(u)
	tl, pct := tail(u)
	r.set("step_tail_ms", tl)
	fmt.Fprintf(os.Stderr, "perfbench: step_tail_ms is p%.1f of %d untraced steps\n", pct, len(u))
	r.set("trace.overhead_frac", medianOf(traced)/median(u)-1)
	r.set("error_frac", float64(r.failed)/float64(max(r.attempted, 1)))
}

// addGC accumulates readings so deltas can be summed over interleaved
// windows: sum(after) - sum(before).
func addGC(acc, g gcStats) gcStats {
	return gcStats{cycles: acc.cycles + g.cycles, pauseNS: acc.pauseNS + g.pauseNS, alloc: acc.alloc + g.alloc}
}

func setRuntime(r *run, before, after gcStats, units int) {
	p, a, c := before.perUnit(after, units)
	r.set("gc.pause_ms_per_step", p)
	r.set("alloc.mb_per_step", a)
	r.set("gc.cycles_per_step", c)
}

// runFullbatchTrain runs full-batch training epochs through the public
// trainer with Combined kernels and the locality order.
func runFullbatchTrain(r *run) error {
	var in fullInputs
	if err := repeatSetup(r, buildFull(r, true, &in)); err != nil {
		return err
	}
	var losses []float64
	epoch := func(tr *graphite.Trainer) error {
		res, err := tr.Epoch()
		if err != nil {
			return err
		}
		if math.IsNaN(res.Loss) || math.IsInf(res.Loss, 0) {
			return fmt.Errorf("loss is %v", res.Loss)
		}
		losses = append(losses, res.Loss)
		return nil
	}
	defer func() {
		if len(losses) >= 2 {
			r.check(losses[len(losses)-1] < losses[0], "loss did not fall: first %g, last %g", losses[0], losses[len(losses)-1])
		} else {
			r.check(false, "only %d epochs completed", len(losses))
		}
	}()
	if !r.trace {
		st, err := stepLoop(r, func(int) error { return epoch(in.tr) })
		if err != nil {
			return err
		}
		reportSteps(r, st, in.w.G.NumVertices())
		return nil
	}

	telCfg := in.cfg
	telCfg.Metrics = true
	telEng, err := graphite.NewEngine(telCfg)
	if err != nil {
		return err
	}
	telTr, err := telEng.NewTrainer(in.w) // reorders under the sink's reorder phase
	if err != nil {
		return err
	}
	r.set("locality.reorder_ms", ms(phaseSum(telEng.Metrics(), telemetry.PhaseReorder)))

	w := in.w
	var hitNat, hitRe float64
	var hitErr error
	timed(r, "locality.HitRate", -10, 0, func() {
		hitNat, hitErr = locality.HitRate(w.G, locality.Identity(w.G.NumVertices()), hitRateCapacity)
	})
	if hitErr != nil {
		return hitErr
	}
	order := locality.Reorder(w.G)
	timed(r, "locality.HitRate", -11, 0, func() { hitRe, hitErr = locality.HitRate(w.G, order, hitRateCapacity) })
	if hitErr != nil {
		return hitErr
	}
	r.set("locality.hit_rate_natural", hitNat)
	r.set("locality.hit_rate_reordered", hitRe)

	net, err := newNetwork(r)
	if err != nil {
		return err
	}
	grads := gnn.NewGradients(net)

	var untraced, traced, fwd, bagg, bgemm, opt, fused, aggEdges, chunks, imbalance []float64
	var g0, g1 gcStats
	start := time.Now()
	for c := 0; c < minSteps || time.Since(start) < r.seconds; c++ {
		group := int64(c)
		a := readGC()
		t0 := time.Now()
		err := epoch(in.tr)
		untraced = append(untraced, ms(time.Since(t0)))
		g0, g1 = addGC(g0, a), addGC(g1, readGC())
		r.attempted++
		if err != nil {
			r.failed++
			r.check(false, "untraced epoch %d: %v", c, err)
		}

		telEng.ResetTelemetry()
		stepSp := r.rec.begin("step", group, 0)
		var res graphite.EpochResult
		d := timed(r, "graphite.Trainer.Epoch", group, stepSp.ID(), func() { res, err = telTr.Epoch() })
		dOpt := timed(r, "gnn.SGD", group, stepSp.ID(), func() { gnn.SGD(net, grads, telCfg.LearningRate) })
		stepSp.end()
		traced = append(traced, ms(d))
		r.attempted++
		if err == nil && (math.IsNaN(res.Loss) || math.IsInf(res.Loss, 0)) {
			err = fmt.Errorf("loss is %v", res.Loss)
		}
		if err != nil {
			r.failed++
			r.check(false, "traced epoch %d: %v", c, err)
		}
		snap := telEng.Metrics()
		fwd = append(fwd, ms(phaseSum(snap, telemetry.PhaseForward)))
		bagg = append(bagg, ms(phaseSum(snap, telemetry.PhaseBackwardAgg)))
		bgemm = append(bgemm, ms(phaseSum(snap, telemetry.PhaseBackwardGEMM)))
		fused = append(fused, ms(phaseSum(snap, telemetry.PhaseFused)))
		opt = append(opt, ms(dOpt))
		aggEdges = append(aggEdges, float64(snap.Counters[telemetry.CtrEdgesAggregated.Name()]))
		chunks = append(chunks, float64(snap.Counters[telemetry.CtrSchedChunks.Name()]))
		imbalance = append(imbalance, snap.BusyImbalance())
	}
	r.set("train.forward_ms", medianOf(fwd))
	r.set("train.backward_agg_ms", medianOf(bagg))
	r.set("train.backward_gemm_ms", medianOf(bgemm))
	r.set("train.optimizer_ms", medianOf(opt))
	r.set("fused.ms_per_step", medianOf(fused))
	r.set("agg.edges_per_step", medianOf(aggEdges))
	r.set("sched.chunks_per_step", medianOf(chunks))
	r.set("sched.busy_imbalance", medianOf(imbalance))
	setRuntime(r, g0, g1, len(untraced))
	setTraceSteps(r, untraced, traced)
	return nil
}
