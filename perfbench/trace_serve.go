package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"graphite/internal/gnn"
	"graphite/internal/serve"
	"graphite/internal/telemetry"
)

// traceServe is the traced serve-sampled run: an untraced low-rate phase
// (the overhead baseline), traced low- and high-rate phases on a fresh
// server whose telemetry sink gives the serve layer's numbers, a search
// for the highest rate that meets the p99 limit, a replay of the batches
// the server actually formed through the sampling and layer functions,
// and the replay ledger.
func traceServe(r *run, in *serveInputs) error {
	base := phaseAt(r, in.srv, 0, lowRate, r.share(0.15), nil)

	srv, err := serve.NewServer(serveConfig(r, in, serveFanouts))
	if err != nil {
		return err
	}
	defer func() { _ = shutdown(srv) }()
	snap0 := srv.Tel().Snapshot()
	low := phaseAt(r, srv, 0, lowRate, r.share(0.15), r.rec)
	snap1 := srv.Tel().Snapshot()
	runtime.GC()
	g0 := readGC()
	high := phaseAt(r, srv, 1, highRate, r.share(0.2), r.rec)
	g1 := readGC()
	snap2 := srv.Tel().Snapshot()
	account(r, "lowrate", low, snap0, snap1)
	d := account(r, "highrate", high, snap1, snap2)

	tel := srv.Tel()
	q, b := tel.Histogram(telemetry.PhaseServeQueue), tel.Histogram(telemetry.PhaseServeBatch)
	r.set("serve.queue_wait_p50_ms", ms(q.Quantile(0.5)))
	r.set("serve.queue_wait_p99_ms", ms(q.Quantile(0.99)))
	r.set("serve.batch_exec_p50_ms", ms(b.Quantile(0.5)))
	r.set("serve.batch_exec_p99_ms", ms(b.Quantile(0.99)))
	total := tel.Snapshot().Counters
	batches := total[telemetry.CtrServeBatches.Name()]
	if batches > 0 {
		r.set("serve.batch_size_mean", float64(total[telemetry.CtrServeVertices.Name()])/float64(batches))
	}
	var sent, bad, degraded int
	for _, p := range []*phaseResult{low, high} {
		n, by, _ := p.counts()
		sent += n
		bad += by[refused] + by[failed]
		degraded += by[okDegraded]
	}
	fr := func(c telemetry.Counter) float64 { return float64(total[c.Name()]) / float64(max(sent, 1)) }
	r.set("serve.shed_frac", fr(telemetry.CtrServeShed))
	r.set("serve.rejected_frac", fr(telemetry.CtrServeRejected))
	r.set("serve.expired_frac", fr(telemetry.CtrServeExpired))
	r.set("serve.degraded_frac", float64(degraded)/float64(max(sent, 1)))
	r.set("error_frac", float64(bad)/float64(max(sent, 1)))
	r.attempted, r.failed = sent, bad
	r.set("lowrate.p99_ms", low.blockP99())
	r.set("highrate.p50_ms", median(high.latencies()))
	r.set("highrate.p99_ms", high.blockP99())
	late := append(low.lateness(), high.lateness()...)
	sort.Float64s(late)
	r.set("loadgen.late_p99_ms", percentile(late, 0.99))
	setRuntime(r, g0, g1, int(d[telemetry.CtrServeBatches.Name()]))
	r.set("trace.overhead_frac", median(low.latencies())/median(base.latencies())-1)
	logLateness(base, low, high)

	knee, err := searchRate(r, in, true, []*phaseResult{low, high}, r.share(0.2), 2, nil)
	if err != nil {
		return err
	}
	r.set("serve.p99_knee_rps", knee)
	if err := replayObserved(r, in, batchesOf(high), r.share(0.1)); err != nil {
		return err
	}
	return replayLedger(r, in, r.share(0.2))
}

// cellCost is one replayed batch, split by layer.
type cellCost struct {
	sample, gather time.Duration
	agg, gemm      [2]time.Duration
	frontier       int
	edges          [2]int64
	flops          [2]int64
}

// replayOne runs one batch through gnn.SampleBlocks, gnn.GatherRows and
// gnn.SampledForwardContext. With traced set, the forward pass carries a
// program trace whose per-layer aggregate and update spans are copied into
// the benchmark's recorder, under the forward call's span.
func replayOne(r *run, in *serveInputs, ids []int32, fanouts []int, rng *rand.Rand, group int64, traced bool) (cellCost, error) {
	var c cellCost
	rec := r.rec
	if !traced {
		rec = nil
	}
	root := rec.begin("replay", group, 0)
	defer root.end()
	var blocks []*gnn.Block
	var err error
	t0 := time.Now()
	sp := rec.begin("gnn.SampleBlocks", group, root.ID())
	blocks, err = gnn.SampleBlocks(in.g, gnn.GCN, ids, fanouts, rng)
	sp.end()
	c.sample = time.Since(t0)
	if err != nil {
		return c, err
	}
	t1 := time.Now()
	sp = rec.begin("gnn.GatherRows", group, root.ID())
	feats := gnn.GatherRows(in.x, blocks[0].SrcIDs, 0)
	sp.end()
	c.gather = time.Since(t1)
	c.frontier = len(blocks[0].SrcIDs)
	for k, blk := range blocks {
		c.edges[k] = int64(len(blk.SubG.Col))
		l := in.net.Layers[k]
		c.flops[k] = 2 * int64(blk.NumDst) * int64(l.In()) * int64(l.Out())
	}

	ctx := context.Background()
	var tr *telemetry.Trace
	if traced {
		tr = telemetry.NewTrace(telemetry.TraceID{1}, telemetry.SpanID{}, "replay")
		ctx = tr.Attach(ctx)
	}
	fsp := rec.begin("gnn.SampledForwardContext", group, root.ID())
	out, err := gnn.SampledForwardContext(ctx, in.net, blocks, feats, gnn.RunOptions{})
	fsp.end()
	if err != nil {
		return c, err
	}
	if out.Rows != len(ids) || out.Cols != dims[len(dims)-1] || out.HasNaN() {
		return c, fmt.Errorf("replayed batch of %d gave %dx%d logits (finite: %v)", len(ids), out.Rows, out.Cols, !out.HasNaN())
	}
	if traced {
		td := tr.Finish("", "")
		importLayers(rec, td, group, fsp.ID(), &c)
	}
	return c, nil
}

// importLayers copies the program's per-layer trace spans (layerK with its
// aggregate and update children) into the recorder and reads the per-layer
// aggregate and update times from them.
func importLayers(rec *recorder, td telemetry.TraceData, group, parent int64, c *cellCost) {
	layerIdx := make(map[telemetry.SpanID]int)
	layerSpan := make(map[telemetry.SpanID]int64)
	for _, s := range td.Spans {
		for k := 0; k < 2; k++ {
			if s.Name == telemetry.LayerName(k) {
				layerIdx[s.ID] = k
				layerSpan[s.ID] = rec.add("gnn."+s.Name, group, parent, s.Start, s.Start.Add(s.Dur))
			}
		}
	}
	for _, s := range td.Spans {
		k, ok := layerIdx[s.Parent]
		if !ok {
			continue
		}
		switch s.Name {
		case telemetry.PhaseAggregate:
			c.agg[k] += s.Dur
			rec.add("kernels.aggregate", group, layerSpan[s.Parent], s.Start, s.Start.Add(s.Dur))
		case telemetry.PhaseUpdate:
			c.gemm[k] += s.Dur
			rec.add("tensor.update", group, layerSpan[s.Parent], s.Start, s.Start.Add(s.Dur))
		}
	}
}

// replayObserved replays the batches the high-rate phase formed, as the
// server composed them, to split a served batch by layer.
func replayObserved(r *run, in *serveInputs, batches [][]int32, budget time.Duration) error {
	rng := rand.New(rand.NewSource(r.subSeed(seedSampling) + 1))
	var sample, gather, frontier, agg, gemm, edges, bytes, flops []float64
	start := time.Now()
	for i, ids := range batches {
		if i >= 3 && time.Since(start) > budget {
			break
		}
		c, err := replayOne(r, in, ids, serveFanouts, rng, int64(1)<<40+int64(i), true)
		if err != nil {
			return err
		}
		sample = append(sample, float64(c.sample)/1e3)
		gather = append(gather, float64(c.gather)/1e3)
		frontier = append(frontier, float64(c.frontier))
		agg = append(agg, ms(c.agg[0]+c.agg[1]))
		gemm = append(gemm, ms(c.gemm[0]+c.gemm[1]))
		edges = append(edges, float64(c.edges[0]+c.edges[1]))
		bytes = append(bytes, float64(c.edges[0]*int64(dims[0])+c.edges[1]*int64(dims[1]))*4)
		flops = append(flops, float64(c.flops[0]+c.flops[1]))
	}
	r.set("sample.us_per_batch", mean(sample))
	r.set("gather.us_per_batch", mean(gather))
	r.set("sample.frontier_rows_per_batch", mean(frontier))
	aggMS, gemmMS := mean(agg), mean(gemm)
	r.set("agg.ms_per_step", aggMS)
	r.set("gemm.ms_per_step", gemmMS)
	r.set("agg.edges_per_step", mean(edges))
	if aggMS > 0 {
		r.set("agg.gbytes_per_s", mean(bytes)/(aggMS/1e3)/1e9)
	}
	if gemmMS > 0 {
		r.set("gemm.gflops", mean(flops)/(gemmMS/1e3)/1e9)
	}
	return nil
}

// replayLedger times batches of 1, 8 and 64 seeded vertices at fanouts
// 10,10 and full through the sampled path, layer by layer, plus the bytes
// and allocations one batch costs (from untraced repetitions).
func replayLedger(r *run, in *serveInputs, budget time.Duration) error {
	cells := len(ledgerBatches) * len(ledgerFanouts)
	perCell := budget / time.Duration(cells)
	cell := 0
	for _, b := range ledgerBatches {
		for _, f := range ledgerFanouts {
			fanouts := []int{0, 0} // full neighbourhoods
			if f == "f10" {
				fanouts = serveFanouts
			}
			seed := r.subSeed(seedVertices) + 1000 + int64(cell)
			vrng := rand.New(rand.NewSource(seed))
			srng := rand.New(rand.NewSource(seed + 1))
			group := int64(2)<<40 + int64(cell)<<20

			// Untraced repetitions: bytes and allocations per batch.
			var m0, m1 runtime.MemStats
			reps := 0
			runtime.ReadMemStats(&m0)
			start := time.Now()
			for reps < 3 || (time.Since(start) < perCell/2 && reps < 200) {
				if _, err := replayOne(r, in, uniformIDs(vrng, serveVertices, b), fanouts, srng, 0, false); err != nil {
					return err
				}
				reps++
			}
			runtime.ReadMemStats(&m1)

			// Traced repetitions: time per phase and layer.
			var ph [6][]float64
			start = time.Now()
			for i := 0; i < 3 || (time.Since(start) < perCell/2 && i < 200); i++ {
				c, err := replayOne(r, in, uniformIDs(vrng, serveVertices, b), fanouts, srng, group+int64(i), true)
				if err != nil {
					return err
				}
				for k, d := range []time.Duration{c.sample, c.gather, c.agg[0], c.agg[1], c.gemm[0], c.gemm[1]} {
					ph[k] = append(ph[k], float64(d)/1e3)
				}
			}
			p := fmt.Sprintf("replay.b%d.%s.", b, f)
			for k, name := range ledgerPhases {
				r.set(p+name+"_us", medianOf(ph[k]))
			}
			r.set(p+"bytes_per_batch", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(reps))
			r.set(p+"allocs_per_batch", float64(m1.Mallocs-m0.Mallocs)/float64(reps))
			cell++
		}
	}
	return nil
}
