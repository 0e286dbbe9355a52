package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"graphite/internal/gnn"
	"graphite/internal/graph"
	"graphite/internal/serve"
	"graphite/internal/telemetry"
	"graphite/internal/tensor"
)

// The serve-sampled workload: graphite-serve's defaults over products at
// 20k vertices with fanouts 10,10, request tracing off, one vertex per
// request, driven in process (no sockets) by an open-loop Poisson
// schedule.
const (
	serveVertices = 20_000
	lowRate       = 200.0  // req/s: an idle server, where MaxLinger dominates
	highRate      = 2000.0 // req/s: batches coalesce and GEMM dominates
	searchCeiling = 16000.0
	searchProbes  = 6
	// capacitySearches independent searches are made; capacity_vps is
	// their median.
	capacitySearches = 2
	warmupRate       = 1000.0
	warmupTime       = 500 * time.Millisecond
	// probeIDs is the batch the full-fanout exactness probe asks for.
	probeIDs = 8
	// exactTol is the served-vs-direct tolerance of the serve package's
	// own exactness test.
	exactTol = 1e-5
)

var serveFanouts = []int{10, 10}

type serveInputs struct {
	g   *graph.CSR
	x   *tensor.Matrix
	net *gnn.Network
	srv *serve.Server
}

// serveConfig is graphite-serve's configuration with request-trace
// sampling off.
func serveConfig(r *run, in *serveInputs, fanouts []int) serve.Config {
	return serve.Config{Net: in.net, Graph: in.g, X: in.x, Fanouts: fanouts,
		Seed: r.subSeed(seedSampling), TraceSample: -1}
}

func shutdown(srv *serve.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

func buildServe(r *run, in *serveInputs) setupFunc {
	return func(group, parent int64) (gen, prep time.Duration, err error) {
		if in.srv != nil {
			if err := shutdown(in.srv); err != nil {
				return 0, 0, err
			}
			in.srv = nil
		}
		sp := r.rec.begin("graph.Generate", group, parent)
		t0 := time.Now()
		g, err := genGraph(r, serveVertices)
		gen = time.Since(t0)
		sp.end()
		if err != nil {
			return gen, 0, err
		}
		t1 := time.Now()
		psp := r.rec.begin("serve.prepare", group, parent)
		defer psp.end()
		x := genFeatures(r, g.NumVertices())
		net, err := newNetwork(r)
		if err != nil {
			return gen, 0, err
		}
		*in = serveInputs{g: g, x: x, net: net}
		if in.srv, err = serve.NewServer(serveConfig(r, in, serveFanouts)); err != nil {
			return gen, 0, err
		}
		return gen, time.Since(t1), nil
	}
}

// validResponse checks one served answer: one row of finite logits of the
// model's width, from snapshot version 1.
func validResponse(res serve.Result) error {
	switch {
	case res.Logits == nil || res.Logits.Rows != 1 || res.Logits.Cols != dims[len(dims)-1]:
		return fmt.Errorf("response shape is wrong")
	case res.Logits.HasNaN():
		return fmt.Errorf("response logits are not finite")
	case res.Version != 1:
		return fmt.Errorf("response from snapshot version %d", res.Version)
	}
	return nil
}

// phaseAt runs one open-loop phase at rate for dur. Schedules and vertex
// ids come from the run seed and the phase's slot, so one seed always
// offers the same traffic.
func phaseAt(r *run, srv server, slot int64, rate float64, dur time.Duration, rec *recorder) *phaseResult {
	sched := poissonSchedule(rand.New(rand.NewSource(r.subSeed(seedSchedule)+slot)), rate, dur)
	ids := uniformIDs(rand.New(rand.NewSource(r.subSeed(seedVertices)+slot)), serveVertices, len(sched))
	return openLoop(context.Background(), srv, rate, sched, ids, validResponse, rec, slot<<32)
}

// account checks one phase's books: every request sent got exactly one
// answer, the server admitted each once, and its refusal and failure
// counters match what the clients saw. It returns the counter deltas.
func account(r *run, name string, p *phaseResult, before, after telemetry.Snapshot) map[string]int64 {
	delta := make(map[string]int64)
	for k, v := range after.Counters {
		delta[k] = v - before.Counters[k]
	}
	sent, by, bad := p.counts()
	for _, rec := range p.recs {
		if rec.done.IsZero() {
			r.check(false, "%s: a request got no answer", name)
			break
		}
	}
	r.check(bad == 0, "%s: %d responses failed validation", name, bad)
	r.check(by[okUndegraded]+by[okDegraded]+by[refused]+by[failed] == sent,
		"%s: sent %d != succeeded + degraded + refused + failed %v", name, sent, by)
	r.check(delta[telemetry.CtrServeRequests.Name()] == int64(sent),
		"%s: sent %d requests, server admitted %d", name, sent, delta[telemetry.CtrServeRequests.Name()])
	uncounted := 0
	for _, rec := range p.recs {
		if rec.uncounted {
			uncounted++
		}
	}
	srvNo := delta[telemetry.CtrServeShed.Name()] + delta[telemetry.CtrServeRejected.Name()] +
		delta[telemetry.CtrServeExpired.Name()] + delta[telemetry.CtrServeFailed.Name()]
	r.check(srvNo == int64(by[refused]+by[failed]-uncounted),
		"%s: server counted %d refused or failed, clients saw %d", name, srvNo, by[refused]+by[failed]-uncounted)
	return delta
}

// runServeSampled drives serve.Server.Infer open loop at the two fixed
// rates, then searches for the highest sustainable rate.
func runServeSampled(r *run) error {
	var in serveInputs
	if err := repeatSetup(r, buildServe(r, &in)); err != nil {
		return err
	}
	defer func() {
		if in.srv != nil {
			_ = shutdown(in.srv) // the run's result is already decided
		}
	}()
	if err := exactnessProbe(r, &in); err != nil {
		return err
	}
	phaseAt(r, in.srv, 100, warmupRate, warmupTime, nil)
	if r.trace {
		return traceServe(r, &in)
	}

	runtime.GC()
	hs := startHeapSampler()
	snap0 := in.srv.Tel().Snapshot()
	low := phaseAt(r, in.srv, 0, lowRate, r.share(0.15), nil)
	snap1 := in.srv.Tel().Snapshot()
	high := phaseAt(r, in.srv, 1, highRate, r.share(0.1), nil)
	snap2 := in.srv.Tel().Snapshot()
	heap := hs.stopMB()
	account(r, "lowrate", low, snap0, snap1)
	account(r, "highrate", high, snap1, snap2)

	cal, err := newCalibrator()
	if err != nil {
		return fmt.Errorf("reference kernel: %w", err)
	}
	defer cal.close()
	cal.measure()
	var found []float64
	for i := 0; i < capacitySearches; i++ {
		c, err := searchRate(r, &in, false, []*phaseResult{low, high}, r.share(0.75/capacitySearches), int64(2+i*2*searchProbes), cal)
		if err != nil {
			return err
		}
		found = append(found, c)
	}
	fmt.Fprintf(os.Stderr, "perfbench: capacity searches found %.0f req/s\n", found)
	logCalibration(cal.scale(), cal.refs)

	r.set("p50_ms", median(low.latencies()))
	r.set("capacity_vps", medianOf(found)/cal.scale())
	r.set("heap_peak_mb", heap)
	var sent, ok, bad int
	for _, p := range []*phaseResult{low, high} {
		n, by, _ := p.counts()
		sent += n
		ok += by[okUndegraded]
		bad += by[refused] + by[failed]
	}
	r.attempted, r.failed = sent, bad
	r.set("ok_frac", float64(ok)/float64(max(sent, 1)))
	logLateness(low, high)
	return nil
}

func logLateness(ps ...*phaseResult) {
	for _, p := range ps {
		l := p.lateness()
		fmt.Fprintf(os.Stderr, "perfbench: %.0f req/s: %d requests, generator late p50 %.3f ms p99 %.3f ms\n",
			p.rate, len(p.recs), median(l), percentile(l, 0.99))
	}
}

// exactnessProbe sends probeIDs concurrent single-vertex requests to a
// server with full fanouts, so the batcher coalesces them, and compares
// every answer with the direct per-vertex inference path's row for that
// vertex: full neighbourhoods make the answer independent of batching.
func exactnessProbe(r *run, in *serveInputs) error {
	srv, err := serve.NewServer(serveConfig(r, in, nil))
	if err != nil {
		return err
	}
	defer func() { _ = shutdown(srv) }()
	ids := uniformIDs(rand.New(rand.NewSource(r.subSeed(seedVertices)-1)), serveVertices, probeIDs)
	want, err := gnn.InferVerticesContext(context.Background(), in.net, in.g, in.x, ids, nil, nil, gnn.RunOptions{})
	if err != nil {
		return fmt.Errorf("exactness probe, direct path: %w", err)
	}
	res := make([]serve.Result, len(ids))
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		//lint:ignore goroutine-recover concurrent callers are what make the batcher coalesce the probe's requests; the goroutine only calls Infer
		go func(i int) {
			defer wg.Done()
			res[i], errs[i] = srv.Infer(context.Background(), ids[i:i+1])
		}(i)
	}
	wg.Wait()
	batches := make(map[uint64]bool)
	for i := range ids {
		if errs[i] != nil {
			return fmt.Errorf("exactness probe: %w", errs[i])
		}
		d := math.Inf(1)
		if got := res[i].Logits; got != nil && got.Rows == 1 && got.Cols == want.Cols {
			d = 0
			for j, v := range got.Row(0) {
				d = math.Max(d, math.Abs(float64(v-want.Row(i)[j])))
			}
		}
		r.check(d <= exactTol, "full-fanout answer for vertex %d differs from gnn.InferVerticesContext by %g", ids[i], d)
		r.check(res[i].Version == 1, "probe served by snapshot version %d", res[i].Version)
		batches[res[i].BatchID] = true
	}
	fmt.Fprintf(os.Stderr, "perfbench: exactness probe: %d requests served in %d batches\n", len(ids), len(batches))
	return nil
}

// batchesOf groups a phase's successful requests by the batch that served
// them, in batch order.
func batchesOf(p *phaseResult) [][]int32 {
	by := make(map[uint64][]int32)
	for i, rec := range p.recs {
		if rec.out == okUndegraded || rec.out == okDegraded {
			by[rec.batch] = append(by[rec.batch], p.ids[i])
		}
	}
	keys := make([]uint64, 0, len(by))
	for k := range by {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([][]int32, len(keys))
	for i, k := range keys {
		out[i] = by[k]
	}
	return out
}

// searchRate bisects for the highest sustainable offered rate in
// searchProbes steps sharing budget. With p99Limit the latency limit is
// part of the criterion (sustainable), otherwise only answers and backlog
// are (keepsUp). The bracket starts at the highest fixed-rate phase that
// passed. A rate fails only when two probes at it fail: a host stall can
// make a sustainable rate fail once, but cannot make an unsustainable one
// pass. Each probe gets a fresh server, so overload-control state from one
// probe cannot leak into the next; slot numbers the probes' traffic. A
// non-nil cal times the reference kernel after every probe.
func searchRate(r *run, in *serveInputs, p99Limit bool, fixed []*phaseResult, budget time.Duration, slot int64, cal *calibrator) (float64, error) {
	// About half the steps fail and are probed twice.
	probeDur := max(budget*2/(3*searchProbes)-150*time.Millisecond, 200*time.Millisecond)
	passes := func(p *phaseResult) bool {
		if p99Limit {
			return p.sustainable()
		}
		return p.keepsUp()
	}
	lo, hi := lowRate/16, lowRate
	for _, p := range fixed {
		if passes(p) {
			lo, hi = p.rate, searchCeiling
		}
	}
	var probeErr error
	probe := func(rate float64) bool {
		if probeErr != nil {
			return false
		}
		srv, err := serve.NewServer(serveConfig(r, in, serveFanouts))
		if err != nil {
			probeErr = err
			return false
		}
		runtime.GC()
		before := srv.Tel().Snapshot()
		p := phaseAt(r, srv, slot, rate, probeDur, nil)
		slot++
		account(r, fmt.Sprintf("probe at %.0f req/s", rate), p, before, srv.Tel().Snapshot())
		if err := shutdown(srv); err != nil {
			probeErr = err
		}
		if cal != nil {
			cal.measure()
		}
		return passes(p)
	}
	found := searchMaxRate(lo, hi, searchProbes, func(rate float64) bool { return probe(rate) || probe(rate) })
	return found, probeErr
}
