package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"graphite/internal/serve"
	"graphite/internal/tensor"
)

func TestTailRule(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n         int
		value     float64
		pct       float64
		atMedian  bool
		tenBeyond bool
	}{
		{n: 100, value: 90, pct: 90, tenBeyond: true},
		{n: 1000, value: 990, pct: 99, tenBeyond: true},
		{n: 27, value: 17, pct: 100 * 17.0 / 27, tenBeyond: true},
		{n: 21, value: 11, pct: 100 * 11.0 / 21, tenBeyond: true},
		{n: 12, value: 6.5, pct: 50, atMedian: true},
		{n: 1, value: 1, pct: 50, atMedian: true},
	} {
		xs := ramp(tc.n)
		v, pct := tail(xs)
		if v != tc.value || pct != tc.pct {
			t.Errorf("n=%d: tail = %g at p%g, want %g at p%g", tc.n, v, pct, tc.value, tc.pct)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if tc.tenBeyond && beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", tc.n, beyond, tailBeyond)
		}
		if tc.atMedian && v != median(xs) {
			t.Errorf("n=%d: too few samples, tail %g should fall back to the median %g", tc.n, v, median(xs))
		}
	}
	if v, pct := tail(nil); v != 0 || pct != 0 {
		t.Errorf("empty sample: tail = %g at p%g", v, pct)
	}
}

func TestSelfTimeFromNestedSpans(t *testing.T) {
	// root [0,100] has children a [10,40] and b [30,60] (overlapping, as
	// parallel calls do) and c [90,120], which runs past the root's end;
	// a has a child g [15,20].
	spans := []span{
		{ID: 1, Group: 7, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Group: 7, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Group: 7, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Group: 7, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 2, Group: 7, Name: "g", Start: 15, End: 20},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"root": 100 - 50 - 10, "a": 30 - 5, "b": 30, "c": 30, "g": 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times = %v, want %v", got, want)
	}
	// Two spans of one name add up.
	spans = append(spans, span{ID: 6, Group: 8, Name: "a", Start: 0, End: 3})
	if got := selfTimes(spans)["a"]; got != 28 {
		t.Fatalf("self time of a over two groups = %v, want 28", got)
	}
}

func TestCheckTree(t *testing.T) {
	good := []span{
		{ID: 1, Group: 1, Name: "request", Start: 0, End: 10},
		{ID: 2, Parent: 1, Group: 1, Name: "serve.Infer", Start: 2, End: 10},
	}
	if err := checkTree(good); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]span{
		"unknown parent": {ID: 3, Parent: 9, Group: 1, Start: 1, End: 2},
		"other group":    {ID: 3, Parent: 1, Group: 2, Start: 1, End: 2},
		"outside parent": {ID: 3, Parent: 1, Group: 1, Start: 5, End: 11},
		"ends early":     {ID: 3, Group: 1, Start: 5, End: 4},
	} {
		if err := checkTree(append(append([]span(nil), good...), bad)); err == nil {
			t.Errorf("%s: checkTree accepted a broken tree", name)
		}
	}
}

func TestRecorderNests(t *testing.T) {
	r := newRecorder()
	root := r.begin("step", 4, 0)
	timedRun := &run{rec: r}
	timed(timedRun, "graphite.InferContext", 4, root.ID(), func() { time.Sleep(time.Millisecond) })
	root.end()
	spans := r.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID {
		t.Fatalf("spans = %+v", spans)
	}
	if err := checkTree(spans); err != nil {
		t.Fatal(err)
	}
	var nilRec *recorder
	if sp := nilRec.begin("x", 1, 0); sp != nil || nilRec.add("x", 1, 0, time.Now(), time.Now()) != 0 {
		t.Fatal("a nil recorder must record nothing")
	}
}

// TestSeedFixesInputs: one seed gives identical schedules and inputs, and
// another seed different ones.
func TestSeedFixesInputs(t *testing.T) {
	inputs := func(seed int64) ([]time.Duration, []int32, []int32, []float32, []int32) {
		r := &run{seed: seed}
		sched := poissonSchedule(rand.New(rand.NewSource(r.subSeed(seedSchedule))), highRate, 200*time.Millisecond)
		ids := uniformIDs(rand.New(rand.NewSource(r.subSeed(seedVertices))), serveVertices, len(sched))
		g, err := genGraph(r, 500)
		if err != nil {
			t.Fatal(err)
		}
		x := genFeatures(r, g.NumVertices())
		return sched, ids, g.Col, x.Data, genLabels(r, x)
	}
	s1, i1, g1, x1, l1 := inputs(5)
	s2, i2, g2, x2, l2 := inputs(5)
	if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(i1, i2) || !reflect.DeepEqual(g1, g2) ||
		!reflect.DeepEqual(x1, x2) || !reflect.DeepEqual(l1, l2) {
		t.Fatal("the same seed produced different inputs")
	}
	s3, i3, g3, x3, _ := inputs(6)
	if reflect.DeepEqual(s1, s3) || reflect.DeepEqual(i1, i3) || reflect.DeepEqual(g1, g3) || reflect.DeepEqual(x1, x3) {
		t.Fatal("different seeds produced identical inputs")
	}
	// The schedule is Poisson at the requested rate.
	if n := len(s1); n < 300 || n > 500 {
		t.Fatalf("%d arrivals in 200ms at %g req/s", n, highRate)
	}
	if !sort.SliceIsSorted(s1, func(i, j int) bool { return s1[i] < s1[j] }) {
		t.Fatal("schedule is not in time order")
	}
}

func TestSearchMaxRateFindsKnee(t *testing.T) {
	const knee = 3500.0
	got := searchMaxRate(highRate, searchCeiling, searchProbes, func(rate float64) bool { return rate <= knee })
	if got > knee || got < knee*0.99 {
		t.Fatalf("search found %g, knee is %g", got, knee)
	}
}

// stubServer is a single FIFO server with a fixed service time: a
// deterministic-service queue whose backlog grows without bound above
// 1/svc requests per second.
type stubServer struct {
	svc       time.Duration
	mu        sync.Mutex
	busyUntil time.Time
}

func (s *stubServer) Infer(ctx context.Context, ids []int32) (serve.Result, error) {
	s.mu.Lock()
	start := time.Now()
	if s.busyUntil.After(start) {
		start = s.busyUntil
	}
	s.busyUntil = start.Add(s.svc)
	done := s.busyUntil
	s.mu.Unlock()
	time.Sleep(time.Until(done))
	return serve.Result{Logits: tensor.NewMatrix(len(ids), dims[len(dims)-1]), Version: 1}, nil
}

// TestMaxRateSearchAgainstStub runs the open-loop search against a stub
// with a known capacity of 1000 req/s, judging probes as capacity_vps
// does (answers and backlog, keepsUp). Over a 1.5 s probe the backlog
// allowance (2 × rate × 20 ms + one batch) lets a rate up to about 7%
// over capacity pass, so the found rate must lie within 10% above the
// capacity and not far below it. The p99 limit that sustainable adds is
// covered by TestSustainable: a wall-clock latency limit here would fail
// whenever other test binaries hold the CPUs.
func TestMaxRateSearchAgainstStub(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real-time load")
	}
	const capacity = 1000.0
	stub := &stubServer{svc: time.Second / capacity}
	probe := func(rate float64) *phaseResult {
		sched := poissonSchedule(rand.New(rand.NewSource(int64(rate))), rate, 1500*time.Millisecond)
		return openLoop(context.Background(), stub, rate, sched, make([]int32, len(sched)), validResponse, nil, 0)
	}
	if p := probe(2 * capacity); p.keepsUp() {
		t.Fatal("a probe at twice the capacity passed")
	}
	got := searchMaxRate(100, 4000, searchProbes, func(rate float64) bool { return probe(rate).keepsUp() })
	t.Logf("max rate that keeps up = %.0f req/s", got)
	if got > 1.1*capacity || got < 0.6*capacity {
		t.Fatalf("max rate that keeps up = %.0f req/s, capacity is %.0f", got, capacity)
	}
}

// TestHostScale checks the calibration of full-batch step times: a run
// whose reference kernel took twice refNominal halves its times.
func TestHostScale(t *testing.T) {
	if got := hostScale([]time.Duration{refNominal, 3 * refNominal, refNominal}); got != 1 {
		t.Errorf("median reference at nominal: scale %g, want 1", got)
	}
	if got := hostScale([]time.Duration{2 * refNominal, 2 * refNominal}); got != 0.5 {
		t.Errorf("reference twice nominal: scale %g, want 0.5", got)
	}
	c, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	if d := c.measure(); d <= 0 {
		t.Errorf("reference kernel took %v", d)
	}
	if err := c.close(); err != nil {
		t.Error(err)
	}
}

func TestSustainable(t *testing.T) {
	base := time.Now()
	phase := func(n int, lat time.Duration, refusedN int) *phaseResult {
		p := &phaseResult{rate: 1000, start: base, end: base.Add(time.Duration(n) * time.Millisecond)}
		for i := 0; i < n; i++ {
			due := base.Add(time.Duration(i) * time.Millisecond)
			rec := reqRecord{due: due, sent: due, done: due.Add(lat)}
			if i < refusedN {
				rec.out = refused
			}
			p.recs = append(p.recs, rec)
		}
		return p
	}
	if !phase(1000, 5*time.Millisecond, 0).sustainable() {
		t.Error("5 ms everywhere should be sustainable")
	}
	if phase(1000, 25*time.Millisecond, 0).sustainable() {
		t.Error("p99 of 25 ms should miss the 20 ms limit")
	}
	if phase(1000, 5*time.Millisecond, 20).sustainable() {
		t.Error("2% refused should miss the 99% success limit")
	}
	if !phase(1000, 5*time.Millisecond, 5).sustainable() {
		t.Error("0.5% refused is within the limits")
	}
	if !phase(1000, 25*time.Millisecond, 5).keepsUp() {
		t.Error("keepsUp has no latency limit")
	}
	// A growing backlog: each request waits 0.3 ms longer than the one
	// before, so about 230 are outstanding when the schedule ends, over
	// the 2 × rate × limit + one batch that Little's law allows.
	grow := phase(1000, 0, 0)
	for i := range grow.recs {
		grow.recs[i].done = grow.recs[i].due.Add(time.Duration(i) * 300 * time.Microsecond)
	}
	if grow.keepsUp() {
		t.Errorf("a growing backlog (%d outstanding at the end) should not keep up", grow.inflightAtEnd())
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, program prints %d", len(c.json), len(c.defs))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}
