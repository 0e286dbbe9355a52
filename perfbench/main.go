// Command perfbench is the repository benchmark. It runs one seeded
// workload in process and prints, as the last line of standard output, one
// JSON object with the end-to-end metrics (or, with -trace 1, the per-layer
// metrics of a separate traced run):
//
//	go run ./perfbench -workload serve-sampled -seed 1 -seconds 30 -trace 0
//
// Workloads (see README.md for why each exists and which metric each layer
// metric should move):
//
//	serve-sampled    serve.Server.Infer under an open-loop Poisson schedule
//	fullbatch-infer  graphite.Engine.InferContext, Combined, products 40k
//	fullbatch-train  graphite.Trainer.Epoch, Combined + locality order
//
// Every run checks the program's outputs; a failed check prints
// "correct": false and exits 1. Spans of a traced run are written to
// .bench_build/perfbench/ when the run ends.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off. Their per-workload meaning is in README.md.
var endToEnd = []metricDef{
	{"p50_ms", "ms"},
	{"capacity_vps", "vertex/s"},
	{"heap_peak_mb", "MiB"},
	{"ok_frac", "frac"},
	{"setup_s", "s"},
}

// ledgerBatches and ledgerFanouts span the replay ledger's cells.
var (
	ledgerBatches = []int{1, 8, 64}
	ledgerFanouts = []string{"f10", "full"}
	ledgerPhases  = []string{"sample", "gather", "agg_l0", "agg_l1", "gemm_l0", "gemm_l1"}
	selfLayers    = []string{"serve", "gnn", "kernels", "tensor", "compress", "locality", "graph", "graphite", "loadgen"}
)

// perLayer are the traced run's metrics. A workload reports 0 for a layer
// metric whose layer it does not exercise.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"serve.queue_wait_p50_ms", "ms"},
		{"serve.queue_wait_p99_ms", "ms"},
		{"serve.batch_exec_p50_ms", "ms"},
		{"serve.batch_exec_p99_ms", "ms"},
		{"serve.batch_size_mean", "vertex"},
		{"serve.shed_frac", "frac"},
		{"serve.rejected_frac", "frac"},
		{"serve.expired_frac", "frac"},
		{"serve.degraded_frac", "frac"},
		{"lowrate.p99_ms", "ms"},
		{"highrate.p50_ms", "ms"},
		{"highrate.p99_ms", "ms"},
		{"serve.p99_knee_rps", "req/s"},
		{"step_tail_ms", "ms"},
		{"error_frac", "frac"},
		{"loadgen.late_p99_ms", "ms"},
		{"sample.us_per_batch", "us"},
		{"gather.us_per_batch", "us"},
		{"sample.frontier_rows_per_batch", "row"},
	}
	for _, b := range ledgerBatches {
		for _, f := range ledgerFanouts {
			p := fmt.Sprintf("replay.b%d.%s.", b, f)
			for _, ph := range ledgerPhases {
				defs = append(defs, metricDef{p + ph + "_us", "us"})
			}
			defs = append(defs, metricDef{p + "bytes_per_batch", "B"}, metricDef{p + "allocs_per_batch", "count"})
		}
	}
	defs = append(defs,
		metricDef{"agg.ms_per_step", "ms"},
		metricDef{"fused.ms_per_step", "ms"},
		metricDef{"agg.edges_per_step", "edge"},
		metricDef{"agg.gbytes_per_s", "GB/s-computed"},
		metricDef{"gemm.ms_per_step", "ms"},
		metricDef{"gemm.gflops", "GFLOP/s"},
		metricDef{"compress.input_ms", "ms"},
		metricDef{"compress.bytes_ratio", "ratio"},
		metricDef{"train.forward_ms", "ms"},
		metricDef{"train.backward_agg_ms", "ms"},
		metricDef{"train.backward_gemm_ms", "ms"},
		metricDef{"train.optimizer_ms", "ms"},
		metricDef{"locality.reorder_ms", "ms"},
		metricDef{"locality.hit_rate_natural", "frac"},
		metricDef{"locality.hit_rate_reordered", "frac"},
		metricDef{"sched.chunks_per_step", "count"},
		metricDef{"sched.busy_imbalance", "ratio"},
		metricDef{"graph.generate_s", "s"},
		metricDef{"gnn.prepare_s", "s"},
		metricDef{"gc.pause_ms_per_step", "ms"},
		metricDef{"alloc.mb_per_step", "MiB"},
		metricDef{"gc.cycles_per_step", "count"},
		metricDef{"trace.overhead_frac", "frac"},
	)
	for _, l := range selfLayers {
		defs = append(defs, metricDef{"self." + l + "_ms", "ms"})
	}
	return defs
}()

// workloads maps each workload name to its runner.
var workloads = map[string]func(*run) error{
	"serve-sampled":   runServeSampled,
	"fullbatch-infer": runFullbatchInfer,
	"fullbatch-train": runFullbatchTrain,
}

// run is one benchmark invocation: its inputs and what it found.
type run struct {
	seed    int64
	seconds time.Duration
	trace   bool
	rec     *recorder // nil unless tracing

	attempted, failed int
	problems          []string // failed correctness checks
	values            map[string]float64
}

// share returns the given fraction of the run's measurement time.
func (r *run) share(f float64) time.Duration { return time.Duration(f * float64(r.seconds)) }

// set records a metric value.
func (r *run) set(name string, v float64) { r.values[name] = v }

// check records a failed correctness check when ok is false.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// subSeed derives an independent seed for input k from the run seed
// (splitmix64), so every generated input depends only on -seed.
func (r *run) subSeed(k int64) int64 {
	z := uint64(r.seed) + uint64(k+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) & (1<<62 - 1))
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// result assembles the final line. Untraced runs must have set every
// end-to-end metric; traced runs report 0 for layers they do not exercise.
func (r *run) result() (resultJSON, error) {
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	out := resultJSON{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricJSON, len(defs))}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !r.trace {
			return out, fmt.Errorf("workload did not measure %s", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("%s measured as %v", d.name, v)
		}
		out.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	return out, nil
}

func main() {
	workload := flag.String("workload", "", "workload to run: serve-sampled, fullbatch-infer or fullbatch-train")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Int("seconds", 30, "measurement time in seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need -workload one of %v, -seconds >= 1, -trace 0|1\n", names)
		os.Exit(2)
	}
	r := &run{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traceFlag == 1,
		values: make(map[string]float64)}
	if r.trace {
		r.rec = newRecorder()
	}
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if r.trace {
		if err := finishTrace(r, *workload); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: trace: %v\n", err)
			os.Exit(1)
		}
	}
	res, err := r.result()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// finishTrace checks the span trees, derives each layer's self time and
// writes the spans to .bench_build/perfbench/.
func finishTrace(r *run, workload string) error {
	spans := r.rec.snapshot()
	if err := checkTree(spans); err != nil {
		r.check(false, "span tree: %v", err)
	}
	self := selfTimes(spans)
	for _, l := range selfLayers {
		var total time.Duration
		for name, d := range self {
			if layerOf(name) == l {
				total += d
			}
		}
		r.set("self."+l+"_ms", float64(total)/1e6)
	}
	dir := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", workload, r.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.rec.write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(spans), path)
	return nil
}

// layerOf maps a span name ("gnn.SampleBlocks") to its layer ("gnn").
func layerOf(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}
