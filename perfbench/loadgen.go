package main

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"time"

	"graphite/internal/serve"
)

// server is the part of serve.Server the load generator drives; tests
// substitute a stub with a known capacity.
type server interface {
	Infer(ctx context.Context, ids []int32) (serve.Result, error)
}

// poissonSchedule returns the send offsets of an open-loop Poisson arrival
// process at rate requests per second over dur.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		off := time.Duration(t * float64(time.Second))
		if off >= dur {
			return out
		}
		out = append(out, off)
	}
}

// uniformIDs draws count vertex ids uniformly from [0, n).
func uniformIDs(rng *rand.Rand, n, count int) []int32 {
	out := make([]int32, count)
	for i := range out {
		out[i] = int32(rng.Intn(n))
	}
	return out
}

// outcome classifies one request.
type outcome int

const (
	okUndegraded outcome = iota
	okDegraded
	refused // shed, queue full, breaker open or draining: the server said no
	failed  // expired or errored after admission
)

// reqRecord is one sent request, timed from its due time.
type reqRecord struct {
	due, sent, done time.Time
	out             outcome
	// uncounted marks refusals the server's counters do not count
	// (breaker open, draining).
	uncounted bool
	batch     uint64
	bad       error // the response failed validation
}

// latency is the request's latency from its due time. A request that was
// refused, failed or served degraded misses every limit: it counts as
// missLatency, so a change cannot buy latency with errors or quality.
func (r reqRecord) latency() time.Duration {
	if r.out != okUndegraded {
		return missLatency
	}
	return r.done.Sub(r.due)
}

// missLatency is the latency charged to a request that did not get a full
// answer: the server's default request deadline.
const missLatency = serve.DefaultDeadline

// phaseResult is one open-loop phase at a fixed rate.
type phaseResult struct {
	rate  float64
	start time.Time
	end   time.Time // when the last request was due
	ids   []int32   // the vertex each request asked for
	recs  []reqRecord
}

// counts returns requests sent and their outcomes.
func (p *phaseResult) counts() (sent int, by [4]int, bad int) {
	for _, r := range p.recs {
		by[r.out]++
		if r.bad != nil {
			bad++
		}
	}
	return len(p.recs), by, bad
}

// latencies returns every request's latency in milliseconds, ascending.
func (p *phaseResult) latencies() []float64 {
	ds := make([]time.Duration, len(p.recs))
	for i, r := range p.recs {
		ds[i] = r.latency()
	}
	return sortedMS(ds)
}

// lateness returns how late the generator sent each request, in ms.
func (p *phaseResult) lateness() []float64 {
	ds := make([]time.Duration, len(p.recs))
	for i, r := range p.recs {
		ds[i] = r.sent.Sub(r.due)
	}
	return sortedMS(ds)
}

// inflightAtEnd counts requests sent but not finished when the schedule
// ended: the backlog the server carried out of the phase.
func (p *phaseResult) inflightAtEnd() int {
	n := 0
	for _, r := range p.recs {
		if !r.sent.After(p.end) && r.done.After(p.end) {
			n++
		}
	}
	return n
}

// openLoop sends one single-vertex request per schedule entry at its due
// time, regardless of how many are still outstanding, and waits for all of
// them. validate checks each successful response. With a recorder, every
// request becomes a span group (group = groupBase + index) with the
// generator's lateness and the server call as children.
func openLoop(ctx context.Context, srv server, rate float64, sched []time.Duration, ids []int32,
	validate func(serve.Result) error, rec *recorder, groupBase int64) *phaseResult {
	p := &phaseResult{rate: rate, ids: ids, recs: make([]reqRecord, len(sched))}
	var wg sync.WaitGroup
	p.start = time.Now()
	for i, off := range sched {
		due := p.start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		//lint:ignore goroutine-recover an open loop needs one goroutine per outstanding request; a panic in the benchmark's own request wrapper should end the run
		go func(i int, due, sent time.Time) {
			defer wg.Done()
			res, err := srv.Infer(ctx, ids[i:i+1])
			done := time.Now()
			r := reqRecord{due: due, sent: sent, done: done, out: classify(res, err), batch: res.BatchID,
				uncounted: errors.Is(err, serve.ErrBreakerOpen) || errors.Is(err, serve.ErrDraining)}
			if err == nil {
				r.bad = validate(res)
			}
			p.recs[i] = r
			if root := rec.add("request", groupBase+int64(i), 0, due, done); root != 0 {
				rec.add("loadgen.late", groupBase+int64(i), root, due, sent)
				rec.add("serve.Infer", groupBase+int64(i), root, sent, done)
			}
		}(i, due, time.Now())
	}
	if len(sched) > 0 {
		p.end = p.start.Add(sched[len(sched)-1])
	} else {
		p.end = p.start
	}
	wg.Wait()
	return p
}

func classify(res serve.Result, err error) outcome {
	switch {
	case err == nil && res.DegradeLevel == 0:
		return okUndegraded
	case err == nil:
		return okDegraded
	case errors.Is(err, serve.ErrShed), errors.Is(err, serve.ErrQueueFull),
		errors.Is(err, serve.ErrBreakerOpen), errors.Is(err, serve.ErrDraining):
		return refused
	default:
		return failed
	}
}

// p99Block is the number of consecutive requests over which one p99 is
// taken: ten samples lie beyond it.
const p99Block = 1000

// blockP99 is the phase's p99 latency as a typical stretch of traffic sees
// it: the p99 of each block of p99Block consecutive requests (by due time;
// a short final block joins the one before it), and the median over the
// blocks. A single scheduling stall spoils one block, not the result. A
// phase shorter than one block has one p99 over all its requests.
func (p *phaseResult) blockP99() float64 {
	var p99s []float64
	n := len(p.recs)
	for lo := 0; lo < n; lo += p99Block {
		hi := lo + p99Block
		if n-hi < p99Block {
			hi = n
		}
		ds := make([]time.Duration, 0, hi-lo)
		for _, r := range p.recs[lo:hi] {
			ds = append(ds, r.latency())
		}
		p99s = append(p99s, percentile(sortedMS(ds), 0.99))
		if hi == n {
			break
		}
	}
	return medianOf(p99s)
}

// Limits that define a sustainable rate.
const (
	p99LimitMS = 20.0
	minOKFrac  = 0.99
)

// keepsUp reports whether the server kept up with a phase's offered rate:
// at least minOKFrac of requests answered undegraded, and no growing
// backlog. By Little's law a server that keeps up carries about
// rate × latency requests, so a backlog above twice rate × p99LimitMS
// (plus one full batch) when the schedule ends is growing.
func (p *phaseResult) keepsUp() bool {
	sent, by, _ := p.counts()
	if sent == 0 || float64(by[okUndegraded]) < minOKFrac*float64(sent) {
		return false
	}
	allowed := 2*p.rate*p99LimitMS/1000 + serve.DefaultMaxBatch
	return float64(p.inflightAtEnd()) <= allowed
}

// sustainable is keepsUp with the latency limit too: blockP99 (failed,
// refused and degraded requests counted as misses) at most p99LimitMS.
func (p *phaseResult) sustainable() bool {
	return p.keepsUp() && p.blockP99() <= p99LimitMS
}

// searchMaxRate bisects geometrically between lo, a rate known to be
// sustainable, and hi, one assumed not to be, for a fixed number of
// probes, and returns the highest rate that passed.
func searchMaxRate(lo, hi float64, probes int, pass func(rate float64) bool) float64 {
	for i := 0; i < probes; i++ {
		mid := math.Sqrt(lo * hi)
		if pass(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
