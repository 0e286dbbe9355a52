package sched

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"graphite/internal/telemetry"
)

// WorkerError is a panic recovered inside a scheduler worker, carrying
// enough context to diagnose the failing workload without crashing the
// process: which worker died, which chunk of the iteration space it was
// executing, the recovered value, and the worker's stack at the point of
// the panic. The first panicking worker wins; the others drain at the next
// chunk boundary.
type WorkerError struct {
	// Worker is the panicking worker's id.
	Worker int
	// Start, End bound the chunk the worker was executing (half-open).
	Start, End int
	// Recovered is the value recover() returned.
	Recovered any
	// Stack is the panicking worker's stack trace.
	Stack []byte
}

// Error implements error.
func (e *WorkerError) Error() string {
	return fmt.Sprintf("sched: worker %d panicked on chunk [%d,%d): %v", e.Worker, e.Start, e.End, e.Recovered)
}

// ctxDone returns ctx's done channel, or nil when ctx is nil or can never
// be cancelled (context.Background / context.TODO). A nil channel removes
// every cancellation branch from the workers, so the uncancellable fast
// path pays nothing per chunk beyond the panic-stop flag.
func ctxDone(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// DynamicCtx is the scheduler's dynamic core, Dynamic with cooperative
// cancellation and panic containment: workers observe ctx at chunk
// boundaries (chunk granularity bounds cancellation latency) and a panic in
// any worker is captured into a *WorkerError instead of killing the
// process. It returns the first worker's *WorkerError, ctx.Err() when
// cancelled, or nil. Recovered panics are counted on tel's
// panics-recovered counter.
func DynamicCtx(ctx context.Context, n, chunk, threads int, tel *telemetry.Sink, body func(worker, start, end int)) error {
	if n <= 0 {
		return ctxErr(ctx)
	}
	if chunk <= 0 {
		chunk = 1
	}
	if threads <= 0 {
		threads = DefaultThreads()
	}
	// Never spawn more workers than there are chunks to claim: a worker
	// beyond ceil(n/chunk) would only bump the cursor and exit.
	if maxWorkers := (n + chunk - 1) / chunk; threads > maxWorkers {
		threads = maxWorkers
	}
	done := ctxDone(ctx)
	var cursor atomic.Int64
	g := &containGroup{tel: tel}
	g.spawn(threads, func(id int) {
		cs, ce := -1, -1
		defer g.capture(id, &cs, &ce)
		for !g.stopped() {
			if cancelled(done) {
				return
			}
			start := int(cursor.Add(int64(chunk))) - chunk
			if start >= n {
				return
			}
			end := start + chunk
			if end > n {
				end = n
			}
			cs, ce = start, end
			claim(tel, body, id, start, end)
		}
	})
	return g.wait(ctx)
}

// StaticCtx runs body(worker, start, end) over [0, n) with one contiguous
// block per thread, mirroring OpenMP's schedule(static); the DistGNN-style
// baseline kernel uses it, the paper's optimized kernels use DynamicCtx.
// Each worker's range is accounted on tel as one claim, so comparing the
// busy-time imbalance against DynamicCtx's is the §4.1 argument for
// dynamic scheduling in numbers. Panics are contained as in DynamicCtx;
// ctx is checked before each worker starts its range, so a cancellation
// arriving mid-block is only observed once the block completes — use
// DynamicCtx when cancellation latency matters.
func StaticCtx(ctx context.Context, n, threads int, tel *telemetry.Sink, body func(worker, start, end int)) error {
	if n <= 0 {
		return ctxErr(ctx)
	}
	if threads <= 0 {
		threads = DefaultThreads()
	}
	if threads > n {
		threads = n
	}
	done := ctxDone(ctx)
	per := (n + threads - 1) / threads
	g := &containGroup{tel: tel}
	g.spawn(threads, func(id int) {
		start, end := id*per, min(id*per+per, n)
		defer g.capture(id, &start, &end)
		if g.stopped() || start >= end || cancelled(done) {
			return
		}
		claim(tel, body, id, start, end)
	})
	return g.wait(ctx)
}

// ForEachThreadCtx runs body(thread) once on each of the given number of
// worker threads and waits for all of them. Kernels that keep per-thread
// state (e.g. the ping-pong descriptor batches in the DMA driver, Alg. 5,
// or the fused layer's a-block buffer) use it to own their thread loop
// while claiming tasks dynamically through a Cursor; such bodies should
// build it with NewCursorCtx so cancellation is also observed at chunk
// boundaries inside the loop. A panic in any body is captured into a
// *WorkerError (counted on tel), and ctx is checked before each body
// starts.
func ForEachThreadCtx(ctx context.Context, threads int, tel *telemetry.Sink, body func(thread int)) error {
	if threads <= 0 {
		threads = DefaultThreads()
	}
	done := ctxDone(ctx)
	g := &containGroup{tel: tel}
	g.spawn(threads, func(id int) {
		cs, ce := -1, -1
		defer g.capture(id, &cs, &ce)
		if g.stopped() || cancelled(done) {
			return
		}
		body(id)
	})
	return g.wait(ctx)
}

// claim runs one claimed range, accounting it to its worker (one claim,
// its rows and busy wall time) when tel is a live sink.
func claim(tel *telemetry.Sink, body func(worker, start, end int), worker, start, end int) {
	if !tel.Enabled() {
		body(worker, start, end)
		return
	}
	t0 := time.Now()
	body(worker, start, end)
	tel.WorkerClaim(worker, 1, int64(end-start), time.Since(t0))
	tel.Add(telemetry.CtrSchedChunks, 1)
	tel.Add(telemetry.CtrSchedRows, int64(end-start))
}

// cancelled polls a done channel without blocking; a nil channel (an
// uncancellable context) is never cancelled.
func cancelled(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// containGroup coordinates a set of workers that contain panics: the first
// recovered panic is kept as a *WorkerError, and a stop flag drains the
// remaining workers at their next chunk boundary.
type containGroup struct {
	wg   sync.WaitGroup
	tel  *telemetry.Sink
	stop atomic.Bool
	once sync.Once
	werr *WorkerError
}

// spawn starts worker(id) for every id in [0, threads): a single worker
// runs inline on the calling goroutine, more get one goroutine each. Each
// worker must defer g.capture.
func (g *containGroup) spawn(threads int, worker func(id int)) {
	g.wg.Add(threads)
	if threads == 1 {
		worker(0)
		return
	}
	for t := 0; t < threads; t++ {
		go worker(t)
	}
}

// stopped reports whether a worker has panicked; the others bail out at the
// next chunk boundary. One atomic load per chunk — nothing per row.
func (g *containGroup) stopped() bool { return g.stop.Load() }

// capture is each worker's deferred recover handler. cs/ce point at the
// worker's current chunk bounds so the error reports where it died.
func (g *containGroup) capture(worker int, cs, ce *int) {
	if r := recover(); r != nil {
		g.once.Do(func() {
			g.werr = &WorkerError{Worker: worker, Start: *cs, End: *ce, Recovered: r, Stack: debug.Stack()}
		})
		g.stop.Store(true)
		g.tel.Inc(telemetry.CtrPanicsRecovered)
	}
	g.wg.Done()
}

// wait blocks until all workers finish and returns the first worker panic,
// else the context error, else nil. The WaitGroup orders the werr write
// before the read.
func (g *containGroup) wait(ctx context.Context) error {
	g.wg.Wait()
	if g.werr != nil {
		return g.werr
	}
	return ctxErr(ctx)
}

// ctxErr is ctx.Err() tolerating a nil context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// NewCursorCtx returns a cursor over [0, n) whose Next additionally
// observes ctx: once ctx is cancelled, Next reports exhaustion, so worker
// loops drain at chunk granularity. A background context adds a single nil
// check per claim.
func NewCursorCtx(ctx context.Context, n, chunk int) *Cursor {
	c := NewCursor(n, chunk)
	c.done = ctxDone(ctx)
	return c
}
