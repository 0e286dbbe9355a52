// Package sched provides the parallel work scheduling substrate used by the
// aggregation and update kernels.
//
// The paper schedules aggregation tasks with OpenMP's dynamic scheduler
// because vertex degrees can follow a power-law distribution and static
// partitioning leaves threads idle (§4.1). This package reproduces that
// behaviour: Dynamic/DynamicCtx hand out fixed-size chunks from an atomic
// cursor so that fast threads keep pulling work, while StaticCtx
// pre-partitions the iteration space (the DistGNN-style ablation baseline).
// ForEachThreadCtx runs one body per worker thread for kernels that own
// their thread loop and claim tasks through a Cursor.
//
// Every runner takes an optional telemetry sink (nil disables the
// per-worker accounting) and, except ForEachThreadCtx, a
// body(worker, start, end) over half-open ranges.
//
// All worker goroutines in the module are spawned here (enforced by the
// goroutine-recover lint rule), because this is where panics are contained:
// a panic inside a worker is captured into a *WorkerError instead of
// killing the process. The context-aware runners (DynamicCtx, StaticCtx,
// ForEachThreadCtx) return it as an error alongside cooperative
// cancellation; Dynamic, the uncancellable form for ctx-free helpers,
// re-panics it on the calling goroutine, where the gnn layer's API boundary
// converts it to an error.
package sched

import (
	"context"
	"runtime"
	"sync/atomic"

	"graphite/internal/telemetry"
)

// DefaultThreads returns the degree of parallelism used when a caller passes
// threads <= 0. It honours GOMAXPROCS so tests can pin parallelism.
func DefaultThreads() int {
	return runtime.GOMAXPROCS(0)
}

// Dynamic runs body(worker, start, end) over [0, n) in chunks of the given
// size, distributing chunks dynamically over the worker threads. It mirrors
// OpenMP's schedule(dynamic, chunk): each worker atomically claims the next
// chunk when it finishes its current one, which balances power-law degree
// skew across threads. body must be safe to call concurrently on disjoint
// ranges. When tel is a live sink every claimed chunk is accounted (chunk
// count, rows, busy wall time) so runs can quantify load imbalance across
// workers; a nil/disabled sink adds a single branch per chunk and nothing
// per row.
//
// Dynamic is DynamicCtx under context.Background(): it cannot be
// cancelled, and a panic in body re-panics on the calling goroutine as a
// *WorkerError carrying the worker id, chunk bounds and the worker's stack.
func Dynamic(n, chunk, threads int, tel *telemetry.Sink, body func(worker, start, end int)) {
	if err := DynamicCtx(background, n, chunk, threads, tel, body); err != nil {
		panic(err)
	}
}

// background is the context Dynamic runs under, held in a variable so the
// call sites Dynamic is inlined into load it rather than each converting a
// fresh context.Background() to an interface.
var background = context.Background()

// Cursor is a dynamic task cursor shared by worker threads. Next returns
// half-open chunk bounds until the iteration space is exhausted — or, for
// cursors built with NewCursorCtx, until the context is cancelled.
type Cursor struct {
	n     int
	chunk int
	done  <-chan struct{}
	pos   atomic.Int64
}

// NewCursor returns a cursor over [0, n) handing out chunks of the given
// size (minimum 1).
func NewCursor(n, chunk int) *Cursor {
	if chunk <= 0 {
		chunk = 1
	}
	return &Cursor{n: n, chunk: chunk}
}

// Next claims the next chunk. It returns ok=false when the space is
// exhausted or the cursor's context (NewCursorCtx) is cancelled.
func (c *Cursor) Next() (start, end int, ok bool) {
	if cancelled(c.done) {
		return 0, 0, false
	}
	s := int(c.pos.Add(int64(c.chunk))) - c.chunk
	if s >= c.n {
		return 0, 0, false
	}
	e := s + c.chunk
	if e > c.n {
		e = c.n
	}
	return s, e, true
}
