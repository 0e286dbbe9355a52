package sched

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphite/internal/telemetry"
)

func TestDynamicCtxCoversAllWithoutCancel(t *testing.T) {
	for _, tc := range []struct{ n, chunk, threads int }{
		{1, 1, 1}, {7, 3, 2}, {100, 7, 4}, {100, 1000, 4}, {64, 8, 8},
	} {
		counts := make([]int32, tc.n)
		err := DynamicCtx(context.Background(), tc.n, tc.chunk, tc.threads, nil, func(_, start, end int) {
			for i := start; i < end; i++ {
				atomic.AddInt32(&counts[i], 1)
			}
		})
		if err != nil {
			t.Fatalf("n=%d: unexpected error: %v", tc.n, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("n=%d chunk=%d threads=%d: index %d visited %d times", tc.n, tc.chunk, tc.threads, i, c)
			}
		}
	}
}

// TestDynamicCtxCancellationLatency is the cancellation-latency contract:
// after cancel, a DynamicCtx run over a large iteration space must stop at
// chunk granularity — every worker may at most finish its in-flight chunk
// plus claim one more that slipped past the pre-claim check — rather than
// draining the whole space.
func TestDynamicCtxCancellationLatency(t *testing.T) {
	const (
		n       = 1 << 20
		chunk   = 64
		threads = 4
	)
	ctx, cancel := context.WithCancel(context.Background())
	var started, afterCancel atomic.Int64
	var cancelled atomic.Bool
	var once sync.Once
	err := DynamicCtx(ctx, n, chunk, threads, nil, func(_, start, end int) {
		if cancelled.Load() {
			afterCancel.Add(1)
		}
		if started.Add(1) == 8 {
			once.Do(func() {
				cancelled.Store(true)
				cancel()
			})
		}
		time.Sleep(100 * time.Microsecond)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	total := started.Load()
	if total >= n/chunk {
		t.Fatalf("ran all %d chunks despite cancellation", total)
	}
	// Each worker can be mid-chunk when cancel lands and may claim at most
	// one more chunk between its done-check and the claim.
	if got := afterCancel.Load(); got > 2*threads {
		t.Fatalf("%d chunks started after cancel, want <= %d", got, 2*threads)
	}
	t.Logf("chunks started: %d total, %d after cancel", total, afterCancel.Load())
}

func TestDynamicCtxCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := atomic.Int64{}
	err := DynamicCtx(ctx, 1000, 8, 4, nil, func(_, start, end int) { ran.Add(1) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Workers check ctx before claiming, so nothing (or at most one chunk
	// per worker racing the check) runs.
	if got := ran.Load(); got > 4 {
		t.Fatalf("%d chunks ran under a pre-cancelled context", got)
	}
}

func TestDynamicCtxContainsPanic(t *testing.T) {
	tel := telemetry.New(0)
	err := DynamicCtx(context.Background(), 1000, 10, 4, tel, func(worker, start, end int) {
		if start == 500 {
			panic("boom at 500")
		}
	})
	var we *WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("err = %v (%T), want *WorkerError", err, err)
	}
	if we.Start != 500 || we.End != 510 {
		t.Errorf("chunk bounds [%d,%d), want [500,510)", we.Start, we.End)
	}
	if we.Worker < 0 || we.Worker >= 4 {
		t.Errorf("worker id %d out of range", we.Worker)
	}
	if len(we.Stack) == 0 || !strings.Contains(string(we.Stack), "sched") {
		t.Errorf("stack missing or implausible: %q", we.Stack)
	}
	if !strings.Contains(we.Error(), "boom at 500") {
		t.Errorf("Error() = %q, want the recovered value in it", we.Error())
	}
	if got := tel.Counter(telemetry.CtrPanicsRecovered); got != 1 {
		t.Errorf("panics-recovered counter = %d, want 1", got)
	}
}

func TestDynamicCtxPanicStopsOtherWorkers(t *testing.T) {
	var ran atomic.Int64
	err := DynamicCtx(context.Background(), 1<<20, 16, 4, nil, func(_, start, end int) {
		if start == 0 {
			panic("first chunk dies")
		}
		ran.Add(1)
		time.Sleep(50 * time.Microsecond)
	})
	var we *WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("err = %v, want *WorkerError", err)
	}
	if total := ran.Load(); total >= (1<<20)/16/2 {
		t.Fatalf("other workers drained %d chunks after the panic; stop flag not observed", total)
	}
}

func TestDynamicWrapperRepanicsWorkerError(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("worker panic did not propagate to the caller")
		}
		we, ok := r.(error)
		if !ok {
			t.Fatalf("recovered %T, want error", r)
		}
		var werr *WorkerError
		if !errors.As(we, &werr) {
			t.Fatalf("recovered %v, want *WorkerError", we)
		}
	}()
	Dynamic(100, 10, 2, nil, func(_, start, end int) { panic("kernel invariant") })
}

// TestDynamicClampsThreadsToChunks is the goroutine-count satellite: with
// fewer chunks than threads, only ceil(n/chunk) workers may claim work.
func TestDynamicClampsThreadsToChunks(t *testing.T) {
	var maxWorker atomic.Int64
	maxWorker.Store(-1)
	err := DynamicCtx(context.Background(), 10, 64, 8, nil, func(worker, start, end int) {
		for {
			cur := maxWorker.Load()
			if int64(worker) <= cur || maxWorker.CompareAndSwap(cur, int64(worker)) {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := maxWorker.Load(); got != 0 {
		t.Fatalf("worker id %d claimed work; want a single worker for a single chunk", got)
	}
	// Telemetry accounting must agree: exactly one worker slot reported.
	tel := telemetry.New(0)
	if err := DynamicCtx(context.Background(), 10, 4, 16, tel, func(worker, start, end int) {}); err != nil {
		t.Fatal(err)
	}
	snap := tel.Snapshot()
	if len(snap.Workers) > 3 {
		t.Fatalf("%d workers reported for 3 chunks", len(snap.Workers))
	}
}

func TestStaticCtxContainsPanicAndCancels(t *testing.T) {
	err := StaticCtx(context.Background(), 100, 4, nil, func(_, start, end int) {
		if start == 0 {
			panic("static worker dies")
		}
	})
	var we *WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("err = %v, want *WorkerError", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := atomic.Int64{}
	if err := StaticCtx(ctx, 100, 4, nil, func(_, start, end int) { ran.Add(1) }); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatal("static ranges ran under a pre-cancelled context")
	}
}

func TestForEachThreadCtxContainsPanic(t *testing.T) {
	err := ForEachThreadCtx(context.Background(), 4, nil, func(thread int) {
		if thread == 2 {
			panic("thread 2 dies")
		}
	})
	var we *WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("err = %v, want *WorkerError", err)
	}
	if we.Worker != 2 {
		t.Errorf("worker = %d, want 2", we.Worker)
	}
}

func TestCursorCtxStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cur := NewCursorCtx(ctx, 1000, 10)
	if _, _, ok := cur.Next(); !ok {
		t.Fatal("cursor empty before cancellation")
	}
	cancel()
	if s, e, ok := cur.Next(); ok {
		t.Fatalf("cursor handed out [%d,%d) after cancel", s, e)
	}
	// A background-context cursor behaves exactly like a plain one.
	cur = NewCursorCtx(context.Background(), 5, 2)
	total := 0
	for {
		s, e, ok := cur.Next()
		if !ok {
			break
		}
		total += e - s
	}
	if total != 5 {
		t.Fatalf("background cursor covered %d of 5", total)
	}
}

func TestCtxVariantsEmptySpace(t *testing.T) {
	if err := DynamicCtx(context.Background(), 0, 4, 2, nil, func(int, int, int) { t.Fatal("ran") }); err != nil {
		t.Fatal(err)
	}
	if err := StaticCtx(context.Background(), -3, 2, nil, func(int, int, int) { t.Fatal("ran") }); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := DynamicCtx(ctx, 0, 4, 2, nil, func(int, int, int) {}); !errors.Is(err, context.Canceled) {
		t.Fatalf("empty cancelled run returned %v, want context.Canceled", err)
	}
}
