package sched

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"graphite/internal/telemetry"
)

func covered(n, chunk, threads int, run func(n, chunk, threads int, body func(worker, start, end int))) ([]int32, bool) {
	counts := make([]int32, n)
	ordered := true
	var mu sync.Mutex
	run(n, chunk, threads, func(_, start, end int) {
		if start >= end {
			mu.Lock()
			ordered = false
			mu.Unlock()
		}
		for i := start; i < end; i++ {
			atomic.AddInt32(&counts[i], 1)
		}
	})
	return counts, ordered
}

// dynamic is Dynamic without a telemetry sink, in covered's runner shape.
func dynamic(n, chunk, threads int, body func(worker, start, end int)) {
	Dynamic(n, chunk, threads, nil, body)
}

func TestDynamicCoversAllExactlyOnce(t *testing.T) {
	for _, tc := range []struct{ n, chunk, threads int }{
		{0, 4, 2}, {1, 1, 1}, {7, 3, 2}, {100, 7, 4}, {100, 1000, 4}, {64, 8, 8}, {5, 0, 0},
	} {
		counts, ordered := covered(tc.n, tc.chunk, tc.threads, dynamic)
		if !ordered {
			t.Fatalf("n=%d chunk=%d threads=%d: empty range delivered", tc.n, tc.chunk, tc.threads)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("n=%d chunk=%d threads=%d: index %d visited %d times", tc.n, tc.chunk, tc.threads, i, c)
			}
		}
	}
}

func TestStaticCoversAllExactlyOnce(t *testing.T) {
	for _, tc := range []struct{ n, threads int }{
		{0, 2}, {1, 1}, {7, 2}, {100, 4}, {3, 8}, {64, 8}, {5, 0},
	} {
		counts, _ := covered(tc.n, 0, tc.threads, func(n, _, threads int, body func(int, int, int)) {
			if err := StaticCtx(context.Background(), n, threads, nil, body); err != nil {
				t.Fatal(err)
			}
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("n=%d threads=%d: index %d visited %d times", tc.n, tc.threads, i, c)
			}
		}
	}
}

func TestDynamicPropertyCoverage(t *testing.T) {
	f := func(n8, chunk8, threads8 uint8) bool {
		n := int(n8)
		chunk := int(chunk8)%16 + 1
		threads := int(threads8)%8 + 1
		counts, _ := covered(n, chunk, threads, dynamic)
		for _, c := range counts {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestForEachThreadRunsEachIDOnce(t *testing.T) {
	for _, threads := range []int{1, 2, 7} {
		seen := make([]int32, threads)
		if err := ForEachThreadCtx(context.Background(), threads, nil, func(id int) {
			atomic.AddInt32(&seen[id], 1)
		}); err != nil {
			t.Fatal(err)
		}
		for id, c := range seen {
			if c != 1 {
				t.Fatalf("threads=%d: id %d ran %d times", threads, id, c)
			}
		}
	}
}

func TestCursorExhaustsSpace(t *testing.T) {
	cur := NewCursor(10, 3)
	var got []int
	for {
		s, e, ok := cur.Next()
		if !ok {
			break
		}
		for i := s; i < e; i++ {
			got = append(got, i)
		}
	}
	if len(got) != 10 {
		t.Fatalf("covered %d of 10", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("index %d got %d", i, v)
		}
	}
	if _, _, ok := cur.Next(); ok {
		t.Fatal("cursor returned work after exhaustion")
	}
}

func TestCursorConcurrentDisjoint(t *testing.T) {
	const n = 1000
	cur := NewCursor(n, 7)
	counts := make([]int32, n)
	if err := ForEachThreadCtx(context.Background(), 8, nil, func(int) {
		for {
			s, e, ok := cur.Next()
			if !ok {
				return
			}
			for i := s; i < e; i++ {
				atomic.AddInt32(&counts[i], 1)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestDynamicZeroAndNegativeN(t *testing.T) {
	ran := false
	Dynamic(-5, 4, 2, nil, func(int, int, int) { ran = true })
	Dynamic(0, 4, 2, nil, func(int, int, int) { ran = true })
	if err := StaticCtx(context.Background(), 0, 2, nil, func(int, int, int) { ran = true }); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("body ran for empty iteration space")
	}
}

func BenchmarkDynamicOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Dynamic(1024, 16, 4, nil, func(_, start, end int) {})
	}
}

// powerLawCosts builds a per-item work distribution with heavy head skew:
// the first 2% of items carry ~90% of the total work, like the hub vertices
// of a power-law degree graph (§4.1's motivation for dynamic scheduling).
func powerLawCosts(n int) []int {
	costs := make([]int, n)
	for i := range costs {
		if i < n/50 {
			costs[i] = 2000
		} else {
			costs[i] = 5
		}
	}
	return costs
}

// spin burns deterministic CPU proportional to cost.
func spin(cost int) float64 {
	x := 1.0
	for i := 0; i < cost*20; i++ {
		x += 1.0 / x
	}
	return x
}

var spinSink atomic.Int64

// TestDynamicBalancesPowerLawSkew shows, through the telemetry per-worker
// accounting, that Dynamic spreads a power-law-skewed workload far more
// evenly across workers than Static's contiguous partitioning: the paper's
// argument for OpenMP dynamic scheduling (§4.1), in numbers.
func TestDynamicBalancesPowerLawSkew(t *testing.T) {
	const n, chunk, threads = 2000, 16, 4
	costs := powerLawCosts(n)
	body := func(_, start, end int) {
		var acc float64
		for i := start; i < end; i++ {
			acc += spin(costs[i])
		}
		spinSink.Add(int64(acc))
	}

	dynTel := telemetry.New(0)
	Dynamic(n, chunk, threads, dynTel, body)
	statTel := telemetry.New(0)
	if err := StaticCtx(context.Background(), n, threads, statTel, body); err != nil {
		t.Fatal(err)
	}

	dyn := dynTel.Snapshot()
	stat := statTel.Snapshot()
	if got := dyn.Counters[telemetry.CtrSchedRows.Name()]; got != n {
		t.Fatalf("dynamic scheduled %d rows, want %d", got, n)
	}
	if got := stat.Counters[telemetry.CtrSchedRows.Name()]; got != n {
		t.Fatalf("static scheduled %d rows, want %d", got, n)
	}
	if len(stat.Workers) != threads {
		t.Fatalf("static reported %d workers, want %d", len(stat.Workers), threads)
	}
	dynImb, statImb := dyn.BusyImbalance(), stat.BusyImbalance()
	t.Logf("busy imbalance (max/mean): dynamic=%.2f static=%.2f", dynImb, statImb)
	// All heavy items sit in worker 0's static range, so its busy time is
	// ~4x the mean; dynamic workers keep claiming chunks until the work
	// runs out and should land well under that.
	if statImb < 1.5 {
		t.Fatalf("static imbalance %.2f unexpectedly low; skew not exercised", statImb)
	}
	if dynImb >= statImb {
		t.Fatalf("dynamic busy imbalance %.2f not better than static %.2f", dynImb, statImb)
	}
}

// TestDynamicTelAccountsChunksAndRows checks Dynamic's per-worker accounting
// on a live sink sums to the iteration space exactly.
func TestDynamicTelAccountsChunksAndRows(t *testing.T) {
	tel := telemetry.New(0)
	const n, chunk = 103, 10
	Dynamic(n, chunk, 3, tel, func(worker, start, end int) {})
	snap := tel.Snapshot()
	var rows, chunks int64
	for _, w := range snap.Workers {
		rows += w.Rows
		chunks += w.Chunks
	}
	if rows != n {
		t.Fatalf("worker rows sum %d, want %d", rows, n)
	}
	wantChunks := int64((n + chunk - 1) / chunk)
	if chunks != wantChunks {
		t.Fatalf("worker chunks sum %d, want %d", chunks, wantChunks)
	}
	if snap.Counters[telemetry.CtrSchedChunks.Name()] != wantChunks {
		t.Fatalf("chunk counter %d, want %d", snap.Counters[telemetry.CtrSchedChunks.Name()], wantChunks)
	}
}

// TestTelVariantsMatchPlain verifies a live telemetry sink doesn't change
// Dynamic's or StaticCtx's scheduling semantics: every index still visited
// exactly once.
func TestTelVariantsMatchPlain(t *testing.T) {
	for _, tc := range []struct{ n, chunk, threads int }{
		{7, 3, 2}, {100, 7, 4}, {64, 8, 8},
	} {
		counts := make([]int32, tc.n)
		Dynamic(tc.n, tc.chunk, tc.threads, telemetry.New(0), func(_, start, end int) {
			for i := start; i < end; i++ {
				atomic.AddInt32(&counts[i], 1)
			}
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("Dynamic n=%d: index %d visited %d times", tc.n, i, c)
			}
		}
		counts = make([]int32, tc.n)
		if err := StaticCtx(context.Background(), tc.n, tc.threads, telemetry.New(0), func(_, start, end int) {
			for i := start; i < end; i++ {
				atomic.AddInt32(&counts[i], 1)
			}
		}); err != nil {
			t.Fatal(err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("StaticCtx n=%d: index %d visited %d times", tc.n, i, c)
			}
		}
	}
}
