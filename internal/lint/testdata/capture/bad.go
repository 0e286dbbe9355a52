// Package badcapture is golden-test input for the goroutine-capture
// checker: spawned closures writing captured shared state without a
// worker-local partition index — the races that silently corrupt
// output-parallel aggregation (§4.1).
package badcapture

import (
	"context"
	"sync"

	"graphite/internal/sched"
)

// SumRace accumulates into a captured scalar from every worker.
func SumRace(vals []float64, threads int) float64 {
	var sum float64
	sched.Dynamic(len(vals), 64, threads, nil, func(_, s, e int) {
		for i := s; i < e; i++ {
			sum += vals[i] // want goroutine-capture
		}
	})
	return sum
}

// IndexRace writes through a captured index: every worker hits the same
// slot decided by the enclosing loop, not by the worker.
func IndexRace(out []int, threads int) {
	for k := range out {
		_ = sched.ForEachThreadCtx(context.Background(), threads, nil, func(thread int) {
			out[k] = thread // want goroutine-capture
		})
	}
}

// GoRace spawns a goroutine that flips a captured flag.
func GoRace() {
	done := false
	go func() {
		done = true // want goroutine-capture
	}()
	_ = done
}

// StoredRace binds the closure first and spawns it later.
func StoredRace() {
	count := 0
	bump := func() {
		count++ // want goroutine-capture
	}
	go bump()
}

// Partitioned is the blessed shape: each worker writes rows selected by an
// index it computed from its own chunk bounds.
func Partitioned(out []float64, threads int) {
	_ = sched.StaticCtx(context.Background(), len(out), threads, nil, func(_, s, e int) {
		for i := s; i < e; i++ {
			out[i] = float64(i)
		}
	})
}

// PerWorkerSlots partitions by the worker id itself.
func PerWorkerSlots(threads int) []int64 {
	slots := make([]int64, threads)
	_ = sched.ForEachThreadCtx(context.Background(), threads, nil, func(thread int) {
		slots[thread]++
	})
	return slots
}

// Locked shows the reasoned waiver for a genuinely synchronized write.
func Locked(vals []float64, threads int) float64 {
	var mu sync.Mutex
	var sum float64
	_ = sched.DynamicCtx(context.Background(), len(vals), 64, threads, nil, func(_, s, e int) {
		var local float64
		for i := s; i < e; i++ {
			local += vals[i]
		}
		mu.Lock()
		//lint:ignore goroutine-capture guarded by mu
		sum += local
		mu.Unlock()
	})
	return sum
}
