package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// heapSampler tracks the peak of live-plus-unswept heap object bytes by
// reading runtime/metrics every 5 ms (no stop-the-world,
// unlike runtime.ReadMemStats).
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	//lint:ignore goroutine-recover the sampler only reads runtime metrics; it is stopped and joined by stopMB
	go h.run()
	return h
}

func (h *heapSampler) run() {
	defer h.wg.Done()
	sample := []metrics.Sample{{Name: heapMetric}}
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > h.peak {
			h.peak = v
		}
		select {
		case <-h.stop:
			return
		case <-t.C:
		}
	}
}

// stopMB stops the sampler and returns the peak in MiB.
func (h *heapSampler) stopMB() float64 {
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak) / (1 << 20)
}

// gcStats is a runtime.MemStats reading at a phase boundary.
type gcStats struct {
	cycles  uint32
	pauseNS uint64
	alloc   uint64
}

func readGC() gcStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcStats{cycles: m.NumGC, pauseNS: m.PauseTotalNs, alloc: m.TotalAlloc}
}

// perUnit returns GC pause ms, allocated MiB and GC cycles between two
// readings, divided by units of work.
func (a gcStats) perUnit(b gcStats, units int) (pauseMS, allocMB, cycles float64) {
	if units <= 0 {
		return 0, 0, 0
	}
	u := float64(units)
	return float64(b.pauseNS-a.pauseNS) / 1e6 / u,
		float64(b.alloc-a.alloc) / (1 << 20) / u,
		float64(b.cycles-a.cycles) / u
}
