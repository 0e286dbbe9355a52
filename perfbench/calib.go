package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark was written on lends its cores to other tenants:
// for seconds to minutes at a time every loop in the process, cache-bound
// or memory-bound, runs up to 1.7x slower, and a whole 30 s run can fall
// into such a period. The full-batch workloads therefore also time a fixed
// reference kernel (the benchmark's own code, never the program's) before
// the first step and after every step, and scale the run's step times by
// refNominal ÷ the median reference time; the serving workload times it
// after every capacity probe and divides the capacity by the same factor.
// A host slowdown stretches program and reference alike and cancels; a
// slower program stretches only its own times.

// refNominal is the reference time the calibrated figures are scaled to.
// The reference took 85–120 ms on the 2-vCPU Xeon (Emerald Rapids, Go 1.24)
// it was written on, so calibrated times read close to wall times there.
const refNominal = 100 * time.Millisecond

const (
	refRowFloats = 64       // one gathered row: 256 bytes, like a feature row
	refRows      = 1 << 18  // 64 MiB table, past any one tenant's cache share
	refChunks    = 64       // work items the goroutines pull, as the scheduler's chunks
	refGathers   = 12288    // rows gathered per chunk
	refMatRounds = 150      // 64x64 matrix-vector rounds per chunk (compute share)
	refSeed      = 20220611 // fixed: the reference is not an input and does not vary with -seed
)

// calibrator runs the reference kernel: per chunk a random row gather from
// a table outside the Go heap (memory-bound, like aggregation) and dense
// 64x64 matrix-vector products in cache (FMA-bound, like the update GEMMs),
// split across GOMAXPROCS goroutines that pull chunks from a shared counter.
type calibrator struct {
	mem   []byte          // the mapping behind table, kept for munmap
	table []float32       // refRows × refRowFloats, mmap'd so heap_peak_mb and GC pacing never see it
	mat   []float32       // 64x64
	sink  float32         // keeps the kernel's results live
	refs  []time.Duration // every timed run of the kernel, in order
}

func newCalibrator() (*calibrator, error) {
	size := refRows * refRowFloats * 4
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	c := &calibrator{mem: mem, table: unsafe.Slice((*float32)(unsafe.Pointer(&mem[0])), refRows*refRowFloats)}
	rng := rand.New(rand.NewSource(refSeed))
	for i := range c.table {
		c.table[i] = rng.Float32()
	}
	c.mat = make([]float32, refRowFloats*refRowFloats)
	for i := range c.mat {
		c.mat[i] = 2 * rng.Float32() / refRowFloats // rows sum to about 1: no overflow, no denormals
	}
	c.measure() // fault the table in and warm up before any timed use
	c.refs = c.refs[:0]
	return c, nil
}

// close unmaps the table.
func (c *calibrator) close() error { return syscall.Munmap(c.mem) }

// measure runs the reference kernel once, records its wall time in refs
// and returns it.
func (c *calibrator) measure() time.Duration {
	workers := runtime.GOMAXPROCS(0)
	var next atomic.Int64
	sums := make([]float32, workers)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//lint:ignore goroutine-recover the reference kernel only reads its own slices; joined below
		go func(w int) {
			defer wg.Done()
			var acc, out [refRowFloats]float32
			for {
				k := int(next.Add(1)) - 1
				if k >= refChunks {
					break
				}
				x := uint32(k)*2654435761 + 1 // xorshift row ids, the same every call
				for g := 0; g < refGathers; g++ {
					x ^= x << 13
					x ^= x >> 17
					x ^= x << 5
					row := int(x & (refRows - 1))
					src := c.table[row*refRowFloats : (row+1)*refRowFloats]
					for j := range acc {
						acc[j] += src[j]
					}
				}
				for r := 0; r < refMatRounds; r++ {
					for i := range out {
						m := c.mat[i*refRowFloats : (i+1)*refRowFloats]
						var s float32
						for j := range acc {
							s += m[j] * acc[j]
						}
						out[i] = s
					}
					acc = out
				}
			}
			sums[w] = acc[0]
		}(w)
	}
	wg.Wait()
	d := time.Since(t0)
	for _, s := range sums {
		c.sink += s
	}
	c.refs = append(c.refs, d)
	return d
}

// scale is the factor that calibrates a run's wall times to the nominal
// host speed: refNominal ÷ the median reference time. Rates divide by it.
func (c *calibrator) scale() float64 { return hostScale(c.refs) }

// hostScale is refNominal ÷ the median of refs.
func hostScale(refs []time.Duration) float64 {
	return ms(refNominal) / median(sortedMS(refs))
}

// logCalibration prints the scale factor and the reference times it came
// from on standard error.
func logCalibration(scale float64, refs []time.Duration) {
	fmt.Fprintf(os.Stderr, "perfbench: reference kernel p50 %.1f ms, so times scale by %.4f to the %v nominal; reference times %.0f ms\n",
		ms(refNominal)/scale, scale, refNominal, inOrderMS(refs))
}
