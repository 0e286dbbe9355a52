package tensor

import (
	"fmt"

	"graphite/internal/sched"
	"graphite/internal/telemetry"
)

// gemmRowChunk is the number of output rows a parallel GEMM task claims at
// a time. Chosen so a task's A-panel and C-panel stay cache resident.
const gemmRowChunk = 32

// MatMul computes C = A·B for A (m×k) and B (k×n), parallelised over row
// chunks with dynamic scheduling. It stands in for MKL's SGEMM, which the
// baseline and basic implementations use for the update phase (§6).
func MatMul(c, a, b *Matrix, threads int) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch: C %dx%d = A %dx%d · B %dx%d",
			c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	sched.Dynamic(a.Rows, gemmRowChunk, threads, nil, func(_, start, end int) {
		MatMulRange(c, a, b, start, end)
	})
}

// GEMMFLOPs returns the dense-equivalent operation count of an m×k · k×n
// product (one multiply plus one add per inner-loop step).
func GEMMFLOPs(m, k, n int) int64 { return 2 * int64(m) * int64(k) * int64(n) }

// MatMulRange computes rows [rowStart, rowEnd) of C = A·B serially. The
// fused kernels call this per vertex block — it is the libxsmm-style
// small-matrix path (§6: "With layer fusion, we use libxsmm, which is
// optimized for small matrix multiplications").
func MatMulRange(c, a, b *Matrix, rowStart, rowEnd int) {
	n := b.Cols
	k := a.Cols
	for i := rowStart; i < rowEnd; i++ {
		ci := c.Data[i*c.Stride : i*c.Stride+n]
		clear(ci)
		ai := a.Data[i*a.Stride : i*a.Stride+k]
		// ikj order: stream through B rows, accumulate into the C row.
		// The inner loop is a saxpy the compiler can keep in registers.
		for l := 0; l < k; l++ {
			av := ai[l]
			if av == 0 {
				continue
			}
			bl := b.Data[l*b.Stride : l*b.Stride+n]
			j := 0
			for ; j+4 <= n; j += 4 {
				ci[j] += av * bl[j]
				ci[j+1] += av * bl[j+1]
				ci[j+2] += av * bl[j+2]
				ci[j+3] += av * bl[j+3]
			}
			for ; j < n; j++ {
				ci[j] += av * bl[j]
			}
		}
	}
}

// MatMulTransB computes C = A·Bᵀ for A (m×k) and B (n×k). The backward pass
// uses this for dX = dY·Wᵀ. With a live tel the product's dense-equivalent
// FLOPs (2·m·k·n) are credited to the GEMM counter and the row chunks feed
// the scheduler's per-worker accounting; tel may be nil.
func MatMulTransB(c, a, b *Matrix, threads int, tel *telemetry.Sink) {
	if a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransB shape mismatch: C %dx%d = A %dx%d · Bᵀ (%dx%d)ᵀ",
			c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	tel.Add(telemetry.CtrGEMMFLOPs, GEMMFLOPs(a.Rows, a.Cols, b.Rows))
	k := a.Cols
	sched.Dynamic(a.Rows, gemmRowChunk, threads, tel, func(_, start, end int) {
		for i := start; i < end; i++ {
			ai := a.Data[i*a.Stride : i*a.Stride+k]
			ci := c.Row(i)
			for j := range ci {
				bj := b.Data[j*b.Stride : j*b.Stride+k]
				var sum float32
				l := 0
				for ; l+4 <= k; l += 4 {
					sum += ai[l]*bj[l] + ai[l+1]*bj[l+1] + ai[l+2]*bj[l+2] + ai[l+3]*bj[l+3]
				}
				for ; l < k; l++ {
					sum += ai[l] * bj[l]
				}
				ci[j] = sum
			}
		}
	})
}

// MatMulTransA computes C = Aᵀ·B for A (k×m) and B (k×n). The backward pass
// uses this for dW = Xᵀ·dY. Parallelised over columns of Aᵀ (rows of C) so
// no two tasks write the same C row. tel is accounted as in MatMulTransB.
func MatMulTransA(c, a, b *Matrix, threads int, tel *telemetry.Sink) {
	if a.Rows != b.Rows || c.Rows != a.Cols || c.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransA shape mismatch: C %dx%d = Aᵀ (%dx%d)ᵀ · B %dx%d",
			c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	tel.Add(telemetry.CtrGEMMFLOPs, GEMMFLOPs(a.Cols, a.Rows, b.Cols))
	n := b.Cols
	sched.Dynamic(c.Rows, 8, threads, tel, func(_, start, end int) {
		for i := start; i < end; i++ {
			ci := c.Data[i*c.Stride : i*c.Stride+n]
			clear(ci)
			for l := 0; l < a.Rows; l++ {
				av := a.At(l, i)
				if av == 0 {
					continue
				}
				bl := b.Data[l*b.Stride : l*b.Stride+n]
				for j := 0; j < n; j++ {
					ci[j] += av * bl[j]
				}
			}
		}
	})
}
