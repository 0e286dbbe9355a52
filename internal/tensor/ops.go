package tensor

import (
	"fmt"
	"math/rand"

	"graphite/internal/sched"
)

// AddBiasReLURange applies y[i,:] = ReLU(y[i,:] + bias) to rows
// [start, end). This is the paper's update activation (Table 2:
// ReLU(W·a + b)) and, per §2.2, the source of 40-90% feature sparsity in
// hidden layers.
func AddBiasReLURange(y *Matrix, bias []float32, start, end int) {
	if len(bias) != y.Cols {
		panic(fmt.Sprintf("tensor: bias length %d, want %d", len(bias), y.Cols))
	}
	for i := start; i < end; i++ {
		row := y.Row(i)
		for j := range row {
			v := row[j] + bias[j]
			if v < 0 {
				v = 0
			}
			row[j] = v
		}
	}
}

// AddBiasReLU applies AddBiasReLURange over the whole matrix in parallel.
func AddBiasReLU(y *Matrix, bias []float32, threads int) {
	sched.Dynamic(y.Rows, 64, threads, nil, func(_, s, e int) { AddBiasReLURange(y, bias, s, e) })
}

// AddBiasRange applies y[i,:] += bias without an activation (output layer).
func AddBiasRange(y *Matrix, bias []float32, start, end int) {
	if len(bias) != y.Cols {
		panic(fmt.Sprintf("tensor: bias length %d, want %d", len(bias), y.Cols))
	}
	for i := start; i < end; i++ {
		row := y.Row(i)
		for j := range row {
			row[j] += bias[j]
		}
	}
}

// ReLUBackward computes dx = dy ⊙ (out > 0), where out is the ReLU output
// saved in the forward pass.
func ReLUBackward(dx, dy, out *Matrix, threads int) {
	if dx.Rows != dy.Rows || dx.Cols != dy.Cols || out.Rows != dy.Rows || out.Cols != dy.Cols {
		panic("tensor: ReLUBackward shape mismatch")
	}
	sched.Dynamic(dy.Rows, 64, threads, nil, func(_, s, e int) {
		for i := s; i < e; i++ {
			rdx, rdy, ro := dx.Row(i), dy.Row(i), out.Row(i)
			for j := range rdx {
				if ro[j] > 0 {
					rdx[j] = rdy[j]
				} else {
					rdx[j] = 0
				}
			}
		}
	})
}

// Dropout zeroes each element with probability p and scales survivors by
// 1/(1-p) (inverted dropout), recording the kept positions in mask so the
// backward pass can replay it. The paper notes dropout (often 50%) pushes
// hidden-feature sparsity above 80% (§2.2).
func Dropout(y *Matrix, mask []bool, p float64, rng *rand.Rand) {
	if p <= 0 {
		for i := range mask {
			mask[i] = true
		}
		return
	}
	if len(mask) != y.Rows*y.Cols {
		panic(fmt.Sprintf("tensor: dropout mask length %d, want %d", len(mask), y.Rows*y.Cols))
	}
	scale := float32(1 / (1 - p))
	idx := 0
	for i := 0; i < y.Rows; i++ {
		row := y.Row(i)
		for j := range row {
			if rng.Float64() < p {
				row[j] = 0
				mask[idx] = false
			} else {
				row[j] *= scale
				mask[idx] = true
			}
			idx++
		}
	}
}

// DropoutBackward applies the saved mask and scale to the gradient.
func DropoutBackward(dy *Matrix, mask []bool, p float64) {
	if p <= 0 {
		return
	}
	scale := float32(1 / (1 - p))
	idx := 0
	for i := 0; i < dy.Rows; i++ {
		row := dy.Row(i)
		for j := range row {
			if mask[idx] {
				row[j] *= scale
			} else {
				row[j] = 0
			}
			idx++
		}
	}
}

// SumRows accumulates the column sums of m into out (length m.Cols); used
// for the bias gradient db = Σ_i dY[i,:].
func SumRows(out []float32, m *Matrix) {
	if len(out) != m.Cols {
		panic(fmt.Sprintf("tensor: SumRows output length %d, want %d", len(out), m.Cols))
	}
	clear(out)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out[j] += v
		}
	}
}

// Scale multiplies every element of m by f.
func Scale(m *Matrix, f float32) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] *= f
		}
	}
}

// AXPY computes y += alpha*x over vectors.
func AXPY(y, x []float32, alpha float32) {
	if len(y) != len(x) {
		panic(fmt.Sprintf("tensor: AXPY length mismatch %d vs %d", len(y), len(x)))
	}
	for i := range y {
		y[i] += alpha * x[i]
	}
}
