// Package compress implements the paper's mask-based feature compression
// (§4.3, Fig. 6). Hidden-layer features are moderately sparse because of
// ReLU and dropout (§2.2); compressing them cuts the DRAM traffic of the
// bandwidth-bound aggregation phase.
//
// The scheme mirrors AVX-512's vcompressps/vexpandps pair at 64-element
// granularity: a bit mask marks the non-zero positions (1 bit per element,
// 3.125% overhead for 32-bit features regardless of sparsity) and the
// non-zero values are packed densely. Storage stays constant-sized per row
// — compression is used "purely to save DRAM bandwidth", never to shrink
// the footprint, because variable-sized rows would need an indirection that
// harms the random row accesses aggregation depends on (§4.3).
package compress

import (
	"fmt"
	"math/bits"

	"graphite/internal/sched"
	"graphite/internal/tensor"
)

// wordBits is the compression granule: one uint64 mask word covers 64
// feature elements (a substitute for four 16-lane AVX-512 mask registers).
const wordBits = 64

// MaskWords returns the number of uint64 mask words covering cols elements.
func MaskWords(cols int) int { return (cols + wordBits - 1) / wordBits }

// Matrix stores a feature matrix in compressed form with constant-size row
// storage: every row owns maskWords mask words and a full stride of value
// slots, of which only the first popcount(mask) are live.
type Matrix struct {
	Rows      int
	Cols      int
	stride    int // value slots per row (padded like tensor.Matrix)
	maskWords int
	masks     []uint64
	values    []float32
}

// NewMatrix allocates a compressed matrix for rows×cols features.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("compress: negative dimensions %dx%d", rows, cols))
	}
	mw := MaskWords(cols)
	stride := tensor.PadStride(cols)
	return &Matrix{
		Rows:      rows,
		Cols:      cols,
		stride:    stride,
		maskWords: mw,
		masks:     make([]uint64, rows*mw),
		values:    make([]float32, rows*stride),
	}
}

// Mask returns row i's mask words (read-only alias).
func (m *Matrix) Mask(i int) []uint64 {
	off := i * m.maskWords
	return m.masks[off : off+m.maskWords]
}

// packed returns row i's full value storage.
func (m *Matrix) packed(i int) []float32 {
	off := i * m.stride
	return m.values[off : off+m.stride]
}

// NNZ returns the number of live values in row i.
func (m *Matrix) NNZ(i int) int {
	n := 0
	for _, w := range m.Mask(i) {
		n += bits.OnesCount64(w)
	}
	return n
}

// CompressRow stores src (length Cols) into row i: comparison against zero
// produces the mask (Fig. 6a), then the non-zeros are bubble-collapsed into
// the packed slots (Fig. 6b).
func (m *Matrix) CompressRow(i int, src []float32) {
	if len(src) != m.Cols {
		panic(fmt.Sprintf("compress: row length %d, want %d", len(src), m.Cols))
	}
	mask := m.masks[i*m.maskWords : (i+1)*m.maskWords]
	dst := m.packed(i)
	p := 0
	for w := 0; w < m.maskWords; w++ {
		var bitsW uint64
		base := w * wordBits
		end := base + wordBits
		if end > m.Cols {
			end = m.Cols
		}
		for j := base; j < end; j++ {
			if v := src[j]; v != 0 {
				bitsW |= 1 << uint(j-base)
				dst[p] = v
				p++
			}
		}
		mask[w] = bitsW
	}
}

// DecompressRow expands row i into dst (length ≥ Cols), zero-filling the
// masked-out positions (Fig. 6c).
func (m *Matrix) DecompressRow(dst []float32, i int) {
	if len(dst) < m.Cols {
		panic(fmt.Sprintf("compress: destination length %d, want ≥ %d", len(dst), m.Cols))
	}
	dst = dst[:m.Cols]
	clear(dst)
	mask := m.Mask(i)
	src := m.packed(i)
	p := 0
	for w, bitsW := range mask {
		base := w * wordBits
		for bitsW != 0 {
			j := bits.TrailingZeros64(bitsW)
			dst[base+j] = src[p]
			p++
			bitsW &= bitsW - 1
		}
	}
}

// AXPYRow accumulates dst += alpha · row(i) without materialising the dense
// row: the aggregation kernels' inner loop. Skipping the zeros is where the
// compute saving (on top of the bandwidth saving) comes from.
func (m *Matrix) AXPYRow(dst []float32, i int, alpha float32) {
	mask := m.Mask(i)
	src := m.packed(i)
	p := 0
	for w, bitsW := range mask {
		base := w * wordBits
		for bitsW != 0 {
			j := bits.TrailingZeros64(bitsW)
			dst[base+j] += alpha * src[p]
			p++
			bitsW &= bitsW - 1
		}
	}
}

// RowTrafficBytes returns the DRAM bytes a read of row i costs under the
// compressed layout, rounded up to whole 64-byte cache lines: the mask
// lines plus the packed-value lines actually occupied. The uncompressed
// cost for comparison is stride×4 bytes.
func (m *Matrix) RowTrafficBytes(i int) int64 {
	const line = 64
	maskBytes := int64(m.maskWords) * 8
	valBytes := int64(m.NNZ(i)) * 4
	roundUp := func(b int64) int64 { return (b + line - 1) / line * line }
	return roundUp(maskBytes) + roundUp(valBytes)
}

// UncompressedRowBytes is the per-row traffic of the dense layout.
func (m *Matrix) UncompressedRowBytes() int64 { return int64(m.stride) * 4 }

// FromDense compresses every row of src in parallel.
func FromDense(src *tensor.Matrix, threads int) *Matrix {
	m := NewMatrix(src.Rows, src.Cols)
	sched.Dynamic(src.Rows, 64, threads, nil, func(_, s, e int) {
		for i := s; i < e; i++ {
			m.CompressRow(i, src.Row(i))
		}
	})
	return m
}

// ToDense expands the whole matrix.
func (m *Matrix) ToDense(threads int) *tensor.Matrix {
	out := tensor.NewMatrix(m.Rows, m.Cols)
	sched.Dynamic(m.Rows, 64, threads, nil, func(_, s, e int) {
		for i := s; i < e; i++ {
			m.DecompressRow(out.Row(i), i)
		}
	})
	return out
}

// TotalTrafficBytes sums RowTrafficBytes over all rows, for the traffic
// reports in the experiment harness.
func (m *Matrix) TotalTrafficBytes() int64 {
	var sum int64
	for i := 0; i < m.Rows; i++ {
		sum += m.RowTrafficBytes(i)
	}
	return sum
}
