package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func naiveMatMul(a, b *Matrix) *Matrix {
	c := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var sum float64
			for l := 0; l < a.Cols; l++ {
				sum += float64(a.At(i, l)) * float64(b.At(l, j))
			}
			c.Set(i, j, float32(sum))
		}
	}
	return c
}

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	m.FillRandom(rng, 1)
	return m
}

func TestMatrixLayout(t *testing.T) {
	m := NewMatrix(3, 10)
	if m.Stride != 16 {
		t.Fatalf("stride %d, want 16 (one cache line)", m.Stride)
	}
	if len(m.Row(1)) != 10 || len(m.RowPadded(1)) != 16 {
		t.Fatal("row slicing wrong")
	}
	m.Set(2, 9, 5)
	if m.At(2, 9) != 5 {
		t.Fatal("At/Set broken")
	}
	if m.Bytes() != 3*16*4 {
		t.Fatalf("Bytes %d, want %d", m.Bytes(), 3*16*4)
	}
	m33 := NewMatrix(2, 33)
	if m33.Stride != 48 {
		t.Fatalf("stride for 33 cols is %d, want 48", m33.Stride)
	}
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ m, k, n, threads int }{
		{1, 1, 1, 1}, {3, 5, 7, 1}, {17, 33, 9, 2}, {64, 100, 32, 4}, {2, 256, 2, 3},
	} {
		a := randomMatrix(rng, tc.m, tc.k)
		b := randomMatrix(rng, tc.k, tc.n)
		c := NewMatrix(tc.m, tc.n)
		MatMul(c, a, b, tc.threads)
		want := naiveMatMul(a, b)
		if d := MaxAbsDiff(c, want); d > 1e-4 {
			t.Fatalf("%dx%dx%d threads=%d: max diff %g", tc.m, tc.k, tc.n, tc.threads, d)
		}
	}
}

func TestMatMulSkipsZeroRowsCorrectly(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := NewMatrix(8, 16)
	a.FillSparse(rng, 1, 0.7) // exercise the av==0 skip path
	b := randomMatrix(rng, 16, 12)
	c := NewMatrix(8, 12)
	MatMul(c, a, b, 2)
	if d := MaxAbsDiff(c, naiveMatMul(a, b)); d > 1e-4 {
		t.Fatalf("sparse A: max diff %g", d)
	}
}

func TestMatMulTransB(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomMatrix(rng, 9, 13)
	b := randomMatrix(rng, 7, 13) // Bᵀ is 13x7
	c := NewMatrix(9, 7)
	MatMulTransB(c, a, b, 2, nil)
	bt := NewMatrix(13, 7)
	for i := 0; i < 7; i++ {
		for j := 0; j < 13; j++ {
			bt.Set(j, i, b.At(i, j))
		}
	}
	if d := MaxAbsDiff(c, naiveMatMul(a, bt)); d > 1e-4 {
		t.Fatalf("max diff %g", d)
	}
}

func TestMatMulTransA(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomMatrix(rng, 13, 9) // Aᵀ is 9x13
	b := randomMatrix(rng, 13, 5)
	c := NewMatrix(9, 5)
	MatMulTransA(c, a, b, 2, nil)
	at := NewMatrix(9, 13)
	for i := 0; i < 13; i++ {
		for j := 0; j < 9; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	if d := MaxAbsDiff(c, naiveMatMul(at, b)); d > 1e-4 {
		t.Fatalf("max diff %g", d)
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	MatMul(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(4, 2), 1)
}

func TestAddBiasReLU(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, -2)
	m.Set(0, 1, 0.5)
	m.Set(1, 2, -0.1)
	bias := []float32{1, -1, 0}
	AddBiasReLU(m, bias, 2)
	want := [][]float32{{0, 0, 0}, {1, 0, 0}}
	for i := range want {
		for j := range want[i] {
			if m.At(i, j) != want[i][j] {
				t.Fatalf("(%d,%d)=%g want %g", i, j, m.At(i, j), want[i][j])
			}
		}
	}
}

func TestReLUBackward(t *testing.T) {
	out := NewMatrix(1, 4)
	out.Set(0, 0, 1)
	out.Set(0, 2, 3)
	dy := NewMatrix(1, 4)
	for j := 0; j < 4; j++ {
		dy.Set(0, j, float32(j+1))
	}
	dx := NewMatrix(1, 4)
	ReLUBackward(dx, dy, out, 1)
	want := []float32{1, 0, 3, 0}
	for j, w := range want {
		if dx.At(0, j) != w {
			t.Fatalf("dx[%d]=%g want %g", j, dx.At(0, j), w)
		}
	}
}

func TestDropoutMaskAndScale(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMatrix(20, 50)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = 1
		}
	}
	mask := make([]bool, m.Rows*m.Cols)
	Dropout(m, mask, 0.5, rng)
	zeros, kept := 0, 0
	idx := 0
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			switch {
			case row[j] == 0:
				zeros++
				if mask[idx] {
					t.Fatal("mask says kept but value is zero")
				}
			case row[j] == 2: // 1/(1-0.5)
				kept++
				if !mask[idx] {
					t.Fatal("mask says dropped but value survived")
				}
			default:
				t.Fatalf("unexpected value %g", row[j])
			}
			idx++
		}
	}
	frac := float64(zeros) / float64(zeros+kept)
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("dropout rate %.2f, want ≈0.5", frac)
	}
	// Backward replays the mask.
	dy := NewMatrix(20, 50)
	for i := 0; i < dy.Rows; i++ {
		row := dy.Row(i)
		for j := range row {
			row[j] = 1
		}
	}
	DropoutBackward(dy, mask, 0.5)
	idx = 0
	for i := 0; i < dy.Rows; i++ {
		row := dy.Row(i)
		for j := range row {
			want := float32(0)
			if mask[idx] {
				want = 2
			}
			if row[j] != want {
				t.Fatalf("backward (%d,%d)=%g want %g", i, j, row[j], want)
			}
			idx++
		}
	}
}

func TestDropoutZeroPIsIdentity(t *testing.T) {
	m := NewMatrix(2, 3)
	m.FillRandom(rand.New(rand.NewSource(6)), 1)
	orig := m.Clone()
	mask := make([]bool, 6)
	Dropout(m, mask, 0, nil)
	if MaxAbsDiff(m, orig) != 0 {
		t.Fatal("p=0 dropout changed values")
	}
	for _, k := range mask {
		if !k {
			t.Fatal("p=0 dropout dropped an element")
		}
	}
}

func TestFillSparseHitsTargetSparsity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMatrix(100, 64)
	for _, s := range []float64{0.1, 0.5, 0.9} {
		m.FillSparse(rng, 1, s)
		got := m.Sparsity()
		if math.Abs(got-s) > 0.05 {
			t.Fatalf("sparsity %.3f, want ≈%.1f", got, s)
		}
	}
}

func TestSumRows(t *testing.T) {
	m := NewMatrix(3, 2)
	for i := 0; i < 3; i++ {
		m.Set(i, 0, float32(i))
		m.Set(i, 1, 1)
	}
	out := make([]float32, 2)
	SumRows(out, m)
	if out[0] != 3 || out[1] != 3 {
		t.Fatalf("SumRows %v, want [3 3]", out)
	}
}

func TestHasNaN(t *testing.T) {
	m := NewMatrix(2, 2)
	if m.HasNaN() {
		t.Fatal("zero matrix reports NaN")
	}
	m.Set(1, 1, float32(math.Inf(1)))
	if !m.HasNaN() {
		t.Fatal("Inf not detected")
	}
}

func TestMatMulPropertyLinearity(t *testing.T) {
	// (A1+A2)·B == A1·B + A2·B
	rng := rand.New(rand.NewSource(8))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := r.Intn(10)+1, r.Intn(10)+1, r.Intn(10)+1
		a1 := randomMatrix(rng, m, k)
		a2 := randomMatrix(rng, m, k)
		b := randomMatrix(rng, k, n)
		sum := NewMatrix(m, k)
		for i := 0; i < m; i++ {
			r1, r2, rs := a1.Row(i), a2.Row(i), sum.Row(i)
			for j := range rs {
				rs[j] = r1[j] + r2[j]
			}
		}
		c1 := NewMatrix(m, n)
		c2 := NewMatrix(m, n)
		cs := NewMatrix(m, n)
		MatMul(c1, a1, b, 1)
		MatMul(c2, a2, b, 1)
		MatMul(cs, sum, b, 2)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(float64(cs.At(i, j)-(c1.At(i, j)+c2.At(i, j)))) > 1e-3 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
