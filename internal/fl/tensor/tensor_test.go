package tensor

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"tradefl/internal/randx"
)

func TestFromSlice(t *testing.T) {
	if _, err := FromSlice(2, 2, []float64{1, 2, 3}); err == nil {
		t.Error("FromSlice accepted wrong length")
	}
	m, err := FromSlice(2, 2, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 {
		t.Errorf("At(1,0) = %v, want 3", m.At(1, 0))
	}
}

func TestSetAtCloneZero(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Error("Set/At roundtrip failed")
	}
	c := m.Clone()
	c.Set(1, 2, 9)
	if m.At(1, 2) != 7 {
		t.Error("Clone shares storage")
	}
	m.Zero()
	if m.At(1, 2) != 0 {
		t.Error("Zero failed")
	}
}

func TestMatMulKnownValues(t *testing.T) {
	a, _ := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b, _ := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	dst := New(2, 2)
	if err := MatMul(dst, a, b); err != nil {
		t.Fatal(err)
	}
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if dst.Data[i] != w {
			t.Errorf("dst[%d] = %v, want %v", i, dst.Data[i], w)
		}
	}
	if err := MatMul(New(2, 3), a, b); err == nil {
		t.Error("MatMul accepted bad dst shape")
	}
}

func TestMatMulVariantsAgree(t *testing.T) {
	// Property: MatMulATB(a,b) == MatMul(aᵀ, b) and MatMulABT(a,b) ==
	// MatMul(a, bᵀ) for random matrices.
	src := randx.New(5)
	for trial := 0; trial < 20; trial++ {
		n, k, m := 2+src.Intn(5), 2+src.Intn(5), 2+src.Intn(5)
		a := New(n, k)
		b := New(n, m)
		for i := range a.Data {
			a.Data[i] = src.Normal(0, 1)
		}
		for i := range b.Data {
			b.Data[i] = src.Normal(0, 1)
		}
		// aᵀ·b via MatMulATB.
		got := New(k, m)
		if err := MatMulATB(got, a, b); err != nil {
			t.Fatal(err)
		}
		at := New(k, n)
		for i := 0; i < n; i++ {
			for j := 0; j < k; j++ {
				at.Set(j, i, a.At(i, j))
			}
		}
		want := New(k, m)
		if err := MatMul(want, at, b); err != nil {
			t.Fatal(err)
		}
		for i := range want.Data {
			if math.Abs(got.Data[i]-want.Data[i]) > 1e-9 {
				t.Fatalf("ATB mismatch at %d", i)
			}
		}
		// a·bᵀ via MatMulABT: shapes (n,k)·(m,k)ᵀ -> (n,m).
		c := New(m, k)
		for i := range c.Data {
			c.Data[i] = src.Normal(0, 1)
		}
		got2 := New(n, m)
		if err := MatMulABT(got2, a, c); err != nil {
			t.Fatal(err)
		}
		ct := New(k, m)
		for i := 0; i < m; i++ {
			for j := 0; j < k; j++ {
				ct.Set(j, i, c.At(i, j))
			}
		}
		want2 := New(n, m)
		if err := MatMul(want2, a, ct); err != nil {
			t.Fatal(err)
		}
		for i := range want2.Data {
			if math.Abs(got2.Data[i]-want2.Data[i]) > 1e-9 {
				t.Fatalf("ABT mismatch at %d", i)
			}
		}
	}
}

func TestAddRowVectorAXPYScale(t *testing.T) {
	m, _ := FromSlice(2, 2, []float64{1, 2, 3, 4})
	v, _ := FromSlice(1, 2, []float64{10, 20})
	if err := m.AddRowVector(v); err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 11 || m.At(1, 1) != 24 {
		t.Errorf("AddRowVector result %v", m.Data)
	}
	x, _ := FromSlice(2, 2, []float64{1, 1, 1, 1})
	if err := m.AXPY(2, x); err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 13 {
		t.Errorf("AXPY result %v", m.Data)
	}
	if err := m.AXPY(1, New(1, 1)); err == nil {
		t.Error("AXPY accepted shape mismatch")
	}
	if err := m.AddRowVector(New(2, 2)); err == nil {
		t.Error("AddRowVector accepted non-row vector")
	}
}

func TestReLUAndBackward(t *testing.T) {
	m, _ := FromSlice(1, 4, []float64{-1, 0, 2, -3})
	m.ReLU()
	want := []float64{0, 0, 2, 0}
	for i, w := range want {
		if m.Data[i] != w {
			t.Errorf("ReLU[%d] = %v, want %v", i, m.Data[i], w)
		}
	}
	grad, _ := FromSlice(1, 4, []float64{5, 5, 5, 5})
	if err := ReLUBackward(grad, m); err != nil {
		t.Fatal(err)
	}
	wantG := []float64{0, 0, 5, 0}
	for i, w := range wantG {
		if grad.Data[i] != w {
			t.Errorf("ReLUBackward[%d] = %v, want %v", i, grad.Data[i], w)
		}
	}
}

func TestSoftmaxCrossEntropy(t *testing.T) {
	logits, _ := FromSlice(2, 3, []float64{1, 1, 1, 0, 0, 10})
	probs := New(2, 3)
	loss, err := SoftmaxCrossEntropy(probs, logits, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Row 0: uniform → loss ln 3; row 1: ≈ certain → loss ≈ 0.
	want := (math.Log(3) + 9.08e-5) / 2
	if math.Abs(loss-want) > 1e-3 {
		t.Errorf("loss = %v, want ≈ %v", loss, want)
	}
	// Probabilities sum to one per row.
	for i := 0; i < 2; i++ {
		var s float64
		for j := 0; j < 3; j++ {
			s += probs.At(i, j)
		}
		if math.Abs(s-1) > 1e-12 {
			t.Errorf("row %d: probs sum %v", i, s)
		}
	}
	if _, err := SoftmaxCrossEntropy(probs, logits, []int{0, 5}); err == nil {
		t.Error("accepted out-of-range label")
	}
	if _, err := SoftmaxCrossEntropy(probs, logits, []int{0}); err == nil {
		t.Error("accepted label count mismatch")
	}
}

func TestSoftmaxOverflowSafe(t *testing.T) {
	logits, _ := FromSlice(1, 2, []float64{1000, -1000})
	probs := New(1, 2)
	loss, err := SoftmaxCrossEntropy(probs, logits, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Errorf("loss = %v, want finite", loss)
	}
}

func TestSoftmaxGradSumsToZeroQuick(t *testing.T) {
	// Property: each gradient row sums to zero (softmax grad identity).
	src := randx.New(6)
	f := func() bool {
		rows, cols := 1+src.Intn(5), 2+src.Intn(5)
		logits := New(rows, cols)
		labels := make([]int, rows)
		for i := range logits.Data {
			logits.Data[i] = src.Normal(0, 3)
		}
		for i := range labels {
			labels[i] = src.Intn(cols)
		}
		probs := New(rows, cols)
		if _, err := SoftmaxCrossEntropy(probs, logits, labels); err != nil {
			return false
		}
		if err := SoftmaxCrossEntropyGrad(probs, probs, labels); err != nil {
			return false
		}
		for i := 0; i < rows; i++ {
			var s float64
			for j := 0; j < cols; j++ {
				s += probs.At(i, j)
			}
			if math.Abs(s) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestColumnSums(t *testing.T) {
	m, _ := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	dst := New(1, 3)
	if err := ColumnSums(dst, m); err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 7, 9}
	for i, w := range want {
		if dst.Data[i] != w {
			t.Errorf("ColumnSums[%d] = %v, want %v", i, dst.Data[i], w)
		}
	}
}

func TestArgmaxRows(t *testing.T) {
	m, _ := FromSlice(2, 3, []float64{0, 5, 2, 9, 1, 1})
	got := m.ArgmaxRows()
	if got[0] != 1 || got[1] != 0 {
		t.Errorf("ArgmaxRows = %v", got)
	}
}

func TestRowSlice(t *testing.T) {
	m, _ := FromSlice(3, 2, []float64{1, 2, 3, 4, 5, 6})
	s, err := m.RowSlice(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Rows != 2 || s.At(0, 0) != 3 {
		t.Errorf("RowSlice wrong: %+v", s)
	}
	// Views share storage.
	s.Set(0, 0, 99)
	if m.At(1, 0) != 99 {
		t.Error("RowSlice should be a view")
	}
	if _, err := m.RowSlice(2, 2); err == nil {
		t.Error("RowSlice accepted empty range")
	}
	if _, err := m.RowSlice(-1, 2); err == nil {
		t.Error("RowSlice accepted negative lo")
	}
}

func TestRandomizeXavierBounded(t *testing.T) {
	m := New(10, 20)
	m.RandomizeXavier(randx.New(1))
	limit := math.Sqrt(6.0 / 30.0)
	for _, v := range m.Data {
		if v < -limit || v > limit {
			t.Fatalf("weight %v outside ±%v", v, limit)
		}
	}
	if m.Frobenius() == 0 {
		t.Error("Xavier init produced all zeros")
	}
}

func TestCopyFrom(t *testing.T) {
	a, _ := FromSlice(1, 2, []float64{1, 2})
	b := New(1, 2)
	if err := b.CopyFrom(a); err != nil {
		t.Fatal(err)
	}
	if b.At(0, 1) != 2 {
		t.Error("CopyFrom failed")
	}
	if err := b.CopyFrom(New(2, 2)); err == nil {
		t.Error("CopyFrom accepted shape mismatch")
	}
}

// FromSlice wraps data (len rows*cols) without copying.
func FromSlice(rows, cols int, data []float64) (*Matrix, error) {
	if len(data) != rows*cols {
		return nil, fmt.Errorf("tensor: data length %d != %d×%d", len(data), rows, cols)
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}, nil
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Frobenius returns the Frobenius norm of m.
func (m *Matrix) Frobenius() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}
