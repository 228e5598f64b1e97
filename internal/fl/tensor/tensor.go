// Package tensor provides the dense float64 matrix kernels that the FL
// simulator's neural-network models are built on. It is deliberately small:
// row-major matrices, the handful of BLAS-like operations training needs,
// and nothing else. All operations are deterministic: the matmul kernels
// are cache-blocked and dispatch disjoint output-row ranges to a bounded
// worker pool above a size threshold, and every output element accumulates
// its products in the same order as the serial triple loop, so results are
// byte-identical for every worker count.
package tensor

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"tradefl/internal/parallel"
	"tradefl/internal/randx"
)

// Cache-blocking panel sizes (rows of the streamed operand kept hot per
// panel) and the flop count below which dispatching goroutines costs more
// than it saves.
const (
	kernelBlock      = 64
	minParallelFlops = 1 << 16
)

// kernelWorkers overrides the worker count of the matmul kernels when
// positive; 0 defers to parallel.Default().
var kernelWorkers atomic.Int64

// SetWorkers bounds the goroutines used by the matmul kernels: 1 forces
// the serial path, 0 restores the process default (GOMAXPROCS).
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	kernelWorkers.Store(int64(n))
}

// Workers returns the effective kernel worker count.
func Workers() int {
	if n := kernelWorkers.Load(); n > 0 {
		return int(n)
	}
	return parallel.Default()
}

// forRowRanges splits [0, rows) into one contiguous chunk per worker and
// runs fn on each; with a single worker (or a single chunk) it runs inline.
// Chunks are disjoint, so each output row has exactly one writer.
func forRowRanges(workers, rows int, fn func(lo, hi int)) {
	if workers > rows {
		workers = rows
	}
	if workers <= 1 {
		fn(0, rows)
		return
	}
	chunk := (rows + workers - 1) / workers
	parallel.For(workers, (rows+chunk-1)/chunk, func(c int) {
		lo := c * chunk
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		fn(lo, hi)
	})
}

// kernelParallelism returns the worker count for a kernel of the given
// flop volume: 1 below the dispatch threshold, Workers() above it.
func kernelParallelism(flops int) int {
	if flops < minParallelFlops {
		return 1
	}
	return Workers()
}

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zero matrix of the given shape.
func New(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// CopyFrom copies src into m; shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) error {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		return errors.New("tensor: copy shape mismatch")
	}
	copy(m.Data, src.Data)
	return nil
}

// Zero resets all elements.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// RandomizeXavier fills m with Xavier/Glorot-uniform weights using src.
func (m *Matrix) RandomizeXavier(src *randx.Source) {
	limit := math.Sqrt(6.0 / float64(m.Rows+m.Cols))
	for i := range m.Data {
		m.Data[i] = src.Uniform(-limit, limit)
	}
}

// MatMul computes dst = a·b. dst must be preallocated with shape
// (a.Rows, b.Cols); a.Cols must equal b.Rows. Output rows are computed in
// cache-blocked panels and dispatched across the kernel worker pool above
// the size threshold; every dst element accumulates in ascending-k order,
// so the result is byte-identical to the serial triple loop.
func MatMul(dst, a, b *Matrix) error {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		return fmt.Errorf("tensor: matmul shape mismatch (%dx%d)·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols)
	}
	workers := kernelParallelism(a.Rows * a.Cols * b.Cols)
	forRowRanges(workers, a.Rows, func(lo, hi int) {
		matMulRows(dst, a, b, lo, hi)
	})
	return nil
}

// matMulRows computes dst rows [lo, hi) of a·b. Rows are processed in
// panels so each kernelBlock-row slab of b is reused across the whole row
// panel while it is cache-hot; k panels advance in ascending order, which
// keeps the per-element accumulation order of the naive loop.
func matMulRows(dst, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		drow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for j := range drow {
			drow[j] = 0
		}
	}
	for i0 := lo; i0 < hi; i0 += kernelBlock {
		i1 := min(i0+kernelBlock, hi)
		for k0 := 0; k0 < a.Cols; k0 += kernelBlock {
			k1 := min(k0+kernelBlock, a.Cols)
			for i := i0; i < i1; i++ {
				arow := a.Data[i*a.Cols : (i+1)*a.Cols]
				drow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
				for k := k0; k < k1; k++ {
					av := arow[k]
					if av == 0 {
						continue
					}
					brow := b.Data[k*b.Cols : (k+1)*b.Cols]
					for j, bv := range brow {
						drow[j] += av * bv
					}
				}
			}
		}
	}
}

// MatMulATB computes dst = aᵀ·b (used for weight gradients). The dst rows
// (columns of a) are partitioned across workers; every element accumulates
// in ascending-i order, matching the serial loop bit for bit.
func MatMulATB(dst, a, b *Matrix) error {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		return errors.New("tensor: matmul-ATB shape mismatch")
	}
	workers := kernelParallelism(a.Rows * a.Cols * b.Cols)
	forRowRanges(workers, a.Cols, func(klo, khi int) {
		matMulATBRows(dst, a, b, klo, khi)
	})
	return nil
}

// matMulATBRows computes dst rows [klo, khi) of aᵀ·b.
func matMulATBRows(dst, a, b *Matrix, klo, khi int) {
	for k := klo; k < khi; k++ {
		drow := dst.Data[k*dst.Cols : (k+1)*dst.Cols]
		for j := range drow {
			drow[j] = 0
		}
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		brow := b.Data[i*b.Cols : (i+1)*b.Cols]
		for k := klo; k < khi; k++ {
			av := arow[k]
			if av == 0 {
				continue
			}
			drow := dst.Data[k*dst.Cols : (k+1)*dst.Cols]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// MatMulABT computes dst = a·bᵀ (used for input gradients). Output rows
// are partitioned across workers; each element is one full dot product in
// ascending-k order, identical to the serial loop.
func MatMulABT(dst, a, b *Matrix) error {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		return errors.New("tensor: matmul-ABT shape mismatch")
	}
	workers := kernelParallelism(a.Rows * a.Cols * b.Rows)
	forRowRanges(workers, a.Rows, func(lo, hi int) {
		matMulABTRows(dst, a, b, lo, hi)
	})
	return nil
}

// matMulABTRows computes dst rows [lo, hi) of a·bᵀ, reusing kernelBlock-row
// slabs of b across the row panel.
func matMulABTRows(dst, a, b *Matrix, lo, hi int) {
	for i0 := lo; i0 < hi; i0 += kernelBlock {
		i1 := min(i0+kernelBlock, hi)
		for j0 := 0; j0 < b.Rows; j0 += kernelBlock {
			j1 := min(j0+kernelBlock, b.Rows)
			for i := i0; i < i1; i++ {
				arow := a.Data[i*a.Cols : (i+1)*a.Cols]
				drow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
				for j := j0; j < j1; j++ {
					brow := b.Data[j*b.Cols : (j+1)*b.Cols]
					var sum float64
					for k, av := range arow {
						sum += av * brow[k]
					}
					drow[j] = sum
				}
			}
		}
	}
}

// AddRowVector adds row vector v (1×Cols) to every row of m in place.
func (m *Matrix) AddRowVector(v *Matrix) error {
	if v.Cols != m.Cols || v.Rows != 1 {
		return errors.New("tensor: row-vector shape mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j := range row {
			row[j] += v.Data[j]
		}
	}
	return nil
}

// AXPY computes m += alpha·x in place.
func (m *Matrix) AXPY(alpha float64, x *Matrix) error {
	if len(m.Data) != len(x.Data) {
		return errors.New("tensor: axpy shape mismatch")
	}
	for i, v := range x.Data {
		m.Data[i] += alpha * v
	}
	return nil
}

// ReLU applies max(0, x) element-wise in place.
func (m *Matrix) ReLU() {
	for i, v := range m.Data {
		if v < 0 {
			m.Data[i] = 0
		}
	}
}

// ReLUBackward zeroes grad where act ≤ 0 (act holds post-ReLU values).
func ReLUBackward(grad, act *Matrix) error {
	if len(grad.Data) != len(act.Data) {
		return errors.New("tensor: relu-backward shape mismatch")
	}
	for i, v := range act.Data {
		if v <= 0 {
			grad.Data[i] = 0
		}
	}
	return nil
}

// SoftmaxCrossEntropy computes, per row of logits, the softmax distribution
// and the cross-entropy loss against integer labels. probs is overwritten
// with the softmax output; the mean loss is returned. Labels outside the
// class range return an error.
func SoftmaxCrossEntropy(probs, logits *Matrix, labels []int) (float64, error) {
	if probs.Rows != logits.Rows || probs.Cols != logits.Cols {
		return 0, errors.New("tensor: softmax shape mismatch")
	}
	if len(labels) != logits.Rows {
		return 0, errors.New("tensor: label count mismatch")
	}
	var loss float64
	for i := 0; i < logits.Rows; i++ {
		if labels[i] < 0 || labels[i] >= logits.Cols {
			return 0, fmt.Errorf("tensor: label %d out of range [0,%d)", labels[i], logits.Cols)
		}
		lrow := logits.Data[i*logits.Cols : (i+1)*logits.Cols]
		prow := probs.Data[i*probs.Cols : (i+1)*probs.Cols]
		maxv := lrow[0]
		for _, v := range lrow[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for j, v := range lrow {
			e := math.Exp(v - maxv)
			prow[j] = e
			sum += e
		}
		for j := range prow {
			prow[j] /= sum
		}
		loss += -math.Log(math.Max(prow[labels[i]], 1e-300))
	}
	return loss / float64(logits.Rows), nil
}

// SoftmaxCrossEntropyGrad writes dL/dlogits = (probs − onehot)/batch into
// grad (may alias probs).
func SoftmaxCrossEntropyGrad(grad, probs *Matrix, labels []int) error {
	if grad.Rows != probs.Rows || grad.Cols != probs.Cols || len(labels) != probs.Rows {
		return errors.New("tensor: softmax-grad shape mismatch")
	}
	inv := 1.0 / float64(probs.Rows)
	if grad != probs {
		copy(grad.Data, probs.Data)
	}
	for i, y := range labels {
		row := grad.Data[i*grad.Cols : (i+1)*grad.Cols]
		row[y] -= 1
		for j := range row {
			row[j] *= inv
		}
	}
	return nil
}

// ColumnSums writes the per-column sums of m into dst (1×Cols).
func ColumnSums(dst, m *Matrix) error {
	if dst.Rows != 1 || dst.Cols != m.Cols {
		return errors.New("tensor: column-sums shape mismatch")
	}
	dst.Zero()
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			dst.Data[j] += v
		}
	}
	return nil
}

// ArgmaxRows returns the index of the maximum element of each row.
func (m *Matrix) ArgmaxRows() []int {
	out := make([]int, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		out[i] = best
	}
	return out
}

// RowSlice returns a view of rows [lo, hi) of m (no copy).
func (m *Matrix) RowSlice(lo, hi int) (*Matrix, error) {
	if lo < 0 || hi > m.Rows || lo >= hi {
		return nil, fmt.Errorf("tensor: row slice [%d,%d) out of range", lo, hi)
	}
	return &Matrix{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}, nil
}
