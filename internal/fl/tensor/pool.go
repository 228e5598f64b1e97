package tensor

import (
	"math/bits"
	"sync"
)

// Matrix backing arrays are pooled in power-of-two size classes, so the
// trainer's steady state — acquiring and releasing same-shaped activations
// and gradients every step — reaches a fixed point where no allocation hits
// the garbage collector. Pooled storage carries no identity: Get returns
// unspecified contents and every kernel here fully writes its dst, which is
// also why pooling cannot perturb numerical results.

// maxClass bounds the pooled size classes: slices above 2^maxClass floats
// (32 MiB) are allocated directly and dropped on release — one-off giants
// would otherwise pin large blocks in the pool forever.
const maxClass = 22

// floatPools[c] holds *[]float64 with capacity exactly 1<<c. Pointers are
// pooled (not slices) so no interface boxing of slice headers occurs, and
// the empty boxes themselves recycle through floatBoxes — a steady-state
// floats/putFloats cycle performs zero allocations.
var (
	floatPools [maxClass + 1]sync.Pool
	floatBoxes sync.Pool
)

// headerPool recycles Matrix headers so Get/Put cycles allocate neither the
// backing array nor the struct.
var headerPool = sync.Pool{New: func() any { return new(Matrix) }}

// sizeClass returns the smallest class c with 1<<c ≥ n, or maxClass+1 when
// n is out of pooled range.
func sizeClass(n int) int {
	if n <= 1 {
		return 0
	}
	c := bits.Len(uint(n - 1))
	if c > maxClass {
		return maxClass + 1
	}
	return c
}

// floats returns a pooled slice of length n with unspecified contents.
func floats(n int) []float64 {
	c := sizeClass(n)
	if c > maxClass {
		return make([]float64, n)
	}
	if p, _ := floatPools[c].Get().(*[]float64); p != nil {
		s := *p
		*p = nil
		floatBoxes.Put(p)
		return s[:n]
	}
	return make([]float64, n, 1<<c)
}

// putFloats returns s to the pool. Slices of unpooled capacity (not a power
// of two ≤ 2^maxClass, e.g. not from floats) are dropped silently.
func putFloats(s []float64) {
	c := sizeClass(cap(s))
	if cap(s) == 0 || c > maxClass || cap(s) != 1<<c {
		return
	}
	p, _ := floatBoxes.Get().(*[]float64)
	if p == nil {
		p = new([]float64)
	}
	*p = s[:0]
	floatPools[c].Put(p)
}

// Get returns a pooled rows×cols matrix whose contents are UNSPECIFIED —
// the caller must fully initialize it before reading (every kernel in this
// package that takes a dst writes all of it). Use New when zeros are
// required. Return the matrix with Put when done; steady-state Get/Put
// cycles of stable shapes are allocation-free.
func Get(rows, cols int) *Matrix {
	m := headerPool.Get().(*Matrix)
	m.Rows, m.Cols = rows, cols
	m.Data = floats(rows * cols)
	return m
}

// Put returns a matrix obtained from Get to the pool. m must not
// be used afterwards (its data may be handed to another goroutine). Safe on
// nil and on matrices not obtained from Get — unpooled backing arrays are
// dropped rather than recycled.
func Put(m *Matrix) {
	if m == nil {
		return
	}
	putFloats(m.Data)
	m.Rows, m.Cols, m.Data = 0, 0, nil
	headerPool.Put(m)
}
