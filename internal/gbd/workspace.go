package gbd

import (
	"math"
	"sync"

	"tradefl/internal/game"
)

// This file holds the solver's scratch ownership: the bump arenas every
// solve carves its working memory from, the pool the
// solvers themselves recycle through, and rebind, which points a recycled
// solver at a new instance.

// bump is a typed bump allocator. take carves zeroed slices out of chunks
// the allocator keeps; reset hands every one of them back at once. A take
// that does not fit opens a further chunk and leaves the earlier ones
// untouched, so slices taken before the growth stay valid until reset —
// which then coalesces the chunks, so a workload that repeats reaches a
// fixed point where take never allocates.
type bump[T any] struct {
	// chunks[:cur] are exhausted; chunks[cur][:off] is handed out.
	chunks   [][]T
	cur, off int
}

// minChunk is the smallest chunk opened; from there chunks double.
const minChunk = 64

func (b *bump[T]) take(n int) []T {
	for b.cur < len(b.chunks) {
		if c := b.chunks[b.cur]; b.off+n <= len(c) {
			s := c[b.off : b.off+n : b.off+n]
			b.off += n
			return s
		}
		b.cur++
		b.off = 0
	}
	size := max(n, minChunk)
	if b.cur > 0 {
		size = max(size, 2*len(b.chunks[b.cur-1]))
	}
	b.chunks = append(b.chunks, make([]T, size))
	b.off = n
	return b.chunks[b.cur][:n:n]
}

// reset makes the whole capacity available again, zeroed (take hands out
// zeroed memory exactly like make; zeroing here also drops every pointer
// the previous cycle stored).
func (b *bump[T]) reset() {
	switch {
	case b.cur > 0:
		total := 0
		for _, c := range b.chunks {
			total += len(c)
		}
		b.chunks = append(b.chunks[:0], make([]T, total))
	case len(b.chunks) > 0:
		clear(b.chunks[0][:b.off])
	}
	b.cur, b.off = 0, 0
}

// arena bundles the bump allocators of one lifetime.
//
// Nothing reachable from a Result may point into an arena: the memory is
// recycled by the next solve on the same solver.
type arena struct {
	f bump[float64]
	r bump[[]float64]
	i bump[int]
	b bump[bool]
}

func (a *arena) floats(n int) []float64 {
	return a.f.take(n)
}

func (a *arena) rows(n int) [][]float64 {
	return a.r.take(n)
}

func (a *arena) ints(n int) []int {
	return a.i.take(n)
}

func (a *arena) bools(n int) []bool {
	return a.b.take(n)
}

func (a *arena) reset() {
	a.f.reset()
	a.r.reset()
	a.i.reset()
	a.b.reset()
}

// solvers recycles solvers — arenas, cut-table headers, trace buffers —
// across solves, whatever their shape and whoever the
// caller is: a solver is taken for the duration of one solve and no two
// in-flight solves ever hold the same one.
var solvers = sync.Pool{New: func() any {
	return &solver{solve: new(arena), master: new(arena), tables: new(cutTables)}
}}

// rebind points the solver at an instance: it recycles the solve arena,
// re-derives every numeric field from the config's current values and
// empties all cross-solve state. Only capacity survives a rebind, so the
// solve that follows is byte-identical to one on a solver built from
// nothing.
func (s *solver) rebind(cfg *game.Config, opts Options) {
	n := cfg.N()
	s.cfg, s.opts = cfg, opts
	s.solve.reset()
	s.rhoBar, s.zs, s.scale = s.solve.floats(n), s.solve.floats(n), s.solve.floats(n)
	for i := 0; i < n; i++ {
		s.rhoBar[i] = cfg.RhoRowSum(i)
		s.zs[i] = cfg.Weight(i)
		s.scale[i] = cfg.OmegaScale(i)
	}
	s.lbs, s.ubs, s.incumbents = s.lbs[:0], s.ubs[:0], s.incumbents[:0]
	s.prevIdx = nil
	s.lb = math.Inf(-1)
	if cap(s.trial) < n {
		s.trial, s.best = make(game.Profile, n), make(game.Profile, n)
	}
	s.trial, s.best = s.trial[:n], s.best[:n]
	s.initCaches()
}

// release returns a pooled solver once its solve is over (finished, failed
// or cancelled), dropping the instance it was bound to.
func (s *solver) release() {
	s.cfg = nil
	solvers.Put(s)
}
