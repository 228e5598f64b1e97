package tensor

import "testing"

func TestSizeClasses(t *testing.T) {
	for _, tt := range []struct{ n, wantCap int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {64, 64}, {65, 128}, {1 << maxClass, 1 << maxClass},
	} {
		s := floats(tt.n)
		if len(s) != tt.n || cap(s) != tt.wantCap {
			t.Errorf("floats(%d): len=%d cap=%d, want len=%d cap=%d", tt.n, len(s), cap(s), tt.n, tt.wantCap)
		}
		putFloats(s)
	}
}

func TestOversizedFallsThrough(t *testing.T) {
	n := (1 << maxClass) + 1
	s := floats(n)
	if len(s) != n {
		t.Fatalf("len=%d, want %d", len(s), n)
	}
	putFloats(s) // dropped, must not panic
}

func TestPutForeignSliceIsSafe(t *testing.T) {
	putFloats(nil)
	putFloats(make([]float64, 3)) // cap 3 is no pooled class: dropped
	Put(nil)
	Put(New(3, 1))
}

func TestFloatsZeroed(t *testing.T) {
	m := Get(4, 4)
	for i := range m.Data {
		m.Data[i] = 42
	}
	Put(m)
	z := GetZeroed(4, 4)
	for i, v := range z.Data {
		if v != 0 {
			t.Fatalf("z[%d] = %v after recycle, want 0", i, v)
		}
	}
	Put(z)
}

func TestReuseIsAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool allocates under the race detector")
	}
	// Prime the pools, then assert a steady-state acquire/release cycle of a
	// stable shape allocates nothing.
	Put(Get(10, 10))
	if allocs := testing.AllocsPerRun(100, func() {
		Put(Get(10, 10))
	}); allocs != 0 {
		t.Errorf("steady-state pool cycle allocates %v/op, want 0", allocs)
	}
}
