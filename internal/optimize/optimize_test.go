package optimize

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestGoldenSectionQuadratic(t *testing.T) {
	tests := []struct {
		name     string
		f        func(float64) float64
		lo, hi   float64
		wantX    float64
		wantTolX float64
	}{
		{"interior max", func(x float64) float64 { return -(x - 3) * (x - 3) }, 0, 10, 3, 1e-6},
		{"max at left edge", func(x float64) float64 { return -x }, 2, 5, 2, 1e-6},
		{"max at right edge", func(x float64) float64 { return x }, 2, 5, 5, 1e-6},
		{"sin peak", math.Sin, 0, math.Pi, math.Pi / 2, 1e-5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			x, fx, err := GoldenSection(tt.f, tt.lo, tt.hi, 1e-9)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(x-tt.wantX) > tt.wantTolX {
				t.Errorf("x = %v, want %v", x, tt.wantX)
			}
			if math.Abs(fx-tt.f(tt.wantX)) > 1e-9 {
				t.Errorf("f(x) = %v, want %v", fx, tt.f(tt.wantX))
			}
		})
	}
}

func TestGoldenSectionSwappedBoundsAndBadTol(t *testing.T) {
	x, _, err := GoldenSection(func(x float64) float64 { return -(x - 3) * (x - 3) }, 10, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x-3) > 1e-6 {
		t.Errorf("x = %v, want 3 with swapped bounds and non-positive tol", x)
	}
}

func TestGoldenSectionConcaveQuick(t *testing.T) {
	// Property: for random concave quadratics the returned value is within
	// tolerance of the true constrained maximum.
	f := func(aRaw, bRaw float64) bool {
		a := 0.1 + math.Mod(math.Abs(aRaw), 10)
		b := math.Mod(bRaw, 20)
		obj := func(x float64) float64 { return -a * (x - b) * (x - b) }
		lo, hi := -5.0, 5.0
		want := obj(math.Max(lo, math.Min(hi, b)))
		_, got, _ := GoldenSection(obj, lo, hi, 1e-10)
		return math.Abs(got-want) <= 1e-6*math.Max(1, math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBisectDecreasing(t *testing.T) {
	g := func(x float64) float64 { return 4 - x }
	if got, err := BisectDecreasing(g, 0, 10, 1e-10); err != nil || math.Abs(got-4) > 1e-9 {
		t.Errorf("root = %v (err %v), want 4", got, err)
	}
	// Root outside interval: clamp to the correct endpoint.
	if got, err := BisectDecreasing(g, 5, 10, 1e-10); err != nil || got != 5 {
		t.Errorf("root = %v (err %v), want lo=5 when g(lo) ≤ 0", got, err)
	}
	if got, err := BisectDecreasing(g, 0, 3, 1e-10); err != nil || got != 3 {
		t.Errorf("root = %v (err %v), want hi=3 when g(hi) ≥ 0", got, err)
	}
}

func TestBisectDecreasingIterationCap(t *testing.T) {
	// A tolerance below the interval's floating-point resolution can never be
	// met: the bracket stops shrinking once its endpoints are adjacent
	// doubles. The cap must convert the former infinite loop into
	// ErrMaxIterations while still returning a point inside the bracket.
	g := func(x float64) float64 { return 1e15 + 2 - x }
	got, err := BisectDecreasing(g, 1e15, 1e15+4, 1e-30)
	if !errors.Is(err, ErrMaxIterations) {
		t.Fatalf("err = %v, want ErrMaxIterations", err)
	}
	if got < 1e15 || got > 1e15+4 {
		t.Errorf("capped root %v escaped the bracket", got)
	}
}

func TestGoldenSectionIterationCap(t *testing.T) {
	obj := func(x float64) float64 { return -(x - 1e15 - 1) * (x - 1e15 - 1) }
	x, _, err := GoldenSection(obj, 1e15, 1e15+4, 1e-30)
	if !errors.Is(err, ErrMaxIterations) {
		t.Fatalf("err = %v, want ErrMaxIterations", err)
	}
	if x < 1e15 || x > 1e15+4 {
		t.Errorf("capped maximizer %v escaped the bracket", x)
	}
}

func TestWaterFillSolveIntoReusesScratch(t *testing.T) {
	p := waterFillFixture()
	want, wantVal, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float64, len(p.W))
	order := make([]int, len(p.W))
	got, gotVal, err := p.SolveInto(y, order)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &y[0] {
		t.Error("SolveInto did not reuse the provided scratch slice")
	}
	if gotVal != wantVal {
		t.Errorf("value %v != Solve value %v", gotVal, wantVal)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("y[%d] = %v != Solve's %v", i, got[i], want[i])
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		_, _, _ = p.SolveInto(y, order)
	}); allocs != 0 {
		t.Errorf("SolveInto with adequate scratch allocates %v/op, want 0", allocs)
	}
}

func waterFillFixture() *WaterFillProblem {
	return &WaterFillProblem{
		Phi:      func(o float64) float64 { return 2 * math.Sqrt(o) },
		PhiPrime: func(o float64) float64 { return 1 / math.Sqrt(o) },
		W:        []float64{0.1, 0.5, 0.05},
		Lo:       []float64{1, 1, 1},
		Hi:       []float64{100, 100, 100},
	}
}

func TestWaterFillNegativeCostsFillFully(t *testing.T) {
	p := &WaterFillProblem{
		Phi:      func(o float64) float64 { return math.Log1p(o) },
		PhiPrime: func(o float64) float64 { return 1 / (1 + o) },
		W:        []float64{-2, -0.5},
		Lo:       []float64{0, 0},
		Hi:       []float64{10, 20},
	}
	y, _, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if y[0] != 10 || y[1] != 20 {
		t.Errorf("negative costs should saturate: got %v", y)
	}
}

func TestWaterFillExpensiveStaysAtLo(t *testing.T) {
	p := &WaterFillProblem{
		Phi:      func(o float64) float64 { return math.Sqrt(o) },
		PhiPrime: func(o float64) float64 { return 0.5 / math.Sqrt(o) },
		W:        []float64{1000, 1000},
		Lo:       []float64{1, 2},
		Hi:       []float64{10, 20},
	}
	y, _, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if y[0] != 1 || y[1] != 2 {
		t.Errorf("prohibitive costs should stay at Lo: got %v", y)
	}
}

func TestWaterFillEmptyBounds(t *testing.T) {
	p := waterFillFixture()
	p.Hi[1] = 0.5 // below Lo[1] = 1
	if _, _, err := p.Solve(); err == nil {
		t.Error("want error for empty bounds")
	}
	p = waterFillFixture()
	p.W = p.W[:2]
	if _, _, err := p.Solve(); err == nil {
		t.Error("want dimension mismatch error")
	}
}

func TestWaterFillOptimalityQuick(t *testing.T) {
	// Property: the water-fill solution is never beaten by random feasible
	// points (global optimality of the exact solver).
	f := func(w1, w2, w3, r1, r2, r3 float64) bool {
		p := &WaterFillProblem{
			Phi:      func(o float64) float64 { return 3 * math.Sqrt(o+1) },
			PhiPrime: func(o float64) float64 { return 1.5 / math.Sqrt(o+1) },
			W: []float64{
				math.Mod(w1, 2), math.Mod(w2, 2), math.Mod(w3, 2),
			},
			Lo: []float64{0.5, 0.5, 0.5},
			Hi: []float64{8, 8, 8},
		}
		_, best, err := p.Solve()
		if err != nil {
			return false
		}
		probe := []float64{
			0.5 + 7.5*frac(r1), 0.5 + 7.5*frac(r2), 0.5 + 7.5*frac(r3),
		}
		return p.Value(probe) <= best+1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func frac(x float64) float64 {
	v := math.Abs(x)
	return v - math.Floor(v)
}
