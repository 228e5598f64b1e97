package randx

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("equal seeds must produce equal streams")
		}
	}
	c := New(43)
	same := true
	a = New(42)
	for i := 0; i < 10; i++ {
		if a.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestUniformRange(t *testing.T) {
	s := New(1)
	for i := 0; i < 1000; i++ {
		v := s.Uniform(3, 7)
		if v < 3 || v >= 7 {
			t.Fatalf("Uniform(3,7) = %v out of range", v)
		}
	}
}

func TestUniformIntRange(t *testing.T) {
	s := New(1)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := s.UniformInt(2, 5)
		if v < 2 || v > 5 {
			t.Fatalf("UniformInt(2,5) = %d out of range", v)
		}
		seen[v] = true
	}
	for want := 2; want <= 5; want++ {
		if !seen[want] {
			t.Errorf("UniformInt never produced %d", want)
		}
	}
	if got := s.UniformInt(9, 9); got != 9 {
		t.Errorf("UniformInt(9,9) = %d, want 9", got)
	}
	if got := s.UniformInt(9, 3); got != 9 {
		t.Errorf("UniformInt(9,3) = %d, want lo", got)
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(7)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.Normal(10, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("mean = %v, want ≈10", mean)
	}
	if math.Abs(variance-4) > 0.15 {
		t.Errorf("variance = %v, want ≈4", variance)
	}
}

func TestClip(t *testing.T) {
	tests := []struct {
		x, lo, hi, want float64
	}{
		{0.5, 0, 1, 0.5},
		{-1, 0, 1, 0},
		{2, 0, 1, 1},
		{0, 0, 1, 0},
		{1, 0, 1, 1},
	}
	for _, tt := range tests {
		if got := Clip(tt.x, tt.lo, tt.hi); got != tt.want {
			t.Errorf("Clip(%v,%v,%v) = %v, want %v", tt.x, tt.lo, tt.hi, got, tt.want)
		}
	}
}

func TestCompetitionMatrixProperties(t *testing.T) {
	s := New(3)
	const n = 12
	m := s.CompetitionMatrix(n, 0.2)
	if len(m) != n {
		t.Fatalf("matrix has %d rows, want %d", len(m), n)
	}
	for i := 0; i < n; i++ {
		if len(m[i]) != n {
			t.Fatalf("row %d has %d cols, want %d", i, len(m[i]), n)
		}
		if m[i][i] != 0 {
			t.Errorf("diagonal (%d,%d) = %v, want 0", i, i, m[i][i])
		}
		for j := 0; j < n; j++ {
			if m[i][j] != m[j][i] {
				t.Errorf("asymmetric at (%d,%d)", i, j)
			}
			if m[i][j] < 0 || m[i][j] > 1 {
				t.Errorf("entry (%d,%d) = %v outside [0,1]", i, j, m[i][j])
			}
		}
	}
}

func TestCompetitionMatrixMean(t *testing.T) {
	s := New(11)
	const n = 60
	m := s.CompetitionMatrix(n, 0.3)
	var sum float64
	var count int
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				sum += m[i][j]
				count++
			}
		}
	}
	if mean := sum / float64(count); math.Abs(mean-0.3) > 0.02 {
		t.Errorf("off-diagonal mean = %v, want ≈0.3", mean)
	}
}

func TestPerm(t *testing.T) {
	s := New(2)
	p := s.Perm(10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("Perm(10) invalid: %v", p)
		}
		seen[v] = true
	}
}

// TestSeedRestartsStream: a re-seeded source replays New(seed)'s stream
// from the start, whatever was drawn — and buffered — before.
func TestSeedRestartsStream(t *testing.T) {
	s := New(3)
	s.Normal(0, 1)
	s.UniformInt(0, 9)
	s.Perm(5)
	s.Seed(42)
	fresh := New(42)
	for i := 0; i < 100; i++ {
		if a, b := s.Normal(1, 2), fresh.Normal(1, 2); a != b {
			t.Fatalf("draw %d: re-seeded %v, fresh %v", i, a, b)
		}
		if a, b := s.UniformInt(0, 1000), fresh.UniformInt(0, 1000); a != b {
			t.Fatalf("draw %d: re-seeded %v, fresh %v", i, a, b)
		}
	}
}
