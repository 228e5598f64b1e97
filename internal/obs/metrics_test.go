package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_counter_total", "t")
	const goroutines, perG = 8, 10000
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
}

func TestGaugeConcurrentAdd(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_gauge", "t")
	const goroutines, perG = 8, 5000
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for w := 0; w < goroutines; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				g.Add(0.5)
			}
		}()
	}
	wg.Wait()
	want := float64(goroutines*perG) * 0.5
	if got := g.Value(); got != want {
		t.Errorf("gauge = %v, want %v", got, want)
	}
	g.Set(-3)
	if got := g.Value(); got != -3 {
		t.Errorf("after Set(-3): %v", got)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_hist", "t", []float64{1, 2, 4})
	// Bounds are inclusive upper bounds: 1.0 lands in le=1, 1.0001 in le=2,
	// 4.0 in le=4, anything above in +Inf.
	for _, v := range []float64{0.5, 1.0, 1.0001, 2.0, 3.9, 4.0, 4.0001, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 8 {
		t.Fatalf("count = %d, want 8", got)
	}
	snap := r.Snapshot()
	s, ok := Find(snap, "test_hist")
	if !ok {
		t.Fatal("test_hist missing from snapshot")
	}
	// Cumulative: le=1 → {0.5, 1.0}; le=2 → +{1.0001, 2.0}; le=4 → +{3.9,
	// 4.0}; +Inf → +{4.0001, 100}.
	wantCum := []int64{2, 4, 6, 8}
	if len(s.Buckets) != len(wantCum) {
		t.Fatalf("got %d buckets, want %d", len(s.Buckets), len(wantCum))
	}
	for i, want := range wantCum {
		if s.Buckets[i].Count != want {
			t.Errorf("bucket %d (le=%v): cum count %d, want %d", i, s.Buckets[i].UpperBound, s.Buckets[i].Count, want)
		}
	}
	if !math.IsInf(s.Buckets[len(s.Buckets)-1].UpperBound, 1) {
		t.Errorf("last bucket bound = %v, want +Inf", s.Buckets[len(s.Buckets)-1].UpperBound)
	}
	wantSum := 0.5 + 1.0 + 1.0001 + 2.0 + 3.9 + 4.0 + 4.0001 + 100
	if math.Abs(s.Sum-wantSum) > 1e-9 {
		t.Errorf("sum = %v, want %v", s.Sum, wantSum)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_hist_conc", "t", []float64{1, 10})
	const goroutines, perG = 8, 2000
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for w := 0; w < goroutines; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(float64(w))
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*perG {
		t.Errorf("count = %d, want %d", got, goroutines*perG)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("iso_counter_total", "t")
	h := r.Histogram("iso_hist", "t", []float64{1})
	c.Inc()
	h.Observe(0.5)
	snap := r.Snapshot()
	// Mutate after the snapshot; the snapshot must not move.
	c.Add(41)
	h.Observe(0.5)
	h.Observe(2)
	s, _ := Find(snap, "iso_counter_total")
	if s.Value != 1 {
		t.Errorf("snapshot counter = %v, want 1", s.Value)
	}
	hs, _ := Find(snap, "iso_hist")
	if hs.Count != 1 || hs.Buckets[0].Count != 1 {
		t.Errorf("snapshot histogram count = %d / bucket %d, want 1 / 1", hs.Count, hs.Buckets[0].Count)
	}
	// Snapshots are name-sorted.
	names := make([]string, len(snap))
	for i, s := range snap {
		names[i] = s.Name
	}
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Errorf("snapshot not sorted: %q before %q", names[i-1], names[i])
		}
	}
}

func TestRegisterIdempotentAndKindMismatch(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup_total", "first help")
	b := r.Counter("dup_total", "second help")
	if a != b {
		t.Error("re-registering a counter returned a different instance")
	}
	s, _ := Find(r.Snapshot(), "dup_total")
	if s.Help != "first help" {
		t.Errorf("help = %q, want the first registration's", s.Help)
	}
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	r.Gauge("dup_total", "now a gauge")
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1e-5, 4, 3)
	want := []float64{1e-5, 4e-5, 16e-5}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-18 {
			t.Errorf("bucket %d = %v, want %v", i, b[i], want[i])
		}
	}
	for _, bad := range [][3]float64{{0, 4, 3}, {1, 1, 3}, {1, 4, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ExpBuckets(%v) did not panic", bad)
				}
			}()
			ExpBuckets(bad[0], bad[1], int(bad[2]))
		}()
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("fmt_counter_total", "a counter").Add(3)
	r.Gauge("fmt_gauge", "a gauge").Set(1.5)
	r.Histogram("fmt_hist", "a histogram", []float64{1, 2}).Observe(1.5)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE fmt_counter_total counter",
		"fmt_counter_total 3",
		"# TYPE fmt_gauge gauge",
		"fmt_gauge 1.5",
		"# TYPE fmt_hist histogram",
		`fmt_hist_bucket{le="1"} 0`,
		`fmt_hist_bucket{le="2"} 1`,
		`fmt_hist_bucket{le="+Inf"} 1`,
		"fmt_hist_sum 1.5",
		"fmt_hist_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}
