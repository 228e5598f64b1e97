package dataset

import (
	"testing"
)

func TestSpecsRegistry(t *testing.T) {
	specs := Specs()
	if len(specs) != 4 {
		t.Fatalf("got %d specs, want 4", len(specs))
	}
	names := map[string]bool{}
	for _, s := range specs {
		names[s.Name] = true
		if s.Classes != 10 {
			t.Errorf("%s: classes = %d, want 10", s.Name, s.Classes)
		}
		if s.Noise <= 0 || s.Dim <= 0 {
			t.Errorf("%s: invalid spec %+v", s.Name, s)
		}
	}
	for _, want := range []string{"cifar10", "fmnist", "svhn", "eurosat"} {
		if !names[want] {
			t.Errorf("missing dataset %q", want)
		}
	}
}

func TestSpecByName(t *testing.T) {
	if _, err := SpecByName("imagenet"); err == nil {
		t.Error("SpecByName accepted unknown name")
	}
	s, err := SpecByName("svhn")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "svhn" {
		t.Errorf("got %q", s.Name)
	}
}

func TestGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(Spec{Dim: 0, Classes: 10, Noise: 1}, 1); err == nil {
		t.Error("accepted zero dim")
	}
	if _, err := NewGenerator(Spec{Dim: 4, Classes: 1, Noise: 1}, 1); err == nil {
		t.Error("accepted single class")
	}
	if _, err := NewGenerator(Spec{Dim: 4, Classes: 3, Noise: 0}, 1); err == nil {
		t.Error("accepted zero noise")
	}
}

func TestSampleShapeAndBalance(t *testing.T) {
	spec, _ := SpecByName("fmnist")
	g, err := NewGenerator(spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	d, err := g.Sample(1000)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 1000 || d.Dim() != spec.Dim || d.Classes != 10 {
		t.Fatalf("bad shape: len=%d dim=%d classes=%d", d.Len(), d.Dim(), d.Classes)
	}
	for c, n := range d.ClassBalance() {
		if n != 100 {
			t.Errorf("class %d has %d samples, want 100 (round-robin)", c, n)
		}
	}
	if _, err := g.Sample(0); err == nil {
		t.Error("Sample(0) accepted")
	}
}

func TestSamplesAreShuffled(t *testing.T) {
	spec, _ := SpecByName("fmnist")
	g, _ := NewGenerator(spec, 42)
	d, _ := g.Sample(100)
	// Round-robin without shuffling would give label sequence 0,1,2,...;
	// verify the sequence deviates.
	sequential := true
	for i, y := range d.Y {
		if y != i%10 {
			sequential = false
			break
		}
	}
	if sequential {
		t.Error("samples not shuffled")
	}
}

func TestDeterministicGeneration(t *testing.T) {
	spec, _ := SpecByName("cifar10")
	g1, _ := NewGenerator(spec, 7)
	g2, _ := NewGenerator(spec, 7)
	a, _ := g1.Sample(50)
	b, _ := g2.Sample(50)
	for i := range a.X.Data {
		if a.X.Data[i] != b.X.Data[i] {
			t.Fatal("same seed produced different data")
		}
	}
}

func TestPartition(t *testing.T) {
	spec, _ := SpecByName("svhn")
	g, _ := NewGenerator(spec, 9)
	shards, err := g.Partition([]int{100, 200, 300})
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 3 {
		t.Fatalf("got %d shards", len(shards))
	}
	for i, want := range []int{100, 200, 300} {
		if shards[i].Len() != want {
			t.Errorf("shard %d has %d samples, want %d", i, shards[i].Len(), want)
		}
	}
	if _, err := g.Partition([]int{100, 0}); err == nil {
		t.Error("Partition accepted zero-size shard")
	}
}

func TestSubset(t *testing.T) {
	spec, _ := SpecByName("eurosat")
	g, _ := NewGenerator(spec, 3)
	d, _ := g.Sample(100)
	s, err := d.Subset(30)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 30 || s.Dim() != d.Dim() {
		t.Errorf("subset shape wrong: %d×%d", s.Len(), s.Dim())
	}
	if _, err := d.Subset(0); err == nil {
		t.Error("Subset(0) accepted")
	}
	if _, err := d.Subset(101); err == nil {
		t.Error("oversized Subset accepted")
	}
}

func TestDifficultyOrdering(t *testing.T) {
	// Harder datasets must have more within-class noise relative to
	// separation: cifar10 > svhn > eurosat > fmnist.
	get := func(name string) Spec {
		s, err := SpecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	order := []string{"fmnist", "eurosat", "svhn", "cifar10"}
	for i := 1; i < len(order); i++ {
		a, b := get(order[i-1]), get(order[i])
		if b.Noise/b.Separation <= a.Noise/a.Separation {
			t.Errorf("%s should be harder than %s", order[i], order[i-1])
		}
	}
}

// ClassBalance returns the per-class sample counts, ascending by class id.
func (d *Dataset) ClassBalance() []int {
	counts := make([]int, d.Classes)
	for _, y := range d.Y {
		if y >= 0 && y < d.Classes {
			counts[y]++
		}
	}
	return counts
}
