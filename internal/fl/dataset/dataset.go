// Package dataset generates the synthetic classification workloads the FL
// simulator trains on. The paper evaluates on CIFAR-10, FMNIST, SVHN and
// EuroSat; those images are not available offline, so we substitute
// class-conditional Gaussian clouds whose dimensionality and class overlap
// are tuned per dataset name to mimic each benchmark's relative difficulty
// (DESIGN.md §2). What the TradeFL experiments consume is only the *shape*
// of accuracy-versus-data — increasing and concave — which this family
// reproduces.
package dataset

import (
	"fmt"
	"math"

	"tradefl/internal/fl/tensor"
	"tradefl/internal/randx"
)

// Dataset is a labeled classification set.
type Dataset struct {
	// X is the (n × Dim) feature matrix.
	X *tensor.Matrix
	// Y holds integer class labels in [0, Classes).
	Y []int
	// Classes is the number of classes.
	Classes int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Y) }

// Dim returns the feature dimensionality.
func (d *Dataset) Dim() int { return d.X.Cols }

// Spec describes a synthetic dataset family.
type Spec struct {
	// Name identifies the family ("cifar10", "fmnist", "svhn", "eurosat").
	Name string
	// Dim is the feature dimensionality.
	Dim int
	// Classes is the number of classes.
	Classes int
	// Noise is the within-class standard deviation; larger is harder.
	Noise float64
	// Separation scales the distance between class means.
	Separation float64
}

// Specs returns the registry of named dataset families, difficulty-ordered
// to mirror the benchmarks: FMNIST easiest, CIFAR-10 hardest.
func Specs() []Spec {
	return []Spec{
		{Name: "fmnist", Dim: 16, Classes: 10, Noise: 0.30, Separation: 1.0},
		{Name: "eurosat", Dim: 20, Classes: 10, Noise: 0.38, Separation: 1.0},
		{Name: "svhn", Dim: 24, Classes: 10, Noise: 0.46, Separation: 1.0},
		{Name: "cifar10", Dim: 32, Classes: 10, Noise: 0.55, Separation: 1.0},
	}
}

// SpecByName returns the named spec.
func SpecByName(name string) (Spec, error) {
	for _, s := range Specs() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("dataset: unknown name %q", name)
}

// Generator draws datasets from a Spec with fixed class means, so that
// training and test splits (and every organization's shard) come from the
// same underlying distribution — the i.i.d. setting of footnote 4.
type Generator struct {
	spec  Spec
	means [][]float64
	src   *randx.Source
}

// NewGenerator creates a generator with deterministic class means derived
// from the seed.
func NewGenerator(spec Spec, seed int64) (*Generator, error) {
	if spec.Dim <= 0 || spec.Classes <= 1 {
		return nil, fmt.Errorf("dataset: invalid spec %+v", spec)
	}
	if spec.Noise <= 0 {
		return nil, fmt.Errorf("dataset: noise %v must be positive", spec.Noise)
	}
	src := randx.New(seed)
	means := make([][]float64, spec.Classes)
	for c := range means {
		mu := make([]float64, spec.Dim)
		var norm float64
		for j := range mu {
			mu[j] = src.Normal(0, 1)
			norm += mu[j] * mu[j]
		}
		norm = math.Sqrt(norm)
		for j := range mu {
			mu[j] = mu[j] / norm * spec.Separation
		}
		means[c] = mu
	}
	return &Generator{spec: spec, means: means, src: src}, nil
}

// Spec returns the generator's spec.
func (g *Generator) Spec() Spec { return g.spec }

// Sample draws n labeled points, classes balanced round-robin.
func (g *Generator) Sample(n int) (*Dataset, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dataset: sample size %d must be positive", n)
	}
	x := tensor.New(n, g.spec.Dim)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % g.spec.Classes
		y[i] = c
		row := x.Data[i*g.spec.Dim : (i+1)*g.spec.Dim]
		for j := range row {
			row[j] = g.means[c][j] + g.src.Normal(0, g.spec.Noise)
		}
	}
	// Shuffle so mini-batches are class-mixed.
	perm := g.src.Perm(n)
	xs := tensor.New(n, g.spec.Dim)
	ys := make([]int, n)
	for i, p := range perm {
		copy(xs.Data[i*g.spec.Dim:(i+1)*g.spec.Dim], x.Data[p*g.spec.Dim:(p+1)*g.spec.Dim])
		ys[i] = y[p]
	}
	return &Dataset{X: xs, Y: ys, Classes: g.spec.Classes}, nil
}

// Partition splits n total samples into len(sizes) disjoint shards with the
// given sizes, each freshly drawn (i.i.d. across organizations).
func (g *Generator) Partition(sizes []int) ([]*Dataset, error) {
	out := make([]*Dataset, len(sizes))
	for i, n := range sizes {
		d, err := g.Sample(n)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		out[i] = d
	}
	return out, nil
}

// PartitionNonIID draws label-skewed shards: each shard's class mix comes
// from a symmetric Dirichlet with concentration alpha. Small alpha →
// strongly skewed (each organization sees few classes, the realistic
// cross-silo setting the paper's footnote 4 abstracts away); large alpha →
// approaches IID. alpha must be positive.
func (g *Generator) PartitionNonIID(sizes []int, alpha float64) ([]*Dataset, error) {
	if alpha <= 0 {
		return nil, fmt.Errorf("dataset: dirichlet alpha %v must be positive", alpha)
	}
	out := make([]*Dataset, len(sizes))
	for i, n := range sizes {
		if n <= 0 {
			return nil, fmt.Errorf("dataset: shard %d size %d must be positive", i, n)
		}
		mix := g.dirichlet(alpha)
		d, err := g.sampleWithMix(n, mix)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		out[i] = d
	}
	return out, nil
}

// dirichlet draws class proportions from Dirichlet(alpha, …, alpha) via
// normalized Gamma(alpha, 1) draws (Marsaglia-Tsang would be overkill for
// the small alphas used; the sum-of-exponentials trick covers alpha ≥ 1 and
// a boost transform covers alpha < 1).
func (g *Generator) dirichlet(alpha float64) []float64 {
	mix := make([]float64, g.spec.Classes)
	var sum float64
	for c := range mix {
		mix[c] = g.gammaDraw(alpha)
		sum += mix[c]
	}
	if sum == 0 {
		for c := range mix {
			mix[c] = 1 / float64(len(mix))
		}
		return mix
	}
	for c := range mix {
		mix[c] /= sum
	}
	return mix
}

// gammaDraw samples Gamma(alpha, 1) with the Marsaglia-Tsang squeeze for
// alpha ≥ 1 and the Johnk-style boost for alpha < 1.
func (g *Generator) gammaDraw(alpha float64) float64 {
	if alpha < 1 {
		u := g.src.Float64()
		if u == 0 {
			u = math.SmallestNonzeroFloat64
		}
		return g.gammaDraw(alpha+1) * math.Pow(u, 1/alpha)
	}
	d := alpha - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		x := g.src.Normal(0, 1)
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := g.src.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// sampleWithMix draws n points whose labels follow the given class mix.
func (g *Generator) sampleWithMix(n int, mix []float64) (*Dataset, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dataset: sample size %d must be positive", n)
	}
	x := tensor.New(n, g.spec.Dim)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := g.pickClass(mix)
		y[i] = c
		row := x.Data[i*g.spec.Dim : (i+1)*g.spec.Dim]
		for j := range row {
			row[j] = g.means[c][j] + g.src.Normal(0, g.spec.Noise)
		}
	}
	return &Dataset{X: x, Y: y, Classes: g.spec.Classes}, nil
}

// pickClass samples a class index from the mix distribution.
func (g *Generator) pickClass(mix []float64) int {
	u := g.src.Float64()
	var acc float64
	for c, p := range mix {
		acc += p
		if u < acc {
			return c
		}
	}
	return len(mix) - 1
}

// Subset returns the first n samples of d as a view (no copy). Use after
// shuffling; TradeFL organizations contribute the fraction d_i of their
// shard this way.
func (d *Dataset) Subset(n int) (*Dataset, error) {
	if n <= 0 || n > d.Len() {
		return nil, fmt.Errorf("dataset: subset size %d outside [1,%d]", n, d.Len())
	}
	x, err := d.X.RowSlice(0, n)
	if err != nil {
		return nil, err
	}
	return &Dataset{X: x, Y: d.Y[:n], Classes: d.Classes}, nil
}
