package fl

import (
	"strings"
	"testing"

	"tradefl/internal/fl/dataset"
	"tradefl/internal/fl/model"
)

func fixture(t *testing.T, name string, shardSizes []int) Config {
	t.Helper()
	spec, err := dataset.SpecByName(name)
	if err != nil {
		t.Fatal(err)
	}
	g, err := dataset.NewGenerator(spec, 21)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := g.Partition(shardSizes)
	if err != nil {
		t.Fatal(err)
	}
	test, err := g.Sample(600)
	if err != nil {
		t.Fatal(err)
	}
	arch, err := model.ArchByName("mobilenet")
	if err != nil {
		t.Fatal(err)
	}
	fr := make([]float64, len(shardSizes))
	for i := range fr {
		fr[i] = 1
	}
	return Config{
		Arch:        arch,
		Shards:      shards,
		Fractions:   fr,
		Rounds:      8,
		LocalEpochs: 2,
		Test:        test,
		Seed:        5,
	}
}

func TestRunProducesHistory(t *testing.T) {
	cfg := fixture(t, "fmnist", []int{200, 200, 200})
	before := mRounds.Value()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != cfg.Rounds {
		t.Fatalf("history has %d rounds, want %d", len(res.History), cfg.Rounds)
	}
	if got := mRounds.Value() - before; got != int64(cfg.Rounds) {
		t.Errorf("tradefl_fl_rounds_total rose by %d, want %d", got, cfg.Rounds)
	}
	if res.TotalSamples != 600 {
		t.Errorf("TotalSamples = %d, want 600", res.TotalSamples)
	}
	if res.FinalAccuracy != res.History[len(res.History)-1].Accuracy {
		t.Error("FinalAccuracy inconsistent with history")
	}
	if res.FinalAccuracy < 0.3 {
		t.Errorf("final accuracy %v too low for fmnist", res.FinalAccuracy)
	}
}

func TestLossDecreasesOverRounds(t *testing.T) {
	cfg := fixture(t, "fmnist", []int{300, 300})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, last := res.History[0].Loss, res.FinalLoss
	if last >= first {
		t.Errorf("loss did not improve: %v -> %v", first, last)
	}
}

func TestFractionsControlContribution(t *testing.T) {
	cfg := fixture(t, "svhn", []int{200, 200})
	cfg.Fractions = []float64{0.5, 0.25}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSamples != 150 {
		t.Errorf("TotalSamples = %d, want 150", res.TotalSamples)
	}
}

func TestZeroFractionOrgIsSkipped(t *testing.T) {
	cfg := fixture(t, "svhn", []int{200, 200})
	cfg.Fractions = []float64{1, 0}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSamples != 200 {
		t.Errorf("TotalSamples = %d, want 200", res.TotalSamples)
	}
}

func TestAllZeroFractionsRejected(t *testing.T) {
	cfg := fixture(t, "svhn", []int{100, 100})
	cfg.Fractions = []float64{0, 0}
	if _, err := Run(cfg); err == nil {
		t.Error("accepted run with no contributed data")
	}
}

func TestValidation(t *testing.T) {
	base := fixture(t, "fmnist", []int{100, 100})
	tests := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"no shards", func(c *Config) { c.Shards = nil }, "no shards"},
		{"fraction count", func(c *Config) { c.Fractions = c.Fractions[:1] }, "fractions"},
		{"missing test", func(c *Config) { c.Test = nil }, "test"},
		{"zero rounds", func(c *Config) { c.Rounds = 0 }, "rounds"},
		{"zero epochs", func(c *Config) { c.LocalEpochs = 0 }, "epochs"},
		{"bad fraction", func(c *Config) { c.Fractions[0] = 1.5 }, "outside"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base
			cfg.Fractions = append([]float64(nil), base.Fractions...)
			tt.mutate(&cfg)
			_, err := Run(cfg)
			if err == nil {
				t.Fatal("Run accepted invalid config")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not mention %q", err, tt.want)
			}
		})
	}
}

func TestShardShapeMismatchRejected(t *testing.T) {
	cfg := fixture(t, "fmnist", []int{100})
	other := fixture(t, "cifar10", []int{100})
	cfg.Shards = append(cfg.Shards, other.Shards[0])
	cfg.Fractions = []float64{1, 1}
	if _, err := Run(cfg); err == nil {
		t.Error("accepted mismatched shard dimensionality")
	}
}

func TestMoreDataHelps(t *testing.T) {
	// The core Fig. 2 property: accuracy at full participation beats
	// accuracy at 10% participation (same seed and rounds).
	cfg := fixture(t, "fmnist", []int{400, 400, 400})
	cfg.Rounds = 12
	var accs [2]float64
	for k, frac := range []float64{0.1, 1.0} {
		cfg.Fractions = []float64{frac, frac, frac}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		accs[k] = res.FinalAccuracy
	}
	if accs[1] <= accs[0] {
		t.Errorf("full data accuracy %v not above 10%% accuracy %v", accs[1], accs[0])
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := fixture(t, "eurosat", []int{150, 150})
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.FinalLoss != b.FinalLoss || a.FinalAccuracy != b.FinalAccuracy {
		t.Error("identical configs produced different results")
	}
}
