// Package fl is the cross-silo federated-learning simulator of TradeFL
// (Sec. III-B): organizations hold local shards, train locally for a few
// epochs, and the server aggregates with FedAvg (Eq. 3), weighting each
// local model by its contributed sample count d_i·|S_i|. It is the
// substrate behind Fig. 2 (the empirical data-accuracy curve) and
// Figs. 13-15 (training efficiency and accuracy under each scheme).
package fl

import (
	"context"
	"errors"
	"fmt"

	"tradefl/internal/fl/dataset"
	"tradefl/internal/fl/model"
	"tradefl/internal/fl/tensor"
	"tradefl/internal/obs"
)

// Config describes one federated training run.
type Config struct {
	// Arch selects the model architecture.
	Arch model.Arch
	// Shards holds each organization's full local dataset S_i.
	Shards []*dataset.Dataset
	// Fractions is d_i per organization; org i contributes the first
	// ⌈d_i·|S_i|⌉ samples of its shard. Length must match Shards.
	Fractions []float64
	// Rounds is the number of federated rounds.
	Rounds int
	// LocalEpochs is the number of local SGD epochs per round.
	LocalEpochs int
	// Test is the held-out evaluation set.
	Test *dataset.Dataset
	// Seed controls model initialization.
	Seed int64
}

// RoundMetrics records the global model's quality after one round.
type RoundMetrics struct {
	Round    int     `json:"round"`
	Loss     float64 `json:"loss"`
	Accuracy float64 `json:"accuracy"`
}

// Result is the outcome of a federated training run.
type Result struct {
	// History holds per-round metrics of the global model on the test set
	// (Figs. 13-14 plot Loss, Fig. 15 plots the final Accuracy).
	History []RoundMetrics
	// FinalAccuracy is History[last].Accuracy.
	FinalAccuracy float64
	// FinalLoss is History[last].Loss.
	FinalLoss float64
	// TotalSamples is Σ ⌈d_i·|S_i|⌉, the data actually trained on.
	TotalSamples int
}

// validate reports the first problem in the config.
func (c *Config) validate() error {
	if len(c.Shards) == 0 {
		return errors.New("fl: no shards")
	}
	if len(c.Fractions) != len(c.Shards) {
		return fmt.Errorf("fl: %d fractions for %d shards", len(c.Fractions), len(c.Shards))
	}
	if c.Test == nil || c.Test.Len() == 0 {
		return errors.New("fl: missing test set")
	}
	if c.Rounds <= 0 {
		return errors.New("fl: rounds must be positive")
	}
	if c.LocalEpochs <= 0 {
		return errors.New("fl: local epochs must be positive")
	}
	dim := c.Test.Dim()
	classes := c.Test.Classes
	for i, s := range c.Shards {
		if s.Dim() != dim || s.Classes != classes {
			return fmt.Errorf("fl: shard %d shape (%d dims, %d classes) differs from test (%d, %d)",
				i, s.Dim(), s.Classes, dim, classes)
		}
		if c.Fractions[i] < 0 || c.Fractions[i] > 1 {
			return fmt.Errorf("fl: fraction[%d] = %v outside [0,1]", i, c.Fractions[i])
		}
	}
	return nil
}

// contributed returns org i's contributed subset, or nil for zero samples.
func (c *Config) contributed(i int) (*dataset.Dataset, error) {
	n := int(c.Fractions[i]*float64(c.Shards[i].Len()) + 0.999999)
	if n <= 0 {
		return nil, nil
	}
	if n > c.Shards[i].Len() {
		n = c.Shards[i].Len()
	}
	return c.Shards[i].Subset(n)
}

// Run executes federated training and returns per-round metrics.
func Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	global, err := model.NewForArch(cfg.Test.Dim(), cfg.Test.Classes, cfg.Arch, cfg.Seed)
	if err != nil {
		return nil, err
	}

	// Materialize contributions once; weights are the contributed counts.
	subsets := make([]*dataset.Dataset, len(cfg.Shards))
	weights := make([]float64, len(cfg.Shards))
	var totalSamples int
	var weightSum float64
	for i := range cfg.Shards {
		sub, err := cfg.contributed(i)
		if err != nil {
			return nil, fmt.Errorf("org %d: %w", i, err)
		}
		subsets[i] = sub
		if sub != nil {
			weights[i] = float64(sub.Len())
			totalSamples += sub.Len()
			weightSum += weights[i]
		}
	}
	if weightSum == 0 {
		return nil, errors.New("fl: no organization contributes any data")
	}

	ctx, root := obs.Span(context.Background(), "fl.run")
	defer root.End()

	res := &Result{TotalSamples: totalSamples}
	for round := 1; round <= cfg.Rounds; round++ {
		_, roundSpan := obs.Span(ctx, "fl.round")

		// Local training on a copy of the global model per contributing
		// organization, then FedAvg over the contributions.
		agg := zerosLike(global.Params())
		for i, sub := range subsets {
			if sub == nil {
				continue
			}
			local := global.Clone()
			if _, err := local.TrainEpochs(sub, cfg.LocalEpochs, cfg.Arch.LearningRate, cfg.Arch.BatchSize); err != nil {
				roundSpan.End()
				return nil, fmt.Errorf("round %d org %d: %w", round, i, err)
			}
			for p, mat := range local.Params() {
				if err := agg[p].AXPY(weights[i]/weightSum, mat); err != nil {
					roundSpan.End()
					return nil, err
				}
			}
		}
		if err := global.SetParams(agg); err != nil {
			roundSpan.End()
			return nil, err
		}
		loss, err := global.Loss(cfg.Test)
		if err != nil {
			roundSpan.End()
			return nil, err
		}
		acc, err := global.Accuracy(cfg.Test)
		if err != nil {
			roundSpan.End()
			return nil, err
		}
		res.History = append(res.History, RoundMetrics{Round: round, Loss: loss, Accuracy: acc})
		mRounds.Inc()
		roundSpan.End()
	}
	last := res.History[len(res.History)-1]
	res.FinalLoss = last.Loss
	res.FinalAccuracy = last.Accuracy
	publishHistory(res.History)
	return res, nil
}

// zerosLike allocates zero matrices with the shapes of params.
func zerosLike(params []*tensor.Matrix) []*tensor.Matrix {
	out := make([]*tensor.Matrix, len(params))
	for i, p := range params {
		out[i] = tensor.New(p.Rows, p.Cols)
	}
	return out
}
