// Package core orchestrates the full TradeFL mechanism: it solves the
// coopetition game for the optimal resource contribution (CGBD, local DBR
// or distributed DBR), optionally trains the federated model with the
// equilibrium data fractions, and settles the payoff redistribution through
// the on-chain smart contract — the end-to-end pipeline of Figs. 1 and 3.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"tradefl/internal/baselines"
	"tradefl/internal/chain"
	"tradefl/internal/dbr"
	"tradefl/internal/fl"
	"tradefl/internal/fl/dataset"
	"tradefl/internal/fl/model"
	"tradefl/internal/game"
	"tradefl/internal/gbd"
)

// Solver selects the equilibrium algorithm.
type Solver int

// Solver choices.
const (
	// SolverDBR is the distributed best-response algorithm (Algorithm 2),
	// run locally.
	SolverDBR Solver = iota + 1
	// SolverCGBD is the centralized GBD algorithm (Algorithm 1).
	SolverCGBD
	// SolverDistributedDBR runs Algorithm 2 as a true message-passing
	// protocol with one node per organization.
	SolverDistributedDBR
)

// Options configures a mechanism run.
type Options struct {
	// Solver selects the equilibrium algorithm (default SolverDBR).
	Solver Solver
	// Settle enables on-chain settlement of the redistribution.
	Settle bool
	// Train enables federated training with the equilibrium fractions.
	Train bool
	// TrainDataset and TrainArch select the FL workload when Train is set
	// (defaults "svhn"/"mobilenet").
	TrainDataset, TrainArch string
	// Rounds and LocalEpochs configure FL training (defaults 20/2).
	Rounds, LocalEpochs int
	// Seed drives chain account generation and FL data (default 1).
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Solver == 0 {
		o.Solver = SolverDBR
	}
	if o.TrainDataset == "" {
		o.TrainDataset = "svhn"
	}
	if o.TrainArch == "" {
		o.TrainArch = "mobilenet"
	}
	if o.Rounds == 0 {
		o.Rounds = 20
	}
	if o.LocalEpochs == 0 {
		o.LocalEpochs = 2
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// SettlementReport summarizes the on-chain settlement.
type SettlementReport struct {
	// Transfers is R_i per organization in tokens, as executed on-chain.
	Transfers []float64 `json:"transfers"`
	// BlockHeight is the chain height after settlement.
	BlockHeight uint64 `json:"blockHeight"`
	// Records is the number of profileRecord entries.
	Records int `json:"records"`
	// Verified is true when the full chain re-validated after settlement.
	Verified bool `json:"verified"`
}

// Result is the outcome of one mechanism run.
type Result struct {
	// Profile is the equilibrium strategy profile π^NE.
	Profile game.Profile
	// Payoffs is C_i(π^NE) per organization.
	Payoffs []float64
	// SocialWelfare is Σ C_i.
	SocialWelfare float64
	// Potential is U(π^NE).
	Potential float64
	// Nash is the equilibrium audit.
	Nash game.NashReport
	// Settlement is non-nil when Options.Settle was set.
	Settlement *SettlementReport
	// Training is non-nil when Options.Train was set.
	Training *fl.Result
}

// Mechanism is a configured TradeFL instance.
type Mechanism struct {
	cfg *game.Config
}

// New validates the game config and returns a mechanism.
func New(cfg *game.Config) (*Mechanism, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("tradefl: %w", err)
	}
	return &Mechanism{cfg: cfg}, nil
}

// Config returns the underlying game configuration.
func (m *Mechanism) Config() *game.Config { return m.cfg }

// Run executes the mechanism end to end.
func (m *Mechanism) Run(ctx context.Context, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	profile, payoffs, potential, err := m.solve(ctx, opts)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Profile:       profile,
		Payoffs:       payoffs,
		SocialWelfare: game.Welfare(payoffs),
		Potential:     potential,
		Nash:          m.cfg.CheckNash(profile, 50, 1e-2),
	}
	if opts.Train {
		training, err := m.train(profile, opts)
		if err != nil {
			return nil, fmt.Errorf("tradefl: training: %w", err)
		}
		res.Training = training
	}
	if opts.Settle {
		_, settlement, err := m.settleChain(profile, opts)
		if err != nil {
			return nil, fmt.Errorf("tradefl: settlement: %w", err)
		}
		res.Settlement = settlement
	}
	return res, nil
}

// solve returns the equilibrium profile with its payoffs and potential,
// taken from the solver where it already evaluated them on that profile.
func (m *Mechanism) solve(ctx context.Context, opts Options) (p game.Profile, payoffs []float64, potential float64, err error) {
	switch opts.Solver {
	case SolverCGBD:
		r, err := gbd.Solve(m.cfg, gbd.Options{})
		if err != nil {
			return nil, nil, 0, fmt.Errorf("tradefl: cgbd: %w", err)
		}
		return r.Profile, m.cfg.Payoffs(r.Profile), r.Potential, nil
	case SolverDistributedDBR:
		p, err := dbr.SolveDistributed(ctx, m.cfg, dbr.Options{})
		if err != nil {
			return nil, nil, 0, fmt.Errorf("tradefl: distributed dbr: %w", err)
		}
		return p, m.cfg.Payoffs(p), m.cfg.Potential(p), nil
	case SolverDBR:
		r, err := dbr.Solve(m.cfg, nil, dbr.Options{})
		if err != nil {
			return nil, nil, 0, fmt.Errorf("tradefl: dbr: %w", err)
		}
		payoffs, potential := r.Final()
		return r.Profile, payoffs, potential, nil
	default:
		return nil, nil, 0, fmt.Errorf("tradefl: unknown solver %d", opts.Solver)
	}
}

// train runs FedAvg with the equilibrium data fractions. Each organization's
// shard size is its |S_i| from the game config.
func (m *Mechanism) train(profile game.Profile, opts Options) (*fl.Result, error) {
	spec, err := dataset.SpecByName(opts.TrainDataset)
	if err != nil {
		return nil, err
	}
	gen, err := dataset.NewGenerator(spec, opts.Seed)
	if err != nil {
		return nil, err
	}
	sizes := make([]int, m.cfg.N())
	fractions := make([]float64, m.cfg.N())
	for i, o := range m.cfg.Orgs {
		sizes[i] = int(o.Samples)
		fractions[i] = profile[i].D
	}
	shards, err := gen.Partition(sizes)
	if err != nil {
		return nil, err
	}
	test, err := gen.Sample(2000)
	if err != nil {
		return nil, err
	}
	arch, err := model.ArchByName(opts.TrainArch)
	if err != nil {
		return nil, err
	}
	return fl.Run(fl.Config{
		Arch:        arch,
		Shards:      shards,
		Fractions:   fractions,
		Rounds:      opts.Rounds,
		LocalEpochs: opts.LocalEpochs,
		Test:        test,
		Seed:        opts.Seed,
	})
}

// settleChain runs the full Fig. 3 lifecycle of chain.NewSettlement on a
// fresh private chain and cross-checks the calculated payoffs against the
// game's R_i; it returns the chain it settled on beside the report. Each
// signed stage is admitted with one SubmitTxBatch call — signatures
// verified on the worker pool, one lock hold — then sealed into its own
// block.
func (m *Mechanism) settleChain(profile game.Profile, opts Options) (*chain.Blockchain, *SettlementReport, error) {
	s, err := chain.NewSettlement(m.cfg, opts.Seed)
	if err != nil {
		return nil, nil, err
	}
	stages, err := s.Stages(profile)
	if err != nil {
		return nil, nil, err
	}
	bc, err := chain.NewBlockchain(s.Authority, s.Params, s.Alloc)
	if err != nil {
		return nil, nil, err
	}
	var payoffs []chain.Wei
	for k, name := range [4]string{"deposit", "contribution", "calculate", "settle"} {
		results, err := bc.SubmitTxBatch(stages[k])
		if err != nil {
			return nil, nil, err
		}
		for _, r := range results {
			if !r.OK {
				return nil, nil, fmt.Errorf("%s: %s", name, r.Error)
			}
		}
		b, err := bc.SealBlock()
		if err != nil {
			return nil, nil, err
		}
		for _, r := range b.Receipts {
			if !r.OK {
				return nil, nil, fmt.Errorf("%s: %s", name, r.Error)
			}
		}
		if name != "calculate" {
			continue
		}
		// Cross-check contract math against the game's R_i before paying out.
		if err := bc.ContractView(func(c *chain.Contract) (err error) {
			payoffs, err = c.Payoffs()
			return err
		}); err != nil {
			return nil, nil, err
		}
		for i, w := range payoffs {
			want := m.cfg.Redistribution(i, profile)
			if got := chain.FromWei(w); math.Abs(got-want) > 1e-3*math.Max(1, math.Abs(want)) {
				return nil, nil, fmt.Errorf("on-chain payoff[%d] = %v, game R_i = %v", i, got, want)
			}
		}
	}
	if err := bc.VerifyChain(); err != nil {
		return nil, nil, fmt.Errorf("chain verification: %w", err)
	}
	report := &SettlementReport{
		Transfers:   make([]float64, len(payoffs)),
		BlockHeight: bc.Height(),
		Verified:    true,
	}
	for i := range payoffs {
		report.Transfers[i] = chain.FromWei(payoffs[i])
	}
	if err := bc.ContractView(func(c *chain.Contract) error {
		report.Records = len(c.SortedRecords())
		return nil
	}); err != nil {
		return nil, nil, err
	}
	return bc, report, nil
}

// CompareSchemes runs every scheme of Sec. VI on the config and returns
// their outcomes keyed by scheme — the core of Figs. 4, 6, 8 and 9.
func (m *Mechanism) CompareSchemes() (map[baselines.Scheme]*baselines.Outcome, error) {
	out := make(map[baselines.Scheme]*baselines.Outcome, 6)
	cres, err := gbd.Solve(m.cfg, gbd.Options{})
	if err != nil && !errors.Is(err, gbd.ErrInfeasible) {
		return nil, fmt.Errorf("cgbd: %w", err)
	}
	if err == nil {
		out[baselines.SchemeCGBD] = &baselines.Outcome{
			Scheme:         baselines.SchemeCGBD,
			Profile:        cres.Profile,
			PotentialTrace: cres.PotentialTrace,
			Converged:      cres.Converged,
			Rounds:         cres.Iterations,
		}
	}
	dres, err := dbr.Solve(m.cfg, nil, dbr.Options{})
	if err != nil {
		return nil, fmt.Errorf("dbr: %w", err)
	}
	out[baselines.SchemeDBR] = &baselines.Outcome{
		Scheme:         baselines.SchemeDBR,
		Profile:        dres.Profile,
		PotentialTrace: dres.PotentialTrace,
		Converged:      dres.Converged,
		Rounds:         dres.Rounds,
	}
	w, err := baselines.WPR(m.cfg)
	if err != nil {
		return nil, fmt.Errorf("wpr: %w", err)
	}
	out[baselines.SchemeWPR] = w
	g, err := baselines.GCA(m.cfg)
	if err != nil {
		return nil, fmt.Errorf("gca: %w", err)
	}
	out[baselines.SchemeGCA] = g
	f, err := baselines.FIP(m.cfg)
	if err != nil {
		return nil, fmt.Errorf("fip: %w", err)
	}
	out[baselines.SchemeFIP] = f
	out[baselines.SchemeTOS] = baselines.TOS(m.cfg)
	return out, nil
}
