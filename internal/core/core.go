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
	"tradefl/internal/randx"
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
	// Async trains with asynchronous aggregation (footnote 2): each
	// organization updates at the cadence implied by its own equilibrium
	// round time T1 + T2(d, f) + T3, and updates merge staleness-weighted.
	Async bool
	// Rounds and LocalEpochs configure FL training (defaults 20/2).
	Rounds, LocalEpochs int
	// Seed drives chain account generation and FL data (default 1).
	Seed int64
	// DBR passes through Algorithm 2 options.
	DBR dbr.Options
	// GBD passes through Algorithm 1 options.
	GBD gbd.Options
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
		r, err := gbd.Solve(m.cfg, opts.GBD)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("tradefl: cgbd: %w", err)
		}
		return r.Profile, m.cfg.Payoffs(r.Profile), r.Potential, nil
	case SolverDistributedDBR:
		p, err := dbr.SolveDistributed(ctx, m.cfg, opts.DBR)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("tradefl: distributed dbr: %w", err)
		}
		return p, m.cfg.Payoffs(p), m.cfg.Potential(p), nil
	case SolverDBR:
		r, err := dbr.Solve(m.cfg, nil, opts.DBR)
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
	flCfg := fl.Config{
		Arch:        arch,
		Shards:      shards,
		Fractions:   fractions,
		Rounds:      opts.Rounds,
		LocalEpochs: opts.LocalEpochs,
		Test:        test,
		Seed:        opts.Seed,
	}
	if !opts.Async {
		return fl.Run(flCfg)
	}
	// Asynchronous mode: each organization's cadence is its equilibrium
	// round time from the game's own timing model.
	roundTimes := make([]float64, m.cfg.N())
	for i, o := range m.cfg.Orgs {
		roundTimes[i] = o.Comm.RoundTime(profile[i].D, o.DataBits, profile[i].F)
	}
	return fl.RunAsync(fl.AsyncConfig{
		Config:      flCfg,
		RoundTimes:  roundTimes,
		Horizon:     m.cfg.Deadline * float64(opts.Rounds),
		Evaluations: opts.Rounds,
	})
}

// settleChain runs the full Fig. 3 lifecycle on a fresh private chain and
// cross-checks the executed transfers against the game's R_i; it returns
// the chain it settled on beside the report. Each lifecycle stage is signed
// into one slice and admitted with one SubmitTxBatch call — signatures
// verified on the worker pool, one lock hold — then sealed into its own
// block.
func (m *Mechanism) settleChain(profile game.Profile, opts Options) (*chain.Blockchain, *SettlementReport, error) {
	src := randx.New(opts.Seed)
	authority, err := chain.NewAccount(src)
	if err != nil {
		return nil, nil, err
	}
	n := m.cfg.N()
	accounts := make([]*chain.Account, n)
	members := make([]chain.Address, n)
	bits := make([]float64, n)
	alloc := chain.GenesisAlloc{}
	fMax := 0.0
	for i, o := range m.cfg.Orgs {
		accounts[i], err = chain.NewAccount(src)
		if err != nil {
			return nil, nil, err
		}
		members[i] = accounts[i].Address()
		bits[i] = m.cfg.DataCredit(i) // quality-weighted: matches the game's x_i
		if top := o.CPULevels[len(o.CPULevels)-1]; top > fMax {
			fMax = top
		}
	}
	params := chain.ContractParams{
		Members:  members,
		Rho:      m.cfg.Rho,
		DataBits: bits,
		Gamma:    m.cfg.Gamma,
		Lambda:   m.cfg.Lambda,
	}
	deposits := make([]chain.Wei, n)
	for i := range accounts {
		deposits[i] = chain.MinDeposit(params, i, fMax)
		alloc[members[i]] = deposits[i] * 2
	}
	bc, err := chain.NewBlockchain(authority, params, alloc)
	if err != nil {
		return nil, nil, err
	}
	nonces := make([]uint64, n)
	stage := make([]chain.Transaction, 0, 2*n)
	sign := func(i int, fn chain.Function, args any, value chain.Wei) error {
		tx, err := chain.NewTransaction(accounts[i], nonces[i], fn, args, value)
		if err != nil {
			return err
		}
		nonces[i]++
		stage = append(stage, *tx)
		return nil
	}
	// submitSeal admits the signed stage as one batch and seals it; the
	// chain keeps its own copies, so the slice is reused for the next stage.
	submitSeal := func(name string) error {
		results, err := bc.SubmitTxBatch(stage)
		if err != nil {
			return err
		}
		for _, r := range results {
			if !r.OK {
				return fmt.Errorf("%s: %s", name, r.Error)
			}
		}
		stage = stage[:0]
		b, err := bc.SealBlock()
		if err != nil {
			return err
		}
		for _, r := range b.Receipts {
			if !r.OK {
				return fmt.Errorf("%s: %s", name, r.Error)
			}
		}
		return nil
	}
	for i := range accounts {
		if err := sign(i, chain.FnDepositSubmit, nil, deposits[i]); err != nil {
			return nil, nil, err
		}
	}
	if err := submitSeal("deposit"); err != nil {
		return nil, nil, err
	}
	for i := range accounts {
		contrib := chain.Contribution{D: profile[i].D, F: profile[i].F}
		if err := sign(i, chain.FnContributionSubmit, contrib, 0); err != nil {
			return nil, nil, err
		}
	}
	if err := submitSeal("contribution"); err != nil {
		return nil, nil, err
	}
	if err := sign(0, chain.FnPayoffCalculate, nil, 0); err != nil {
		return nil, nil, err
	}
	if err := submitSeal("calculate"); err != nil {
		return nil, nil, err
	}
	var payoffs []chain.Wei
	if err := bc.ContractView(func(c *chain.Contract) error {
		p, err := c.Payoffs()
		payoffs = p
		return err
	}); err != nil {
		return nil, nil, err
	}
	// Cross-check contract math against the game's R_i.
	for i := range accounts {
		want := m.cfg.Redistribution(i, profile)
		if got := chain.FromWei(payoffs[i]); math.Abs(got-want) > 1e-3*math.Max(1, math.Abs(want)) {
			return nil, nil, fmt.Errorf("on-chain payoff[%d] = %v, game R_i = %v", i, got, want)
		}
	}
	for i := range accounts {
		if err := sign(i, chain.FnPayoffTransfer, nil, 0); err != nil {
			return nil, nil, err
		}
		if err := sign(i, chain.FnProfileRecord, nil, 0); err != nil {
			return nil, nil, err
		}
	}
	if err := submitSeal("settle"); err != nil {
		return nil, nil, err
	}
	if err := bc.VerifyChain(); err != nil {
		return nil, nil, fmt.Errorf("chain verification: %w", err)
	}
	report := &SettlementReport{
		Transfers:   make([]float64, n),
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
	w, err := baselines.WPR(m.cfg, dbr.Options{})
	if err != nil {
		return nil, fmt.Errorf("wpr: %w", err)
	}
	out[baselines.SchemeWPR] = w
	g, err := baselines.GCA(m.cfg, baselines.GCAOptions{})
	if err != nil {
		return nil, fmt.Errorf("gca: %w", err)
	}
	out[baselines.SchemeGCA] = g
	f, err := baselines.FIP(m.cfg, baselines.FIPOptions{})
	if err != nil {
		return nil, fmt.Errorf("fip: %w", err)
	}
	out[baselines.SchemeFIP] = f
	out[baselines.SchemeTOS] = baselines.TOS(m.cfg)
	return out, nil
}
