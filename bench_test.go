package tradefl

// bench_test.go regenerates every table and figure of the paper's
// evaluation (Sec. VI) as Go benchmarks: each BenchmarkFigN/BenchmarkTableN
// runs the corresponding experiment generator end to end (quick
// resolution) and reports headline metrics via b.ReportMetric, so
// `go test -bench=. -benchmem` doubles as the reproduction harness.
// cmd/tradefl-sim produces the full-resolution series.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"tradefl/internal/accuracy"
	"tradefl/internal/baselines"
	"tradefl/internal/chain"
	"tradefl/internal/core"
	"tradefl/internal/dbr"
	"tradefl/internal/experiments"
	"tradefl/internal/fl"
	"tradefl/internal/fl/dataset"
	"tradefl/internal/fl/model"
	"tradefl/internal/fl/tensor"
	"tradefl/internal/fleet"
	"tradefl/internal/game"
	"tradefl/internal/gbd"
	"tradefl/internal/randx"
)

// benchFigure runs one experiment generator per iteration.
func benchFigure(b *testing.B, id string) *experiments.Figure {
	b.Helper()
	b.ReportAllocs()
	var fig *experiments.Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = experiments.Run(id, experiments.Options{Seed: 7, Quick: true})
		if err != nil {
			b.Fatalf("experiment %s: %v", id, err)
		}
	}
	return fig
}

// lastY returns the final y of the named series (0 if absent).
func lastY(fig *experiments.Figure, name string) float64 {
	s := fig.SeriesByName(name)
	if s == nil || len(s.Y) == 0 {
		return 0
	}
	return s.Y[len(s.Y)-1]
}

func BenchmarkTableI_Contract(b *testing.B) {
	fig := benchFigure(b, "table1")
	b.ReportMetric(float64(len(fig.Series)), "abi-functions")
}

func BenchmarkFig2_DataAccuracy(b *testing.B) {
	fig := benchFigure(b, "fig2")
	b.ReportMetric(lastY(fig, fig.Series[len(fig.Series)-1].Name), "P(d=1)")
}

func BenchmarkFig4_PotentialDynamics(b *testing.B) {
	fig := benchFigure(b, "fig4")
	b.ReportMetric(lastY(fig, "CGBD"), "U-cgbd")
	b.ReportMetric(lastY(fig, "DBR"), "U-dbr")
}

func BenchmarkFig5_PayoffDynamics(b *testing.B) {
	fig := benchFigure(b, "fig5")
	b.ReportMetric(float64(len(fig.Series[0].X)), "sweeps")
}

func BenchmarkFig6_SocialWelfare(b *testing.B) {
	fig := benchFigure(b, "fig6")
	b.ReportMetric(lastY(fig, "DBR"), "welfare-dbr")
	b.ReportMetric(lastY(fig, "TOS"), "welfare-tos")
}

func BenchmarkFig7_GammaWelfareDBR(b *testing.B) {
	fig := benchFigure(b, "fig7")
	peak := 0.0
	for _, y := range fig.Series[0].Y {
		if y > peak {
			peak = y
		}
	}
	b.ReportMetric(peak, "peak-welfare")
}

func BenchmarkFig8_GammaWelfareSchemes(b *testing.B) {
	fig := benchFigure(b, "fig8")
	b.ReportMetric(lastY(fig, "DBR"), "welfare-dbr-maxgamma")
}

func BenchmarkFig9_GammaDamage(b *testing.B) {
	fig := benchFigure(b, "fig9")
	b.ReportMetric(lastY(fig, "DBR"), "damage-dbr-maxgamma")
}

func BenchmarkFig10_GammaMuWelfare(b *testing.B) {
	fig := benchFigure(b, "fig10")
	b.ReportMetric(float64(len(fig.Series)), "mu-curves")
}

func BenchmarkFig11_MuOverheadWelfare(b *testing.B) {
	fig := benchFigure(b, "fig11")
	b.ReportMetric(float64(len(fig.Series)), "weight-curves")
}

func BenchmarkFig12_DataContribution(b *testing.B) {
	fig := benchFigure(b, "fig12")
	b.ReportMetric(lastY(fig, "data:DBR"), "dbr-data-maxgamma")
}

func BenchmarkFig13_TrainingLoss(b *testing.B) {
	fig := benchFigure(b, "fig13")
	b.ReportMetric(lastY(fig, fig.Series[0].Name), "final-loss-dbr")
}

func BenchmarkFig14_TrainingLossSecond(b *testing.B) {
	fig := benchFigure(b, "fig14")
	b.ReportMetric(lastY(fig, fig.Series[0].Name), "final-loss-dbr")
}

func BenchmarkFig15_Accuracy(b *testing.B) {
	fig := benchFigure(b, "fig15")
	b.ReportMetric(lastY(fig, "mobilenet-svhn:DBR"), "acc-dbr")
	b.ReportMetric(lastY(fig, "mobilenet-svhn:GCA"), "acc-gca")
}

// --- Ablation benches (DESIGN.md §5) -----------------------------------

// BenchmarkAblation_MasterSolvers compares the paper's exhaustive traversal
// against the pruned depth-first master-problem solver on the default N=10
// instance and at N=16.
func BenchmarkAblation_MasterSolvers(b *testing.B) {
	for _, tc := range []struct {
		name     string
		master   gbd.MasterSolver
		n        int
		cpuSteps int
	}{
		{"traversal/N=10", gbd.MasterTraversal, 10, 0},
		{"pruned/N=10", gbd.MasterPruned, 10, 0},
		// N=16: the exhaustive traversal uses a 2-level grid (2^16 points
		// per master solve; 3^16 is out of reach), the pruned master the
		// default 3 levels.
		{"traversal/N=16", gbd.MasterTraversal, 16, 2},
		{"pruned/N=16", gbd.MasterPruned, 16, 3},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			cfg, err := game.DefaultConfig(game.GenOptions{Seed: 7, N: tc.n, CPUSteps: tc.cpuSteps, NoOrgName: true})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := gbd.Solve(cfg, gbd.Options{Master: tc.master}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchWorkerCounts returns {1} on a single-core host and {1, GOMAXPROCS}
// otherwise, so the serial and parallel matmul kernels are only both timed
// when they can actually differ.
func benchWorkerCounts() []int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return []int{1, n}
	}
	return []int{1}
}

// BenchmarkAblation_AccuracyModels runs DBR under every data-accuracy form,
// demonstrating the mechanism's independence from the functional form.
func BenchmarkAblation_AccuracyModels(b *testing.B) {
	models := map[string]func() (accuracy.Model, error){
		"sqrt-loss": func() (accuracy.Model, error) {
			return accuracy.NewScaled(accuracy.NewSqrtLoss(5, 1.1), 1000)
		},
		"power-law": func() (accuracy.Model, error) {
			return accuracy.NewPowerLaw(0.2, 0.35)
		},
		"log-saturation": func() (accuracy.Model, error) {
			return accuracy.NewLogSaturation(0.12, 800)
		},
	}
	for name, mk := range models {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			model, err := mk()
			if err != nil {
				b.Fatal(err)
			}
			cfg, err := game.DefaultConfig(game.GenOptions{Seed: 7, Accuracy: model, NoOrgName: true})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := dbr.Solve(cfg, nil, dbr.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Converged {
					b.Fatal("did not converge")
				}
			}
		})
	}
}

// BenchmarkAblation_Solvers compares the three equilibrium solvers on the
// same instance.
func BenchmarkAblation_Solvers(b *testing.B) {
	for _, tc := range []struct {
		name   string
		solver core.Solver
	}{
		{"dbr", core.SolverDBR},
		{"cgbd", core.SolverCGBD},
		{"distributed-dbr", core.SolverDistributedDBR},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			cfg, err := game.DefaultConfig(game.GenOptions{Seed: 7, NoOrgName: true})
			if err != nil {
				b.Fatal(err)
			}
			m, err := core.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Run(ctx, core.Options{Solver: tc.solver}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Micro benches on hot paths -----------------------------------------

func BenchmarkPayoffs(b *testing.B) {
	b.ReportAllocs()
	cfg, err := game.DefaultConfig(game.GenOptions{Seed: 7, NoOrgName: true})
	if err != nil {
		b.Fatal(err)
	}
	p := cfg.MinimalProfile()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cfg.Payoffs(p)
	}
}

func BenchmarkBestResponse(b *testing.B) {
	// The pooled entry point at the default N=10: engine reset, bind, scan.
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		cfg, err := game.DefaultConfig(game.GenOptions{Seed: 7, NoOrgName: true})
		if err != nil {
			b.Fatal(err)
		}
		p := cfg.MinimalProfile()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, ok := dbr.BestResponse(cfg, p, i%cfg.N(), 1e-7); !ok {
				b.Fatal("no feasible response")
			}
		}
	})
	// N=16 on a bound engine: the steady state of a DBR sweep.
	b.Run("N=16", func(b *testing.B) {
		b.ReportAllocs()
		cfg, err := game.DefaultConfig(game.GenOptions{Seed: 7, N: 16, NoOrgName: true})
		if err != nil {
			b.Fatal(err)
		}
		p := cfg.MinimalProfile()
		eng := dbr.NewEngine(cfg)
		eng.Bind(p)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, ok := eng.BestResponse(i%cfg.N(), 1e-7); !ok {
				b.Fatal("no feasible response")
			}
		}
	})
}

func BenchmarkSettlement(b *testing.B) {
	b.ReportAllocs()
	cfg, err := game.DefaultConfig(game.GenOptions{Seed: 7, NoOrgName: true})
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := m.Run(ctx, core.Options{Settle: true})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Settlement.Verified {
			b.Fatal("settlement not verified")
		}
	}
}

// BenchmarkSchemes runs each scheme once per iteration (the building block
// of Figs. 6, 8, 9).
func BenchmarkSchemes(b *testing.B) {
	cfg, err := game.DefaultConfig(game.GenOptions{Seed: 7, NoOrgName: true})
	if err != nil {
		b.Fatal(err)
	}
	runs := map[string]func() error{
		"DBR": func() error { _, err := dbr.Solve(cfg, nil, dbr.Options{}); return err },
		"WPR": func() error { _, err := baselines.WPR(cfg); return err },
		"GCA": func() error { _, err := baselines.GCA(cfg); return err },
		"FIP": func() error { _, err := baselines.FIP(cfg); return err },
		"TOS": func() error { baselines.TOS(cfg); return nil },
	}
	for name, run := range runs {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_NonIID compares FedAvg under IID shards (the paper's
// footnote-4 assumption) against Dirichlet label-skewed shards — the
// realistic cross-silo setting the assumption abstracts away.
func BenchmarkAblation_NonIID(b *testing.B) {
	spec, err := dataset.SpecByName("svhn")
	if err != nil {
		b.Fatal(err)
	}
	arch, err := model.ArchByName("mobilenet")
	if err != nil {
		b.Fatal(err)
	}
	sizes := []int{300, 300, 300, 300}
	for _, tc := range []struct {
		name  string
		alpha float64 // 0 means IID
	}{
		{"iid", 0},
		{"dirichlet-0.1", 0.1},
		{"dirichlet-1.0", 1.0},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var acc float64
			for i := 0; i < b.N; i++ {
				gen, err := dataset.NewGenerator(spec, 7)
				if err != nil {
					b.Fatal(err)
				}
				var shards []*dataset.Dataset
				if tc.alpha == 0 {
					shards, err = gen.Partition(sizes)
				} else {
					shards, err = gen.PartitionNonIID(sizes, tc.alpha)
				}
				if err != nil {
					b.Fatal(err)
				}
				test, err := gen.Sample(1000)
				if err != nil {
					b.Fatal(err)
				}
				res, err := fl.Run(fl.Config{
					Arch:      arch,
					Shards:    shards,
					Fractions: []float64{1, 1, 1, 1},
					Rounds:    8, LocalEpochs: 2, Test: test, Seed: 7,
				})
				if err != nil {
					b.Fatal(err)
				}
				acc = res.FinalAccuracy
			}
			b.ReportMetric(acc, "final-acc")
		})
	}
}

// BenchmarkAblation_DataQuality runs DBR with heterogeneous data quality
// (footnote 3 made a parameter): low-quality organizations earn less
// redistribution credit per contributed byte and equilibrium contribution
// shifts toward high-quality data.
func BenchmarkAblation_DataQuality(b *testing.B) {
	for _, tc := range []struct {
		name    string
		quality func(i int) float64
	}{
		{"uniform-1.0", func(i int) float64 { return 1 }},
		{"half-low-0.4", func(i int) float64 {
			if i%2 == 0 {
				return 0.4
			}
			return 1
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			cfg, err := game.DefaultConfig(game.GenOptions{Seed: 7, NoOrgName: true})
			if err != nil {
				b.Fatal(err)
			}
			for i := range cfg.Orgs {
				cfg.Orgs[i].Quality = tc.quality(i)
			}
			var lowD, highD float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := dbr.Solve(cfg, nil, dbr.Options{})
				if err != nil {
					b.Fatal(err)
				}
				lowD, highD = 0, 0
				for k, s := range res.Profile {
					if cfg.Orgs[k].Quality != 0 && cfg.Orgs[k].Quality < 1 {
						lowD += s.D
					} else {
						highD += s.D
					}
				}
			}
			b.ReportMetric(lowD, "low-quality-data")
			b.ReportMetric(highD, "high-quality-data")
		})
	}
}

// --- Substrate microbenches ---------------------------------------------

// BenchmarkChainSettlementThroughput measures sealed transactions per
// second through a full deposit block.
func BenchmarkChainTxThroughput(b *testing.B) {
	b.ReportAllocs()
	src := randx.New(1)
	authority, err := chain.NewAccount(src)
	if err != nil {
		b.Fatal(err)
	}
	const members = 16
	accounts := make([]*chain.Account, members)
	addrs := make([]chain.Address, members)
	rho := make([][]float64, members)
	bits := make([]float64, members)
	alloc := chain.GenesisAlloc{}
	for i := range accounts {
		accounts[i], err = chain.NewAccount(src)
		if err != nil {
			b.Fatal(err)
		}
		addrs[i] = accounts[i].Address()
		rho[i] = make([]float64, members)
		bits[i] = 2e10
		alloc[addrs[i]] = 1 << 40
	}
	params := chain.ContractParams{Members: addrs, Rho: rho, DataBits: bits, Gamma: 1e-8, Lambda: 0.1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bc, err := chain.NewBlockchain(authority, params, alloc)
		if err != nil {
			b.Fatal(err)
		}
		for k, acct := range accounts {
			tx, err := chain.NewTransaction(acct, 0, chain.FnDepositSubmit, nil, chain.Wei(1000+k))
			if err != nil {
				b.Fatal(err)
			}
			if err := bc.SubmitTx(*tx); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := bc.SealBlock(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(members), "txs/block")
}

// BenchmarkTensorMatMul measures the dense kernel the FL simulator spends
// most of its time in, at two sizes and both worker settings (row-parallel
// dispatch engages above the flop threshold; results are byte-identical).
func BenchmarkTensorMatMul(b *testing.B) {
	for _, size := range []int{64, 256} {
		for _, workers := range benchWorkerCounts() {
			b.Run(fmt.Sprintf("n=%d/workers=%d", size, workers), func(b *testing.B) {
				b.ReportAllocs()
				defer tensor.SetWorkers(0)
				tensor.SetWorkers(workers)
				src := randx.New(2)
				a := tensor.New(size, size)
				c := tensor.New(size, size)
				dst := tensor.New(size, size)
				a.RandomizeXavier(src)
				c.RandomizeXavier(src)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := tensor.MatMul(dst, a, c); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// sinkFloat keeps a benchmarked pure call from being compiled away.
var sinkFloat float64

// BenchmarkPotential measures the potential evaluation on the hot path of
// both solvers.
func BenchmarkPotential(b *testing.B) {
	cfg, err := game.DefaultConfig(game.GenOptions{Seed: 7, NoOrgName: true})
	if err != nil {
		b.Fatal(err)
	}
	p := cfg.MinimalProfile()
	b.Run("config", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkFloat = cfg.Potential(p)
		}
	})
	// The bound evaluator, where a DBR solve reads its per-sweep trace.
	b.Run("engine", func(b *testing.B) {
		b.ReportAllocs()
		ev := game.NewDeltaEvaluator(cfg)
		ev.Bind(p)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkFloat = ev.Potential()
		}
	})
}

// BenchmarkTuneGamma measures the automated γ* search.
func BenchmarkTuneGamma(b *testing.B) {
	b.ReportAllocs()
	cfg, err := game.DefaultConfig(game.GenOptions{Seed: 7, NoOrgName: true})
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var gamma float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := m.TuneGamma()
		if err != nil {
			b.Fatal(err)
		}
		gamma = res.Gamma
	}
	b.ReportMetric(gamma*1e9, "gamma*-e9")
}

// fleetBenchCorpus builds the 1024-instance mixed-N batch of the fleet
// throughput benchmark: organization counts cycle through both sides of
// the planner's crossover at N = 6. The pruned master wins the two small
// sizes by a few µs and loses the four large ones by up to 100×, so
// plan=pruned is the wrong fixed plan and plan=dbr a near-tie with auto.
func fleetBenchCorpus(b *testing.B, n int) []*game.Config {
	b.Helper()
	sizes := []int{4, 6, 8, 10, 12, 16}
	cfgs := make([]*game.Config, n)
	for i := range cfgs {
		cfg, err := game.DefaultConfig(game.GenOptions{
			N: sizes[i%len(sizes)], Seed: int64(i + 1), CPUSteps: 3, NoOrgName: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		cfgs[i] = cfg
	}
	return cfgs
}

// BenchmarkFleetSolve measures batch solving of 1024 mixed-N instances:
// the naive baseline (a sequential loop over the canonical per-instance
// CGBD solve, the pre-fleet idiom) against the fleet engine under the
// auto planner and under each fixed plan. The acceptance floor (auto ≥ 3×
// naive solves/sec, auto within 20% of the best fixed plan) is gated by
// scripts/benchcmp fleet-gate in ci.sh.
func BenchmarkFleetSolve(b *testing.B) {
	const instances = 1024
	b.Run("naive-sequential", func(b *testing.B) {
		b.ReportAllocs()
		cfgs := fleetBenchCorpus(b, instances)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, cfg := range cfgs {
				if _, err := gbd.Solve(cfg, gbd.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(instances*b.N)/b.Elapsed().Seconds(), "solves/sec")
	})
	for _, plan := range []fleet.Plan{fleet.PlanAuto, fleet.PlanDBR, fleet.PlanPruned} {
		b.Run("plan="+plan.String(), func(b *testing.B) {
			b.ReportAllocs()
			cfgs := fleetBenchCorpus(b, instances)
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng := fleet.New(fleet.Options{Plan: plan})
				for _, r := range eng.Solve(ctx, cfgs) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
			b.ReportMetric(float64(instances*b.N)/b.Elapsed().Seconds(), "solves/sec")
		})
	}
}

// crossoverSizes are the organization counts BenchmarkPlanCrossover times
// both solvers at: two below fleet's N ≤ 6 → pruned rule, the measured tie
// at 7, two above.
var crossoverSizes = []int{4, 6, 7, 8, 10}

// solverCorpus builds the 16 seeded m=3 instances the per-size solver
// benchmarks cycle through.
func solverCorpus(tb testing.TB, n int) []*game.Config {
	tb.Helper()
	cfgs := make([]*game.Config, 16)
	for i := range cfgs {
		cfg, err := game.DefaultConfig(game.GenOptions{Seed: int64(i + 1), N: n, CPUSteps: 3, NoOrgName: true})
		if err != nil {
			tb.Fatal(err)
		}
		cfgs[i] = cfg
	}
	return cfgs
}

// BenchmarkPlanCrossover times the two solvers plan=auto chooses between,
// one solve per op, either side of its size rule. The committed rows are
// what the rule rests on: TestPlannerFollowsBaseline reads them back.
func BenchmarkPlanCrossover(b *testing.B) {
	for _, n := range crossoverSizes {
		cfgs := solverCorpus(b, n)
		b.Run(fmt.Sprintf("N=%d/dbr", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dbr.Solve(cfgs[i%len(cfgs)], nil, dbr.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("N=%d/pruned", n), func(b *testing.B) {
			opts := gbd.Options{Master: gbd.MasterPruned}
			for i := 0; i < b.N; i++ {
				if _, err := gbd.Solve(cfgs[i%len(cfgs)], opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPlannerFollowsBaseline ties fleet's size rule to the committed
// BenchmarkPlanCrossover rows: at a size where one solver's row is more
// than 25% above the other's, plan=auto must pick the faster one. (The
// fitted cost model this replaced kept its crossover at N = 12 while the
// measured one moved to 7, because nothing read a committed row.)
func TestPlannerFollowsBaseline(t *testing.T) {
	raw, err := os.ReadFile("BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var rows map[string]any
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatal(err)
	}
	var pl fleet.Planner
	for _, n := range crossoverSizes {
		ns := map[fleet.Plan]float64{}
		for _, plan := range []fleet.Plan{fleet.PlanDBR, fleet.PlanPruned} {
			name := fmt.Sprintf("BenchmarkPlanCrossover/N=%d/%s", n, plan)
			v, ok := rows[name].(float64)
			if !ok || v <= 0 {
				t.Fatalf("BENCH_baseline.json has no row %s", name)
			}
			ns[plan] = v
		}
		fast, slow := fleet.PlanDBR, fleet.PlanPruned
		if ns[slow] < ns[fast] {
			fast, slow = slow, fast
		}
		if ns[slow] <= 1.25*ns[fast] {
			continue
		}
		got := pl.Decide(fleet.StatsOf(solverCorpus(t, n)[0], 0), 0).Plan
		if got != fast {
			t.Errorf("N=%d: auto picks %s (%.0f ns/op committed) over %s (%.0f ns/op)", n, got, ns[got], fast, ns[fast])
		}
	}
}

// BenchmarkGBDSolve tracks one default CGBD solve (pruned master, one
// worker) at jobs_small_n's sizes (plan=auto routes N = 6 to it, 8 and 10
// only when forced), cycling 16 instances per size. ns/op and allocs/op
// are the steady state, where every solve finds a grown solver workspace
// in gbd's pool. fresh-ns/op is what a new process (or one whose pool the
// collector just emptied) pays: the mean over the same 16 instances, each
// solved right after two collections, which is what it takes to empty a
// sync.Pool.
func BenchmarkGBDSolve(b *testing.B) {
	for _, n := range []int{6, 8, 10} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			cfgs := solverCorpus(b, n)
			opts := gbd.Options{}
			var fresh time.Duration
			for _, cfg := range cfgs {
				runtime.GC()
				runtime.GC()
				start := time.Now()
				if _, err := gbd.Solve(cfg, opts); err != nil {
					b.Fatal(err)
				}
				fresh += time.Since(start)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := gbd.Solve(cfgs[i%len(cfgs)], opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(fresh.Nanoseconds())/float64(len(cfgs)), "fresh-ns/op")
		})
	}
}

// BenchmarkScaling_DBR measures how Algorithm 2 scales with the number of
// organizations (Theorem 2's computational-efficiency property:
// O(T·L·N·m)).
func BenchmarkScaling_DBR(b *testing.B) {
	for _, n := range []int{5, 10, 20, 40} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			cfg, err := game.DefaultConfig(game.GenOptions{Seed: 7, N: n, NoOrgName: true})
			if err != nil {
				b.Fatal(err)
			}
			var rounds int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := dbr.Solve(cfg, nil, dbr.Options{})
				if err != nil {
					b.Fatal(err)
				}
				rounds = res.Rounds
			}
			b.ReportMetric(float64(rounds), "sweeps")
		})
	}
}

// BenchmarkDefaultConfig tracks instance generation, which the gateway pays
// per generated game on the handler goroutine; NormalizeRho's Gauss–Seidel
// passes dominate it from N≈16 up.
func BenchmarkDefaultConfig(b *testing.B) {
	for _, n := range []int{8, 32} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := game.DefaultConfig(game.GenOptions{Seed: 7, N: n, NoOrgName: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNormalizeRho times the ρ cap alone on DefaultConfig's own input:
// the matrix as drawn, before the cap. The cap rewrites its matrix, so each
// run gets a fresh copy, refilled a batch at a time with the timer stopped.
func BenchmarkNormalizeRho(b *testing.B) {
	for _, n := range []int{8, 32} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			cfg, err := game.DefaultConfig(game.GenOptions{Seed: 7, N: n, NoOrgName: true})
			if err != nil {
				b.Fatal(err)
			}
			// DefaultConfig's draw order: three per organization, then ρ.
			src := randx.New(7)
			for i := 0; i < n; i++ {
				src.Uniform(15e9, 25e9)
				src.UniformInt(1000, 2000)
				src.Uniform(500, 2500)
			}
			raw := src.CompetitionMatrix(n, game.DefaultMu)
			const batch = 256
			work := make([]game.Config, batch)
			for k := range work {
				work[k] = *cfg
				work[k].Rho = make([][]float64, n)
				for r := range work[k].Rho {
					work[k].Rho[r] = make([]float64, n)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % batch
				if k == 0 {
					b.StopTimer()
					for _, w := range work {
						for r := range raw {
							copy(w.Rho[r], raw[r])
						}
					}
					b.StartTimer()
				}
				if f := work[k].NormalizeRho(game.DefaultZMargin); f >= 1 {
					b.Fatalf("N=%d: factor %v, the benchmark's matrix needs no cap", n, f)
				}
			}
		})
	}
}
