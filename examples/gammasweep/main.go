// Gamma sweep: the paper's central policy question is how to set the
// incentive intensity γ (Figs. 7-12). This example sweeps γ on the
// reference instance, prints welfare / total data / damage for DBR and the
// baselines, and reports the measured γ* together with the DBR-over-GCA
// data-contribution gain at that point.
package main

import (
	"fmt"
	"os"

	"tradefl"
	"tradefl/internal/baselines"
	"tradefl/internal/dbr"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gammasweep:", err)
		os.Exit(1)
	}
}

func run() error {
	gammas := []float64{0, 4e-9, 8e-9, 1.2e-8, 1.6e-8, 2e-8, 3e-8, 5e-8, 1e-7}
	fmt.Println("  gamma    | DBR welfare  ΣD   damage | GCA welfare  ΣD | WPR welfare")
	fmt.Println("-----------+---------------------------+-----------------+------------")
	bestGamma, bestWelfare, gainAtBest := 0.0, -1.0, 0.0
	for _, gamma := range gammas {
		cfg, err := tradefl.DefaultConfig(tradefl.GenOptions{Seed: 7, Gamma: gamma})
		if err != nil {
			return err
		}
		if gamma == 0 {
			cfg.Gamma = 0
		}
		dres, err := dbr.Solve(cfg, nil, dbr.Options{})
		if err != nil {
			return err
		}
		gout, err := baselines.GCA(cfg)
		if err != nil {
			return err
		}
		wout, err := baselines.WPR(cfg)
		if err != nil {
			return err
		}
		var dData float64
		for _, s := range dres.Profile {
			dData += s.D
		}
		welfare := cfg.SocialWelfare(dres.Profile)
		fmt.Printf("%10.2e |   %8.1f  %5.2f  %6.2f |   %8.1f  %5.2f |   %8.1f\n",
			gamma, welfare, dData, cfg.TotalDamage(dres.Profile),
			gout.SocialWelfare(cfg), gout.TotalData(), wout.SocialWelfare(cfg))
		if welfare > bestWelfare {
			bestWelfare, bestGamma = welfare, gamma
			if gout.TotalData() > 0 {
				gainAtBest = 100 * (dData/gout.TotalData() - 1)
			}
		}
	}
	fmt.Println("------------------------------------------------------------------------")
	fmt.Printf("measured γ* = %.2e (welfare %.1f); DBR contributes %+.0f%% more data than GCA there\n",
		bestGamma, bestWelfare, gainAtBest)
	fmt.Println("(paper: welfare peaks at an interior γ*, drops at γ = 5e-8 and 1e-7; +64% data)")
	return nil
}
