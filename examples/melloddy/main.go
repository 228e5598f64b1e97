// MELLODDY-style scenario: the paper's motivating example is a drug-
// discovery consortium where pharmaceutical companies with overlapping
// markets co-train a model. This example hand-builds such a consortium —
// two clusters of direct competitors plus a neutral research institute —
// and shows how TradeFL's redistribution changes their willingness to
// contribute versus plain federated learning (WPR), and how the global
// model's accuracy responds.
package main

import (
	"context"
	"fmt"
	"os"

	"tradefl"
	"tradefl/internal/baselines"
	"tradefl/internal/comm"
	"tradefl/internal/game"
)

// consortium builds five organizations: two big-pharma rivals (intense
// competition), two generics makers (moderate competition with everyone),
// and a research institute (no commercial exposure).
func consortium() (*tradefl.Config, error) {
	mk := func(name string, bits, samples, profit float64) tradefl.Organization {
		return tradefl.Organization{
			Name:          name,
			DataBits:      bits,
			Samples:       samples,
			Profitability: profit,
			CPULevels:     game.DefaultCPULevels(3),
			Comm: comm.Profile{
				DownloadTime:  game.DefaultTransferTime,
				UploadTime:    game.DefaultTransferTime,
				CyclesPerBit:  game.DefaultCyclesPerBit,
				DownloadPower: game.DefaultTransferPower,
				UploadPower:   game.DefaultTransferPower,
				Kappa:         game.DefaultKappa,
			},
		}
	}
	orgs := []tradefl.Organization{
		mk("pharma-alpha", 24e9, 1900, 2400),
		mk("pharma-beta", 22e9, 1700, 2200),
		mk("generics-gamma", 18e9, 1300, 1100),
		mk("generics-delta", 17e9, 1200, 1000),
		mk("institute-eps", 15e9, 1000, 600),
	}
	// Competition intensities: fierce within clusters, mild across, none
	// for the institute.
	rho := [][]float64{
		{0, 0.60, 0.15, 0.15, 0},
		{0.60, 0, 0.15, 0.15, 0},
		{0.15, 0.15, 0, 0.50, 0},
		{0.15, 0.15, 0.50, 0, 0},
		{0, 0, 0, 0, 0},
	}
	cfg := &tradefl.Config{
		Orgs:           orgs,
		Rho:            rho,
		Gamma:          game.DefaultGamma,
		Lambda:         game.DefaultLambda,
		EnergyWeight:   game.DefaultEnergyWeight,
		DMin:           game.DefaultDMin,
		Deadline:       game.DefaultDeadline,
		Accuracy:       mustScaledSqrt(),
		OmegaInSamples: true,
	}
	cfg.NormalizeRho(game.DefaultZMargin)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}

func mustScaledSqrt() tradefl.AccuracyModel {
	m, err := tradefl.DefaultConfig(tradefl.GenOptions{Seed: 1, N: 2})
	if err != nil {
		panic(err) // startup-only: defaults are compile-time constants
	}
	return m.Accuracy
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "melloddy:", err)
		os.Exit(1)
	}
}

func run() error {
	cfg, err := consortium()
	if err != nil {
		return err
	}
	mech, err := tradefl.New(cfg)
	if err != nil {
		return err
	}
	// With TradeFL (DBR + settlement + federated training).
	res, err := mech.Run(context.Background(), tradefl.Options{
		Settle: true, Train: true,
		TrainDataset: "svhn", TrainArch: "densenet",
		Rounds: 15,
	})
	if err != nil {
		return err
	}
	// Without redistribution (plain FL, the WPR baseline).
	wpr, err := baselines.WPR(cfg)
	if err != nil {
		return err
	}

	fmt.Println("MELLODDY-style consortium under TradeFL")
	fmt.Println("========================================")
	for i, s := range res.Profile {
		fmt.Printf("%-15s d=%5.1f%% (plain FL: %5.1f%%)  transfer %+9.4f  payoff %8.2f\n",
			cfg.Orgs[i].Name, 100*s.D, 100*wpr.Profile[i].D,
			res.Settlement.Transfers[i], res.Payoffs[i])
	}
	fmt.Println("(near-zero transfers are the equilibrium signature: coopetitors equalize")
	fmt.Println(" their contribution indices so no money moves — the threat of paying does")
	fmt.Println(" the incentive work, while the neutral institute faces no such pressure)")
	var tradeData, plainData float64
	for i := range res.Profile {
		tradeData += res.Profile[i].D
		plainData += wpr.Profile[i].D
	}
	fmt.Println("----------------------------------------")
	fmt.Printf("total data contribution: %.2f with TradeFL vs %.2f without (%+.0f%%)\n",
		tradeData, plainData, 100*(tradeData/plainData-1))
	fmt.Printf("welfare %.1f | model accuracy %.3f after %d rounds | chain verified=%v\n",
		res.SocialWelfare, res.Training.FinalAccuracy,
		len(res.Training.History), res.Settlement.Verified)
	return nil
}
