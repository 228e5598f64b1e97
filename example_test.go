package tradefl_test

// Runnable godoc examples for the public facade. They double as
// documentation on pkg.go.dev-style viewers and as tests (the Output
// comments are verified by `go test`).

import (
	"context"
	"fmt"
	"math"

	"tradefl"
)

// Example runs the mechanism end to end on the reference instance and
// prints the headline properties every run satisfies.
func Example() {
	cfg, err := tradefl.DefaultConfig(tradefl.GenOptions{Seed: 7})
	if err != nil {
		fmt.Println("config:", err)
		return
	}
	mech, err := tradefl.New(cfg)
	if err != nil {
		fmt.Println("mechanism:", err)
		return
	}
	res, err := mech.Run(context.Background(), tradefl.Options{Settle: true})
	if err != nil {
		fmt.Println("run:", err)
		return
	}
	var transfers float64
	for _, tr := range res.Settlement.Transfers {
		transfers += tr
	}
	fmt.Println("organizations:", len(res.Profile))
	fmt.Println("nash:", res.Nash.IsNash)
	fmt.Println("budget balanced:", transfers < 1e-6 && transfers > -1e-6)
	fmt.Println("chain verified:", res.Settlement.Verified)
	// Output:
	// organizations: 10
	// nash: true
	// budget balanced: true
	// chain verified: true
}

// ExampleDefaultConfig shows the Table II parameter ranges of a generated
// instance.
func ExampleDefaultConfig() {
	cfg, err := tradefl.DefaultConfig(tradefl.GenOptions{Seed: 1, N: 3})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("N:", cfg.N())
	fmt.Println("Dmin:", cfg.DMin)
	ok := true
	for _, o := range cfg.Orgs {
		if o.Profitability < 500 || o.Profitability > 2500 {
			ok = false
		}
	}
	fmt.Println("profitability in [500,2500]:", ok)
	// Output:
	// N: 3
	// Dmin: 0.01
	// profitability in [500,2500]: true
}

// ExampleMechanism_CompareSchemes reproduces the paper's scheme comparison
// on one instance (Fig. 6's qualitative ordering).
func ExampleMechanism_CompareSchemes() {
	cfg, err := tradefl.DefaultConfig(tradefl.GenOptions{Seed: 7})
	if err != nil {
		fmt.Println(err)
		return
	}
	mech, err := tradefl.New(cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	out, err := mech.CompareSchemes()
	if err != nil {
		fmt.Println(err)
		return
	}
	dbr := cfg.SocialWelfare(out[tradefl.SchemeDBR].Profile)
	wpr := cfg.SocialWelfare(out[tradefl.SchemeWPR].Profile)
	tos := cfg.SocialWelfare(out[tradefl.SchemeTOS].Profile)
	fmt.Println("DBR beats plain FL (WPR):", dbr > wpr)
	fmt.Println("DBR beats contribute-everything (TOS):", dbr > tos)
	// Output:
	// DBR beats plain FL (WPR): true
	// DBR beats contribute-everything (TOS): true
}

// ExamplePersonalization enables the paper's future-work extension.
func ExamplePersonalization() {
	cfg, err := tradefl.DefaultConfig(tradefl.GenOptions{Seed: 7})
	if err != nil {
		fmt.Println(err)
		return
	}
	base := cfg.TotalDamage(mustEquilibrium(cfg))
	cfg.Personal = tradefl.Personalization{Alpha: 0.5, LocalBoost: 2}
	pers := cfg.TotalDamage(mustEquilibrium(cfg))
	fmt.Println("personalization reduces coopetition damage:", pers < base)
	// Output:
	// personalization reduces coopetition damage: true
}

// mustEquilibrium solves the game with DBR for examples.
func mustEquilibrium(cfg *tradefl.Config) tradefl.Profile {
	mech, err := tradefl.New(cfg)
	if err != nil {
		panic(err)
	}
	res, err := mech.Run(context.Background(), tradefl.Options{})
	if err != nil {
		panic(err)
	}
	return res.Profile
}

// ExampleMechanism_Run_consortium is the paper's motivating scenario, a
// MELLODDY-style drug-discovery consortium: two big-pharma rivals, two
// generics makers competing mildly with everyone, and a research
// institute with no commercial exposure. TradeFL's redistribution draws
// far more data than plain federated learning (WPR) does, while no
// money moves: the threat of paying does the incentive work. The
// institute, which no one competes with, keeps to the minimum.
func ExampleMechanism_Run_consortium() {
	cfg, err := tradefl.DefaultConfig(tradefl.GenOptions{Seed: 7, N: 5})
	if err != nil {
		fmt.Println(err)
		return
	}
	for i, o := range []struct {
		name                   string
		bits, samples, profits float64
	}{
		{"pharma-alpha", 24e9, 1900, 2400},
		{"pharma-beta", 22e9, 1700, 2200},
		{"generics-gamma", 18e9, 1300, 1100},
		{"generics-delta", 17e9, 1200, 1000},
		{"institute-eps", 15e9, 1000, 600},
	} {
		org := &cfg.Orgs[i]
		org.Name, org.DataBits, org.Samples, org.Profitability = o.name, o.bits, o.samples, o.profits
	}
	// Fierce competition within each cluster, mild across, none for the
	// institute.
	cfg.Rho = [][]float64{
		{0, 0.60, 0.15, 0.15, 0},
		{0.60, 0, 0.15, 0.15, 0},
		{0.15, 0.15, 0, 0.50, 0},
		{0.15, 0.15, 0.50, 0, 0},
		{0, 0, 0, 0, 0},
	}
	cfg.NormalizeRho(0.02)
	mech, err := tradefl.New(cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := mech.Run(context.Background(), tradefl.Options{Settle: true})
	if err != nil {
		fmt.Println(err)
		return
	}
	plain, err := mech.CompareSchemes()
	if err != nil {
		fmt.Println(err)
		return
	}
	var trade, wpr, moved float64
	for i, s := range res.Profile {
		trade += s.D
		wpr += plain[tradefl.SchemeWPR].Profile[i].D
		moved += math.Abs(res.Settlement.Transfers[i])
	}
	fmt.Printf("total data: %.2f with TradeFL, %.2f with plain FL\n", trade, wpr)
	fmt.Println("institute at the minimum:", res.Profile[4].D == cfg.DMin)
	fmt.Println("tokens moved on chain:", moved)
	fmt.Println("chain verified:", res.Settlement.Verified)
	// Output:
	// total data: 3.03 with TradeFL, 0.67 with plain FL
	// institute at the minimum: true
	// tokens moved on chain: 0
	// chain verified: true
}
