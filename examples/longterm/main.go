// Long-term cooperation: why does TradeFL need the smart contract at all?
// This example embeds the mechanism in a repeated game and compares two
// worlds. Without the contract, an organization can repudiate the transfers
// it owes; grim-trigger punishment (dissolving the mechanism) deters that
// only for sufficiently patient organizations — and not at all for net
// payers who prefer the no-mechanism world. With the contract, bonds are
// escrowed and transfers execute automatically, so the cooperative profile
// is self-enforcing at any discount factor.
package main

import (
	"fmt"
	"os"

	"tradefl"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "longterm:", err)
		os.Exit(1)
	}
}

func run() error {
	cfg, err := tradefl.DefaultConfig(tradefl.GenOptions{Seed: 7})
	if err != nil {
		return err
	}
	a, err := analyze(cfg)
	if err != nil {
		return err
	}

	fmt.Println("Repeated-game analysis of the TradeFL consortium (seed 7)")
	fmt.Println("===========================================================")
	fmt.Println("org  coop payoff  punish payoff  repudiation gain  δ* (no contract)")
	for i := range cfg.Orgs {
		fmt.Printf("%2d   %10.2f   %12.2f   %15.2f   %s\n",
			i, a.Cooperative[i], a.Punishment[i], a.DefectionGain[i],
			deltaLabel(a.CriticalDelta[i]))
	}
	fmt.Println("-----------------------------------------------------------")
	fmt.Printf("consortium δ* without contract: %s\n", deltaLabel(a.MaxCriticalDelta))
	fmt.Printf("consortium δ* with contract:    %s  (bonds escrowed; repudiation impossible)\n",
		deltaLabel(a.ContractEnforced.MaxCriticalDelta))

	for _, delta := range []float64{0.3, 0.8, 0.99} {
		without, with := a.cooperationSustainable(delta)
		fmt.Printf("at δ=%.2f: cooperation self-enforcing without contract: %-5v  with contract: %v\n",
			delta, without, with)
	}

	// Show one concrete defection path for the most tempted deterrable org.
	defector := -1
	for i, g := range a.DefectionGain {
		if g > 0 && a.CriticalDelta[i] < 0.9 &&
			(defector < 0 || g > a.DefectionGain[defector]) {
			defector = i
		}
	}
	if defector >= 0 {
		delta := a.CriticalDelta[defector]
		for _, d := range []float64{delta * 0.7, delta + (1-delta)*0.3} {
			coop, err := pathPayoff(cfg, simulateOptions{
				Stages: 400, Delta: d, Defector: -1, Analysis: a,
			})
			if err != nil {
				return err
			}
			defect, err := pathPayoff(cfg, simulateOptions{
				Stages: 400, Delta: d, Defector: defector, Analysis: a,
			})
			if err != nil {
				return err
			}
			verdict := "cooperate"
			if defect[defector] > coop[defector] {
				verdict = "defect"
			}
			fmt.Printf("org %d at δ=%.3f: discounted payoff cooperate %.1f vs defect %.1f → %s\n",
				defector, d, coop[defector], defect[defector], verdict)
		}
	}
	return nil
}

func deltaLabel(d float64) string {
	switch {
	case d <= 0:
		return "0 (always cooperates)"
	case d >= 1:
		return "1 (undeterred without contract)"
	default:
		return fmt.Sprintf("%.3f", d)
	}
}
