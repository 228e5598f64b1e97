package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"tradefl/internal/fleet"
	"tradefl/internal/game"
	"tradefl/internal/verify"
)

// fleetSizes is the mixed organization-count cycle of the synthetic fleet
// workload — the same mix BenchmarkFleetSolve measures, spanning both
// sides of the planner's solver crossovers.
var fleetSizes = []int{4, 6, 8, 10, 12, 16}

// fleetCorpus generates n seeded game instances cycling through the size
// mix.
func fleetCorpus(n int, seed int64) ([]*game.Config, error) {
	cfgs := make([]*game.Config, n)
	for i := range cfgs {
		cfg, err := game.DefaultConfig(game.GenOptions{
			N:         fleetSizes[i%len(fleetSizes)],
			Seed:      seed + int64(i),
			CPUSteps:  3,
			NoOrgName: true,
		})
		if err != nil {
			return nil, fmt.Errorf("fleet instance %d: %w", i, err)
		}
		cfgs[i] = cfg
	}
	return cfgs, nil
}

// runFleet solves a synthetic batch of n instances through the fleet
// engine and prints the throughput headline. With -verify enabled, a
// sampled share of the outputs is audited against cold re-solves.
func runFleet(ctx context.Context, n int, planName string, seed int64) error {
	plan, err := fleet.ParsePlan(planName)
	if err != nil {
		return err
	}
	cfgs, err := fleetCorpus(n, seed)
	if err != nil {
		return err
	}
	eng := fleet.New(fleet.Options{Plan: plan})
	start := time.Now()
	results := eng.Solve(ctx, cfgs)
	wall := time.Since(start)

	counts := map[fleet.Plan]int{}
	failed := 0
	for i, r := range results {
		if r.Err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "tradefl-sim: fleet instance %d: %v\n", i, r.Err)
			continue
		}
		counts[r.Plan]++
	}
	fmt.Printf("fleet: %d instances in %.3fs (%.0f solves/sec, plan %s)\n",
		n, wall.Seconds(), float64(n)/wall.Seconds(), plan)
	fmt.Printf("fleet: plans dbr=%d pruned=%d traversal=%d, errors=%d\n",
		counts[fleet.PlanDBR], counts[fleet.PlanPruned], counts[fleet.PlanTraversal], failed)
	if failed > 0 {
		return fmt.Errorf("fleet: %d of %d instances failed", failed, n)
	}
	if verify.Enabled() {
		// Sampled determinism audit: re-solve a cold fraction of the batch
		// and require bitwise-equal profiles (plus the solver invariant
		// checks, which feed the tradefl_verify_* counters).
		audited, err := eng.Audit(cfgs, results, fleetAuditFraction, seed)
		if err != nil {
			return err
		}
		fmt.Printf("fleet: audit passed on %d sampled instances\n", audited)
	}
	return nil
}

// fleetAuditFraction is the sampled share of batch outputs re-solved cold
// under -verify.
const fleetAuditFraction = 0.05
