// Command tradefl-sim regenerates the tables and figures of the TradeFL
// paper's evaluation (Sec. VI) as CSV.
//
// Usage:
//
//	tradefl-sim -list
//	tradefl-sim -fig fig7 [-seed 7] [-quick]
//	tradefl-sim -all -out results/
//	tradefl-sim -fig table2 -diag-addr 127.0.0.1:6060 -diag-hold 30s
//
// Fleet batches, FL tensor kernels and chain batch verification use
// GOMAXPROCS workers; outputs are byte-identical for every worker count.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tradefl/internal/cli"
	"tradefl/internal/experiments"
	"tradefl/internal/obs"
)

func main() { cli.Main("tradefl-sim", run) }

func run(args []string) error { return command().Exec(args) }

// command is tradefl-sim's flags and body.
func command() cli.Command {
	fs := flag.NewFlagSet("tradefl-sim", flag.ContinueOnError)
	var (
		fig      = fs.String("fig", "", "experiment id to run (see -list)")
		all      = fs.Bool("all", false, "run every experiment")
		list     = fs.Bool("list", false, "list experiment ids")
		seed     = fs.Int64("seed", 7, "random seed of the reference instance")
		quick    = fs.Bool("quick", false, "coarse sweeps and short FL runs")
		out      = fs.String("out", "", "directory for CSV files (default stdout)")
		fleetN   = fs.Int("fleet", 0, "solve a synthetic batch of this many game instances through the fleet engine instead of an experiment")
		planName = fs.String("plan", "auto", "fleet solver plan: auto|pruned|traversal|dbr (auto: N ≤ 6 → pruned, else dbr)")
		summary  = fs.String("summary", "text", "end-of-run solver summary on stderr: text|none")
		diagHold = fs.Duration("diag-hold", 0, "keep the diagnostics server alive this long after the run (requires -diag-addr)")
	)
	return cli.Command{Flags: fs, Verify: true, Run: func(ctx context.Context, diag *obs.DiagServer) error {
		if *summary != "text" && *summary != "none" {
			return fmt.Errorf("-summary must be text or none, got %q", *summary)
		}
		if *diagHold > 0 && diag == nil {
			return errors.New("-diag-hold requires -diag-addr")
		}
		// hold keeps the diagnostics server up after a run so it can be
		// scraped, until -diag-hold elapses or SIGINT/SIGTERM arrives.
		hold := func() {
			if *diagHold <= 0 {
				return
			}
			obs.Component("sim").Info("holding diagnostics server", "addr", diag.Addr(), "hold", *diagHold)
			select {
			case <-time.After(*diagHold):
			case <-ctx.Done():
			}
		}
		if *fleetN > 0 {
			start := time.Now()
			if err := runFleet(ctx, *fleetN, *planName, *seed); err != nil {
				return err
			}
			printSummary(*summary, time.Since(start))
			hold()
			return nil
		}
		if *list {
			for _, id := range experiments.IDs() {
				fmt.Println(id)
			}
			return nil
		}
		var ids []string
		switch {
		case *all:
			ids = experiments.IDs()
		case *fig != "":
			ids = []string{*fig}
		default:
			return fmt.Errorf("need -fig <id>, -all or -list")
		}
		start := time.Now()
		opts := experiments.Options{Seed: *seed, Quick: *quick}
		for _, id := range ids {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("interrupted before %s: %w", id, err)
			}
			figure, err := experiments.Run(id, opts)
			if err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
			csv := figure.CSV()
			if *out == "" {
				fmt.Print(csv)
				continue
			}
			if err := os.MkdirAll(*out, 0o755); err != nil {
				return err
			}
			path := filepath.Join(*out, id+".csv")
			if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
				return err
			}
			fmt.Println("wrote", path)
		}
		printSummary(*summary, time.Since(start))
		hold()
		return nil
	}}
}

// printSummary condenses the metrics snapshot into the solver headline
// counts of the run, on stderr (stdout carries the CSV).
func printSummary(mode string, wall time.Duration) {
	if mode == "none" {
		return
	}
	snap := obs.Default.Snapshot()
	val := func(name string) float64 {
		s, _ := obs.Find(snap, name)
		return s.Value
	}
	w := os.Stderr
	fmt.Fprintf(w, "--- run summary (%.2fs wall) ---\n", wall.Seconds())
	fmt.Fprintf(w, "gbd:  %.0f runs (%.0f converged), %.0f iterations, %.0f+%.0f cuts (opt+feas)\n",
		val("tradefl_gbd_runs_total"), val("tradefl_gbd_converged_total"), val("tradefl_gbd_iterations_total"),
		val("tradefl_gbd_optimality_cuts_total"), val("tradefl_gbd_feasibility_cuts_total"))
	fmt.Fprintf(w, "dbr:  %.0f runs (%.0f converged), %.0f sweeps, %.0f moves\n",
		val("tradefl_dbr_runs_total"), val("tradefl_dbr_converged_total"),
		val("tradefl_dbr_rounds_total"), val("tradefl_dbr_moves_total"))
	fmt.Fprintf(w, "fl:   %.0f rounds\n", val("tradefl_fl_rounds_total"))
	fmt.Fprintf(w, "pool: %.0f fan-outs\n", val("tradefl_pool_fanouts_total"))
	if solves := val("tradefl_fleet_instances_total"); solves > 0 {
		fmt.Fprintf(w, "fleet: %.0f solves at %.0f/sec (plans dbr=%.0f pruned=%.0f traversal=%.0f)\n",
			solves, solves/wall.Seconds(), val("tradefl_fleet_plan_dbr_total"),
			val("tradefl_fleet_plan_pruned_total"), val("tradefl_fleet_plan_traversal_total"))
	}
}
