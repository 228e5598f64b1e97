// Command tradefl-sim regenerates the tables and figures of the TradeFL
// paper's evaluation (Sec. VI) as CSV.
//
// Usage:
//
//	tradefl-sim -list
//	tradefl-sim -fig fig7 [-seed 7] [-quick]
//	tradefl-sim -all -out results/
//
// FL tensor kernels and chain batch verification use GOMAXPROCS workers;
// outputs are byte-identical for every worker count.
package main

import (
	"context"
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
		fig   = fs.String("fig", "", "experiment id to run (see -list)")
		all   = fs.Bool("all", false, "run every experiment")
		list  = fs.Bool("list", false, "list experiment ids")
		seed  = fs.Int64("seed", 7, "random seed of the reference instance")
		quick = fs.Bool("quick", false, "coarse sweeps and short FL runs")
		out   = fs.String("out", "", "directory for CSV files (default stdout)")
	)
	return cli.Command{Flags: fs, Run: func(ctx context.Context, _ *obs.DiagServer) error {
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
		logSummary(time.Since(start))
		return nil
	}}
}

// logSummary condenses the metrics snapshot into the solver headline
// counts of the run, as one info record (stdout carries the CSV).
func logSummary(wall time.Duration) {
	snap := obs.Default.Snapshot()
	val := func(name string) float64 {
		s, _ := obs.Find(snap, name)
		return s.Value
	}
	obs.Component("sim").Info("run summary",
		"wall_s", wall.Seconds(),
		"gbd_runs", val("tradefl_gbd_runs_total"),
		"gbd_converged", val("tradefl_gbd_converged_total"),
		"gbd_iterations", val("tradefl_gbd_iterations_total"),
		"gbd_optimality_cuts", val("tradefl_gbd_optimality_cuts_total"),
		"gbd_feasibility_cuts", val("tradefl_gbd_feasibility_cuts_total"),
		"dbr_runs", val("tradefl_dbr_runs_total"),
		"dbr_converged", val("tradefl_dbr_converged_total"),
		"dbr_sweeps", val("tradefl_dbr_rounds_total"),
		"dbr_moves", val("tradefl_dbr_moves_total"),
		"fl_rounds", val("tradefl_fl_rounds_total"),
		"pool_fanouts", val("tradefl_pool_fanouts_total"),
		"fleet_solves", val("tradefl_fleet_instances_total"),
	)
}
