// Command benchcmp turns `go test -bench` output into a stable JSON
// profile and compares two profiles for regressions.
//
// Usage:
//
//	benchcmp parse bench.txt > BENCH_latest.json
//	benchcmp compare [-max-regression 5] BENCH_baseline.json BENCH_latest.json
//	benchcmp fleet-gate [-min-speedup 3 -max-regret 20 -min-solves-per-sec 1000] BENCH_latest.json
//	benchcmp chain-gate [-min-tx-per-sec 1000 -txs-per-op 129] BENCH_latest.json
//
// parse keeps the minimum ns/op across repeated runs of the same
// benchmark (-count > 1), which is the least noise-sensitive statistic on
// shared hardware. compare exits non-zero if any benchmark present in
// both profiles slowed down by more than the threshold percentage;
// benchmarks present in only one profile are reported but never fail the
// comparison, so adding or retiring benchmarks does not require lockstep
// baseline updates.
//
// fleet-gate checks the BenchmarkFleetSolve absolute contract within one
// profile rather than against a baseline: the planned batch must beat the
// naive sequential loop by min-speedup, sustain min-solves-per-sec, and
// plan=auto must stay within max-regret percent of the best fixed plan.
// Ratios within a single profile cancel most machine-load noise, so this
// gate is meaningful even on hardware where absolute ns/op are not.
//
// chain-gate holds BenchmarkChainSettle to an absolute floor: it must
// sustain min-tx-per-sec of settled transaction throughput (txs-per-op
// transactions per benchmark op). There is no ratio here — the chain has one
// settlement path, so there is nothing honest to divide by.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
)

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: benchcmp parse <bench.txt> | benchcmp compare [-max-regression pct] <baseline.json> <latest.json>")
	}
	switch args[0] {
	case "parse":
		if len(args) != 2 {
			return fmt.Errorf("usage: benchcmp parse <bench.txt>")
		}
		return parse(args[1])
	case "compare":
		fs := flag.NewFlagSet("compare", flag.ContinueOnError)
		maxPct := fs.Float64("max-regression", 5, "maximum tolerated slowdown in percent")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		if fs.NArg() != 2 {
			return fmt.Errorf("usage: benchcmp compare [-max-regression pct] <baseline.json> <latest.json>")
		}
		return compare(fs.Arg(0), fs.Arg(1), *maxPct)
	case "fleet-gate":
		fs := flag.NewFlagSet("fleet-gate", flag.ContinueOnError)
		minSpeedup := fs.Float64("min-speedup", 3, "minimum planned-batch speedup over the naive sequential loop")
		maxRegret := fs.Float64("max-regret", 20, "maximum tolerated plan=auto slowdown vs the best fixed plan, percent")
		minRate := fs.Float64("min-solves-per-sec", 1000, "minimum sustained plan=auto solve throughput")
		instances := fs.Float64("instances", 1024, "batch size of BenchmarkFleetSolve (for the throughput floor)")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		if fs.NArg() != 1 {
			return fmt.Errorf("usage: benchcmp fleet-gate [-min-speedup x -max-regret pct -min-solves-per-sec r] <latest.json>")
		}
		return fleetGate(fs.Arg(0), *minSpeedup, *maxRegret, *minRate, *instances)
	case "chain-gate":
		fs := flag.NewFlagSet("chain-gate", flag.ContinueOnError)
		minRate := fs.Float64("min-tx-per-sec", 1000, "minimum sustained settled-tx throughput")
		txsPerOp := fs.Float64("txs-per-op", 129, "transactions settled per BenchmarkChainSettle op (for the throughput floor)")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		if fs.NArg() != 1 {
			return fmt.Errorf("usage: benchcmp chain-gate [-min-tx-per-sec r -txs-per-op n] <latest.json>")
		}
		return chainGate(fs.Arg(0), *minRate, *txsPerOp)
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

// parse reads go-test bench output and prints {name: ns_per_op} JSON.
func parse(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	prof := map[string]float64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		if cur, ok := prof[m[1]]; !ok || ns < cur {
			prof[m[1]] = ns
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(prof) == 0 {
		return fmt.Errorf("%s: no benchmark lines found", path)
	}
	out, err := json.MarshalIndent(prof, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func load(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	// Profiles may carry non-numeric metadata keys (by convention prefixed
	// with "_", e.g. BENCH_baseline.json's "_notes"); only numeric entries
	// are benchmarks.
	raw := map[string]any{}
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	prof := map[string]float64{}
	for name, v := range raw {
		if ns, ok := v.(float64); ok {
			prof[name] = ns
		}
	}
	if len(prof) == 0 {
		return nil, fmt.Errorf("%s: no numeric benchmark entries", path)
	}
	return prof, nil
}

func compare(basePath, latestPath string, maxPct float64) error {
	base, err := load(basePath)
	if err != nil {
		return err
	}
	latest, err := load(latestPath)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := 0
	for _, name := range names {
		old := base[name]
		cur, ok := latest[name]
		if !ok {
			fmt.Printf("?  %-60s baseline-only (%.0f ns/op)\n", name, old)
			continue
		}
		pct := (cur - old) / old * 100
		mark := "ok"
		if pct > maxPct {
			mark = "FAIL"
			failed++
		}
		fmt.Printf("%-4s %-60s %12.0f -> %12.0f ns/op  %+6.1f%%\n", mark, name, old, cur, pct)
	}
	extra := make([]string, 0)
	for name := range latest {
		if _, ok := base[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Printf("+  %-60s new (%.0f ns/op)\n", name, latest[name])
	}
	if failed > 0 {
		return fmt.Errorf("%d benchmark(s) regressed more than %.1f%%", failed, maxPct)
	}
	fmt.Printf("all %d shared benchmarks within %.1f%% of baseline\n", len(names)-len(missingFrom(base, latest)), maxPct)
	return nil
}

// fleetGate enforces the BenchmarkFleetSolve throughput contract on a
// single parsed profile. All three checks are evaluated before failing so
// one run reports every violated bound.
func fleetGate(path string, minSpeedup, maxRegretPct, minRate, instances float64) error {
	prof, err := load(path)
	if err != nil {
		return err
	}
	const prefix = "BenchmarkFleetSolve/"
	naive, okNaive := prof[prefix+"naive-sequential"]
	auto, okAuto := prof[prefix+"plan=auto"]
	if !okNaive || !okAuto {
		return fmt.Errorf("%s: missing %snaive-sequential or %splan=auto (rerun scripts/bench.sh)", path, prefix, prefix)
	}
	bestFixed, bestName := 0.0, ""
	for name, ns := range prof {
		if len(name) <= len(prefix) || name[:len(prefix)] != prefix {
			continue
		}
		sub := name[len(prefix):]
		if len(sub) < 6 || sub[:5] != "plan=" || sub == "plan=auto" {
			continue
		}
		if bestName == "" || ns < bestFixed {
			bestFixed, bestName = ns, name
		}
	}
	if bestName == "" {
		return fmt.Errorf("%s: no fixed-plan BenchmarkFleetSolve entries (rerun scripts/bench.sh)", path)
	}

	var fails []string
	speedup := naive / auto
	fmt.Printf("fleet-gate: speedup   %.2fx over naive-sequential (floor %.2fx)\n", speedup, minSpeedup)
	if speedup < minSpeedup {
		fails = append(fails, fmt.Sprintf("speedup %.2fx < %.2fx", speedup, minSpeedup))
	}
	rate := instances / (auto * 1e-9)
	fmt.Printf("fleet-gate: throughput %.0f solves/sec at plan=auto (floor %.0f)\n", rate, minRate)
	if rate < minRate {
		fails = append(fails, fmt.Sprintf("throughput %.0f solves/sec < %.0f", rate, minRate))
	}
	regret := (auto - bestFixed) / bestFixed * 100
	fmt.Printf("fleet-gate: regret    %+.1f%% vs best fixed plan %s (cap %.1f%%)\n", regret, bestName, maxRegretPct)
	if regret > maxRegretPct {
		fails = append(fails, fmt.Sprintf("auto regret %+.1f%% > %.1f%% vs %s", regret, maxRegretPct, bestName))
	}
	if len(fails) > 0 {
		return fmt.Errorf("fleet gate failed: %v", fails)
	}
	fmt.Println("fleet-gate: OK")
	return nil
}

// chainGate enforces the BenchmarkChainSettle settled-tx throughput floor
// on a single parsed profile.
func chainGate(path string, minRate, txsPerOp float64) error {
	prof, err := load(path)
	if err != nil {
		return err
	}
	const row = "BenchmarkChainSettle"
	ns, ok := prof[row]
	if !ok {
		return fmt.Errorf("%s: missing %s (rerun scripts/bench.sh)", path, row)
	}
	rate := txsPerOp / (ns * 1e-9)
	fmt.Printf("chain-gate: throughput %.0f tx/sec (floor %.0f)\n", rate, minRate)
	if rate < minRate {
		return fmt.Errorf("chain gate failed: throughput %.0f tx/sec < %.0f", rate, minRate)
	}
	fmt.Println("chain-gate: OK")
	return nil
}

func missingFrom(base, latest map[string]float64) []string {
	var missing []string
	for name := range base {
		if _, ok := latest[name]; !ok {
			missing = append(missing, name)
		}
	}
	return missing
}
