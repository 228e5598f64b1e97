package gbd

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"tradefl/internal/game"
)

// shapedConfig draws an N-organization instance and, when widths is
// non-nil, gives organization i a CPU grid of widths[i%len(widths)] levels.
func shapedConfig(t testing.TB, seed int64, n int, widths []int) *game.Config {
	t.Helper()
	cfg, err := game.DefaultConfig(game.GenOptions{Seed: seed, N: n, NoOrgName: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfg.Orgs {
		if widths != nil {
			cfg.Orgs[i].CPULevels = game.DefaultCPULevels(widths[i%len(widths)])
		}
	}
	return cfg
}

// solveOn runs one solve on the given solver, as SolveCtx does on a pooled
// one.
func solveOn(s *solver, cfg *game.Config, opts Options) (*Result, error) {
	in, err := game.NewInstance(cfg)
	if err != nil {
		return nil, err
	}
	s.rebind(in, opts.withDefaults())
	return s.run(context.Background())
}

// freshSolver is what the pool builds when it is empty.
func freshSolver() *solver { return solvers.New().(*solver) }

// cloneResult deep-copies a result, for checking later that the original
// was not written to.
func cloneResult(r *Result) *Result {
	c := *r
	c.Profile = append(game.Profile(nil), r.Profile...)
	c.LowerBounds = append([]float64(nil), r.LowerBounds...)
	c.UpperBounds = append([]float64(nil), r.UpperBounds...)
	c.PotentialTrace = append([]float64(nil), r.PotentialTrace...)
	return &c
}

// workspaceSequence is the instance sequence of the reuse tests: sizes go
// up and down, grids are uneven, one instance generates feasibility cuts
// and one is infeasible outright.
func workspaceSequence(t *testing.T) []*game.Config {
	tight := shapedConfig(t, 4, 6, nil)
	tight.Deadline = 0.5 + 0.6*25e9/4.2e9 // slow levels cannot fit D_min
	hopeless := shapedConfig(t, 5, 8, []int{2, 3})
	hopeless.Deadline = 0.3 // below T1 + T3
	return []*game.Config{
		shapedConfig(t, 1, 6, []int{3, 2, 4}),
		shapedConfig(t, 2, 10, nil),
		tight,
		shapedConfig(t, 3, 8, []int{2, 5, 3}),
		hopeless,
		shapedConfig(t, 6, 6, []int{4, 1, 3}),
	}
}

// TestWorkspaceReuseMatchesFresh drives one solver through the whole
// sequence and requires, at every step and for both masters, a result
// field-for-field equal to a brand-new solver's; the same error where there
// is one.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	for _, master := range []MasterSolver{MasterPruned, MasterTraversal} {
		reused := freshSolver()
		feasCuts := mFeasCuts.Value()
		infeasible := 0
		for step, cfg := range workspaceSequence(t) {
			if master == MasterTraversal && cfg.N() > 8 {
				continue // 3^10 grid points per master call
			}
			opts := Options{Master: master}
			got, gotErr := solveOn(reused, cfg, opts)
			want, wantErr := solveOn(freshSolver(), cfg, opts)
			if !errors.Is(gotErr, wantErr) {
				t.Fatalf("master %d step %d: errors differ: reused %v, fresh %v", master, step, gotErr, wantErr)
			}
			if wantErr != nil {
				if !errors.Is(wantErr, ErrInfeasible) {
					t.Fatalf("master %d step %d: %v", master, step, wantErr)
				}
				infeasible++
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("master %d step %d: reused solver differs from fresh\nreused: %+v\nfresh:  %+v", master, step, got, want)
			}
		}
		if infeasible != 1 {
			t.Errorf("master %d: %d infeasible instances in the sequence, want 1", master, infeasible)
		}
		if mFeasCuts.Value() == feasCuts {
			t.Errorf("master %d: the sequence generated no feasibility cut", master)
		}
	}
}

// TestResultOutlivesWorkspace: a result handed out by a solve must not
// change when the solver that produced it goes on to other instances.
func TestResultOutlivesWorkspace(t *testing.T) {
	s := freshSolver()
	cfgs := workspaceSequence(t)
	kept, err := solveOn(s, cfgs[0], Options{})
	if err != nil {
		t.Fatal(err)
	}
	snapshot := cloneResult(kept)
	// A same-sized instance first: it reuses every buffer of the kept solve
	// in place, before the larger ones make the solver grow new ones.
	for _, cfg := range append(cfgs[5:], cfgs[1:]...) {
		if _, err := solveOn(s, cfg, Options{}); err != nil && !errors.Is(err, ErrInfeasible) {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(kept, snapshot) {
		t.Fatalf("result of the first solve changed under later solves\nnow:  %+v\nthen: %+v", kept, snapshot)
	}
}

// TestArenaGrowthKeepsEarlierSlices: a take that does not fit opens a new
// chunk and leaves what was handed out before intact; reset coalesces, so
// the same demand then fits without allocating.
func TestArenaGrowthKeepsEarlierSlices(t *testing.T) {
	var b bump[float64]
	first := b.take(minChunk - 1)
	for i := range first {
		first[i] = float64(i + 1)
	}
	second := b.take(4 * minChunk)
	for i := range second {
		if second[i] != 0 {
			t.Fatalf("take returned dirty memory at %d", i)
		}
		second[i] = -1
	}
	for i := range first {
		if first[i] != float64(i+1) {
			t.Fatalf("growth clobbered an earlier slice at %d", i)
		}
	}
	b.reset()
	left, right := b.take(3), b.take(3)
	right[0] = 5
	if _ = append(left, 9); right[0] != 5 {
		t.Fatal("appending to an arena slice wrote into its neighbour")
	}
	b.reset()
	if allocs := testing.AllocsPerRun(10, func() {
		x := b.take(minChunk - 1)
		y := b.take(4 * minChunk)
		if x[0] != 0 || y[len(y)-1] != 0 {
			t.Fatal("reset left dirty memory")
		}
		x[0], y[len(y)-1] = 1, 1
		b.reset()
	}); allocs != 0 {
		t.Fatalf("%v allocations per cycle after the arena grew, want 0", allocs)
	}
}

// TestSteadyStateAllocs pins the allocation count of a default N=8 solve
// whose workspace is already grown. Before the arenas a warm solve made 281
// allocations; what is left is the Result and its owned memory, 3 in all
// (an untraced solve records no span).
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	cfg := shapedConfig(t, 7, 8, nil)
	opts := Options{}
	if _, err := Solve(cfg, opts); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := Solve(cfg, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 140 {
		t.Fatalf("%v allocations per warmed N=8 solve, want at most 140 (half of the 281 before the workspace arenas)", allocs)
	}
	t.Logf("%v allocations per warmed N=8 solve", allocs)
}

// TestConcurrentSolvesDoNotShareWorkspaces hammers the pool from several
// goroutines with differently shaped instances. Every result must equal
// the one solved alone; under -race, two solves on one workspace would also be
// reported as a data race on its arenas.
func TestConcurrentSolvesDoNotShareWorkspaces(t *testing.T) {
	var cfgs []*game.Config
	for _, cfg := range workspaceSequence(t) {
		if cfg.Deadline > 1 { // the infeasible one is not worth repeating
			cfgs = append(cfgs, cfg)
		}
	}
	want := make([]*Result, len(cfgs))
	for i, cfg := range cfgs {
		res, err := Solve(cfg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 12; round++ {
				i := (g + round) % len(cfgs)
				got, err := Solve(cfgs[i], Options{})
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d round %d: concurrent solve of instance %d differs from the one solved alone", g, round, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
