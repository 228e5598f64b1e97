package gbd

import (
	"encoding/json"
	"sync"
	"testing"

	"tradefl/internal/game"
	"tradefl/internal/obs"
)

// TestRunzTrajectoriesAreOneSet solves instances with different iteration
// counts from concurrent goroutines while the /runz document is read: every
// read must show the four gbd series of one solve — equal lengths, and
// gap = upper − lower at every iteration.
func TestRunzTrajectoriesAreOneSet(t *testing.T) {
	var cfgs []*game.Config
	iters := map[int]bool{}
	for seed := int64(1); len(iters) < 3 && seed <= 60; seed++ {
		cfg, err := game.DefaultConfig(game.GenOptions{Seed: seed, N: 4 + int(seed%3), NoOrgName: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Solve(cfg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !iters[res.Iterations] {
			iters[res.Iterations] = true
			cfgs = append(cfgs, cfg)
		}
	}
	if len(cfgs) < 2 {
		t.Fatalf("found only iteration counts %v; need two different ones", iters)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := Solve(cfgs[i%len(cfgs)], Options{}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for range 500 {
		if !checkRunzSet(t) {
			break
		}
	}
	close(stop)
	wg.Wait()
	checkRunzSet(t)
}

// checkRunzSet reads /runz's trajectories and reports whether the gbd
// series form one solve's set.
func checkRunzSet(t *testing.T) bool {
	t.Helper()
	raw, err := obs.LastRunJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Trajectories map[string][]*float64 `json:"trajectories"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	lo, up := doc.Trajectories["gbd.lower_bound"], doc.Trajectories["gbd.upper_bound"]
	pot, gap := doc.Trajectories["gbd.potential"], doc.Trajectories["gbd.gap"]
	if len(lo) != len(up) || len(up) != len(pot) || len(pot) != len(gap) {
		t.Errorf("series lengths lower %d upper %d potential %d gap %d: mixed solves",
			len(lo), len(up), len(pot), len(gap))
		return false
	}
	for i := range gap {
		if lo[i] == nil || up[i] == nil {
			continue // a non-finite bound marshals as null
		}
		if want := *up[i] - *lo[i]; gap[i] == nil || *gap[i] != want {
			t.Errorf("iteration %d: gap %v, upper − lower = %v: mixed solves", i, gap[i], want)
			return false
		}
	}
	return true
}
