// Package fleet batches thousands of coopetition-game solves through a
// shared worker pool, choosing the solver for each instance by its size —
// the many-instances axis of the ROADMAP (mechanism parameter sweeps,
// per-epoch re-solves, mechanism-as-a-service gateways).
//
// Determinism contract: per-instance results are byte-identical to solving
// the same instance alone with the chosen plan. The planner's decision is a
// pure function of the instance's statistics — never of load, timing or the
// host — so a batch and a one-at-a-time sequence pick identical plans.
package fleet

import (
	"fmt"
	"strings"

	"tradefl/internal/game"
)

// Plan names a solving strategy for one instance.
type Plan int

// Plans. PlanAuto is resolved per instance by Planner.Decide; the others
// force a fixed strategy.
const (
	// PlanAuto lets the planner pick PlanPruned or PlanDBR by instance size.
	PlanAuto Plan = iota
	// PlanDBR solves with distributed best response (Algorithm 2).
	PlanDBR
	// PlanPruned solves with CGBD and the pruned depth-first master.
	PlanPruned
	// PlanTraversal solves with CGBD and the exhaustive traversal master,
	// the paper's method. It returns the grid point PlanPruned returns at
	// Θ(m^N) cost, so it is a forced plan only — experiments and the
	// benchmark name it — and PlanAuto never resolves to it.
	PlanTraversal
)

// String returns the CLI spelling of the plan.
func (p Plan) String() string {
	switch p {
	case PlanAuto:
		return "auto"
	case PlanDBR:
		return "dbr"
	case PlanPruned:
		return "pruned"
	case PlanTraversal:
		return "traversal"
	}
	return fmt.Sprintf("plan(%d)", int(p))
}

// ParsePlan parses a -plan flag value.
func ParsePlan(s string) (Plan, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "auto":
		return PlanAuto, nil
	case "dbr":
		return PlanDBR, nil
	case "pruned":
		return PlanPruned, nil
	case "traversal":
		return PlanTraversal, nil
	}
	return 0, fmt.Errorf("fleet: unknown plan %q (want auto, dbr, pruned or traversal)", s)
}

// Stats are the per-instance features the planner decides from. They are
// derived from the config alone, so identical instances always produce
// identical decisions.
type Stats struct {
	// N is the organization count.
	N int
	// Grid is the full f-grid cardinality Π m_i (float; +Inf for grids
	// beyond float range).
	Grid float64
	// Personalized reports the personalization extension (α > 0), which
	// CGBD rejects: only DBR solves such a game.
	Personalized bool
}

// StatsOf derives the planner features of one instance. The second argument
// (once the CGBD tolerance) is read by nothing; bench/traced.go passes it.
func StatsOf(cfg *game.Config, _ float64) Stats {
	st := Stats{N: cfg.N(), Grid: 1, Personalized: cfg.Personal.Alpha > 0}
	for i := range cfg.Orgs {
		st.Grid *= float64(len(cfg.Orgs[i].CPULevels))
	}
	return st
}

// prunedMaxN is the largest organization count PlanAuto answers with the
// pruned CGBD master: the measured crossover (BenchmarkPlanCrossover,
// DESIGN.md §12). It is a bound on N, not on the grid: m = 2…5 all cross
// between N = 6 and N = 8. Up to it DBR is also the less predictable
// solver: a few generated instances in 512 need 70–200 sweeps, above it
// none needed more than 3.
const prunedMaxN = 6

// Decision is the planner's verdict for one instance: the solver.
type Decision struct {
	Plan Plan
}

// Planner picks a per-instance plan.
type Planner struct {
	// Forced bypasses the size rule when not PlanAuto.
	Forced Plan
}

// Decide resolves the plan for one instance: under PlanAuto a personalized
// game (CGBD rejects it) or one with more than prunedMaxN organizations
// goes to PlanDBR, every other to PlanPruned. The second argument (once the
// idle pool workers a CGBD solve could shard over) is read by nothing;
// bench/traced.go passes it.
func (pl *Planner) Decide(st Stats, _ int) Decision {
	dec := Decision{Plan: pl.Forced}
	if dec.Plan == PlanAuto {
		dec.Plan = PlanPruned
		if st.Personalized || st.N > prunedMaxN {
			dec.Plan = PlanDBR
		}
	}
	return dec
}
