// Package fleet batches thousands of coopetition-game solves through a
// shared worker pool, choosing the solver for each instance with a fixed
// cost rule — the many-instances axis of the ROADMAP (mechanism parameter
// sweeps, per-epoch re-solves, mechanism-as-a-service gateways).
//
// Determinism contract: per-instance results are byte-identical to solving
// the same instance alone with the chosen plan. The planner's decision is a
// pure function of the instance's statistics — never of load, timing or the
// host — so a batch and a one-at-a-time sequence pick identical plans.
package fleet

import (
	"fmt"
	"math"
	"strings"

	"tradefl/internal/game"
)

// Plan names a solving strategy for one instance.
type Plan int

// Plans. PlanAuto is resolved per instance by the cost model; the others
// force a fixed strategy.
const (
	// PlanAuto lets the planner pick the cheaper predicted plan of
	// PlanPruned and PlanDBR.
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
// derived from the config alone (plus the solve tolerance), so identical
// instances always produce identical decisions.
type Stats struct {
	// N is the organization count.
	N int
	// MaxLevels is the widest per-organization CPU grid.
	MaxLevels int
	// MeanLevels is the mean CPU-grid width.
	MeanLevels float64
	// Grid is the full f-grid cardinality Π m_i (float; +Inf for grids
	// beyond float range).
	Grid float64
	// Epsilon is the CGBD convergence tolerance the solve would use.
	Epsilon float64
	// Personalized reports the personalization extension (α > 0), which
	// CGBD rejects: only DBR solves such a game.
	Personalized bool
}

// StatsOf derives the planner features of one instance. epsilon is the
// CGBD tolerance the engine would solve with (0 = the gbd default).
func StatsOf(cfg *game.Config, epsilon float64) Stats {
	if epsilon == 0 {
		epsilon = 1e-6
	}
	st := Stats{N: cfg.N(), Grid: 1, Epsilon: epsilon, Personalized: cfg.Personal.Alpha > 0}
	total := 0
	for i := range cfg.Orgs {
		m := len(cfg.Orgs[i].CPULevels)
		total += m
		if m > st.MaxLevels {
			st.MaxLevels = m
		}
		st.Grid *= float64(m)
	}
	if st.N > 0 {
		st.MeanLevels = float64(total) / float64(st.N)
	}
	return st
}

// The per-plan cost model, in nanoseconds. The functional forms and their
// coefficients were fitted offline on the reference host's measured solver
// scalings (DESIGN.md §12):
//
//	cost(dbr)    = dbrBaseNs    + dbrUnitNs·N^1.5·m̄
//	cost(pruned) = prunedBaseNs + prunedUnitNs·G^0.4·ε-factor
//
// where m̄ is the mean grid width, G = Π m_i the full grid cardinality, and
// the ε-factor mildly scales CGBD cost with the tolerance (tighter ε, more
// iterations). A personalized game costs +Inf under CGBD, which rejects it.
// Only the crossover the two forms imply matters — it is approximate on any
// other host, and every plan returns a correct equilibrium.
const (
	dbrBaseNs    = 10_000
	dbrUnitNs    = 1_500
	prunedBaseNs = 10_000
	prunedUnitNs = 1_300
)

// epsFactor scales CGBD cost with the convergence tolerance: tighter ε
// takes more iterations. Mild and clamped so an extreme ε cannot dominate
// the structural terms.
func epsFactor(epsilon float64) float64 {
	if epsilon <= 0 {
		return 1
	}
	f := 1 + 0.1*math.Log10(1e-6/epsilon)
	return math.Min(2, math.Max(0.5, f))
}

func costDBR(st Stats) float64 {
	return dbrBaseNs + dbrUnitNs*math.Pow(float64(st.N), 1.5)*st.MeanLevels
}

func costPruned(st Stats) float64 {
	if st.Personalized {
		return math.Inf(1)
	}
	return prunedBaseNs + prunedUnitNs*math.Pow(st.Grid, 0.4)*epsFactor(st.Epsilon)
}

// Decision is the planner's verdict for one instance. Plan selects the
// solver; Workers tunes within-instance sharding, a byte-identical knob —
// output bytes never depend on it, which is what makes the load-aware
// choice safe.
type Decision struct {
	Plan Plan
	// Workers is the within-instance worker count for the CGBD
	// master-problem shards (1 = exact serial path); DBR ignores it.
	Workers int
}

// Planner picks a per-instance plan from the cost model.
type Planner struct {
	// Forced bypasses the cost model when not PlanAuto.
	Forced Plan
}

// Decide resolves the plan and worker count for one instance: under
// PlanAuto the cheaper modeled plan of PlanPruned and PlanDBR, PlanPruned on
// a tie (a NaN or infinite cost never wins). spare is the number of idle pool workers the instance may
// additionally occupy for within-instance sharding (0 on a saturated pool,
// which is the norm mid-batch); it influences Workers only, never the plan,
// so decisions stay deterministic per instance.
func (pl *Planner) Decide(st Stats, spare int) Decision {
	dec := Decision{Plan: pl.Forced, Workers: 1}
	if dec.Plan == PlanAuto {
		best := math.Inf(1)
		if c := costPruned(st); c < best {
			best, dec.Plan = c, PlanPruned
		}
		if costDBR(st) < best {
			dec.Plan = PlanDBR
		}
	}
	// Within-instance sharding pays only when the instance is large and the
	// pool has idle workers (tail of a batch, or a huge lone instance).
	// Tiny instances always take the exact serial path: goroutine fan-out
	// costs more than the whole solve at N ≤ 4.
	if st.N > 4 && spare > 0 && st.Grid >= 16384 {
		dec.Workers = spare + 1
		if dec.Workers > st.MaxLevels {
			dec.Workers = st.MaxLevels
		}
	}
	return dec
}
