// Package dbr implements DBR, TradeFL's distributed best-response algorithm
// (Algorithm 2, Sec. V-D).
//
// Each organization i repeatedly computes its best response (Definition 9):
// the strategy π_i' = argmax C_i(π_i, π_-i) over its own feasible set. By
// Theorem 1 the coopetition game is a weighted potential game, so iterated
// best responses converge to a pure Nash equilibrium in finitely many
// updates.
//
// The package offers a local engine (Solve) used by simulations and
// benchmarks, and a distributed engine (engine.go / node.go) in which each
// organization runs as an autonomous node exchanging strategy announcements
// over a transport — no central parameter server, matching the paper's
// deployment story.
package dbr

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"tradefl/internal/game"
	"tradefl/internal/obs"
)

// Options configures the local solver and the distributed protocol nodes.
type Options struct {
	// MaxRounds is H, the cap on best-response sweeps (default 200).
	MaxRounds int
	// Tol is the minimum payoff improvement that counts as a strategy
	// change (default 1e-9); guards floating-point livelock.
	Tol float64
	// DTol is the golden-section tolerance on d (default 1e-7).
	DTol float64
	// TokenTimeout enables crash recovery in the distributed protocol:
	// a node that forwarded the token and hears nothing for this long
	// re-forwards it, skipping unreachable peers. Zero disables recovery
	// (used by the in-process engine, where peers cannot crash).
	TokenTimeout time.Duration
	// SuspectAfter is the number of times a token is re-sent to the SAME
	// silent peer before the peer is suspected crashed and skipped
	// (default 2). A timeout after a successful Send usually means the
	// message was lost in flight, not that the peer died; resending to the
	// same peer (idempotent via Seq dedup) keeps its strategy live instead
	// of freezing it — skipping on the first timeout can terminate the ring
	// at a non-equilibrium profile under message loss. Negative is
	// rejected.
	SuspectAfter int
	// Workers is accepted and ignored: a scan runs on the calling
	// goroutine (the within-scan fan-out it once sized was slower than the
	// serial scan at every tracked N). bench/traced.go still names the
	// field; it goes with the next change allowed to edit bench/.
	Workers int
}

// withDefaults fills the zero fields. It rejects what would leave a solve
// without a last sweep or a comparison without meaning — a negative
// MaxRounds, and a negative or non-finite Tol or DTol — and a negative
// SuspectAfter.
func (o Options) withDefaults() (Options, error) {
	if o.MaxRounds < 0 {
		return o, fmt.Errorf("dbr: MaxRounds %d is negative", o.MaxRounds)
	}
	if o.SuspectAfter < 0 {
		return o, fmt.Errorf("dbr: SuspectAfter %d is negative", o.SuspectAfter)
	}
	if !(o.Tol >= 0 && o.Tol <= math.MaxFloat64) {
		return o, fmt.Errorf("dbr: Tol %v is negative or not finite", o.Tol)
	}
	if !(o.DTol >= 0 && o.DTol <= math.MaxFloat64) {
		return o, fmt.Errorf("dbr: DTol %v is negative or not finite", o.DTol)
	}
	if o.MaxRounds == 0 {
		o.MaxRounds = 200
	}
	if o.Tol == 0 {
		o.Tol = 1e-9
	}
	if o.DTol == 0 {
		o.DTol = 1e-7
	}
	if o.SuspectAfter == 0 {
		o.SuspectAfter = 2
	}
	return o, nil
}

// Result reports the equilibrium and the convergence traces of Algorithm 2.
// A solve runs at least one sweep, so the traces are never empty.
type Result struct {
	// Profile is the converged strategy profile π^NE.
	Profile game.Profile
	// Rounds is the number of completed sweeps.
	Rounds int
	// Converged is true when a full sweep produced no strategy change.
	Converged bool
	// PotentialTrace records U(π) after every sweep (Fig. 4).
	PotentialTrace []float64
	// PayoffTrace records every organization's payoff after every sweep
	// (Fig. 5): PayoffTrace[t][i] = C_i after sweep t.
	PayoffTrace [][]float64
}

// Final returns C_i(Profile) for every organization and U(Profile): the
// traces' last rows, which the closing sweep evaluated on the final profile.
func (r *Result) Final() (payoffs []float64, potential float64) {
	return r.PayoffTrace[len(r.PayoffTrace)-1], r.PotentialTrace[len(r.PotentialTrace)-1]
}

// BestResponse computes organization i's best response to π_-i
// (Definition 9, problem (24)): for every CPU level it maximizes the
// payoff over the feasible data interval (concave in d_i: golden-section
// search, or its answer from the endpoint certificate) on a pooled Engine
// and returns the best (strategy, payoff) pair.
// ok is false when no CPU level admits a feasible d.
func BestResponse(cfg *game.Config, p game.Profile, i int, dTol float64) (game.Strategy, float64, bool) {
	e := acquireEngine(cfg)
	e.Bind(p)
	s, val, ok := e.BestResponse(i, dTol)
	releaseEngine(e)
	return s, val, ok
}

// candidate is the outcome of maximizing the payoff at one CPU level.
type candidate struct {
	s        game.Strategy
	val      float64
	feasible bool
}

// reduceCandidates folds candidates in CPU-level order with the serial
// strictly-greater comparison.
func reduceCandidates(cands []candidate) (game.Strategy, float64, bool) {
	bestVal := math.Inf(-1)
	var best game.Strategy
	found := false
	for _, c := range cands {
		if c.feasible && c.val > bestVal {
			bestVal = c.val
			best = c.s
			found = true
		}
	}
	return best, bestVal, found
}

// Solve runs Algorithm 2 from the paper's initial profile
// (d_i = D_min, f_i = F^(m)) unless a non-nil start is given.
func Solve(cfg *game.Config, start game.Profile, opts Options) (*Result, error) {
	return SolveCtx(context.Background(), cfg, start, opts)
}

// SolveCtx is Solve under a caller context: the solve's span joins the
// trace carried by ctx (the chaos harness threads its run trace through
// here), and a cancelled ctx stops the solve before the next organization's
// scan with an error wrapping ctx.Err(). An uncancelled ctx has no effect
// on the computed result.
func SolveCtx(ctx context.Context, cfg *game.Config, start game.Profile, opts Options) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("dbr: %w", err)
	}
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	p := start
	if p == nil {
		p = cfg.MinimalProfile()
	} else {
		p = p.Clone()
	}
	if err := cfg.ValidProfile(p); err != nil {
		return nil, fmt.Errorf("dbr: start profile: %w", err)
	}

	mRuns.Inc()
	solveStart := time.Now()
	_, root := obs.Span(ctx, "dbr.solve")
	defer mSolveSec.ObserveSince(solveStart)
	defer root.End()

	// One pooled engine is bound to the profile once and kept consistent
	// with O(1) updates after each move, so every payoff query inside the
	// sweep costs O(N).
	eng := acquireEngine(cfg)
	defer releaseEngine(eng)
	eng.Bind(p)

	res := &Result{}
	for t := 0; t < opts.MaxRounds; t++ {
		res.Rounds = t + 1
		mRounds.Inc()
		sweepStart := time.Now()
		changed := false
		for i := range cfg.Orgs {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("dbr: %w", err)
			}
			cur := eng.Payoff(i)
			next, val, ok := eng.BestResponse(i, opts.DTol)
			if !ok {
				continue
			}
			if val > cur+opts.Tol {
				p[i] = next
				eng.Update(i, next)
				changed = true
				mMoves.Inc()
			}
		}
		if changed || t == 0 {
			res.PotentialTrace = append(res.PotentialTrace, eng.ev.Potential())
			res.PayoffTrace = append(res.PayoffTrace, cfg.Payoffs(p))
		} else {
			// Nobody moved: the profile is the one the previous sweep left,
			// and both rows are functions of the profile alone.
			res.PotentialTrace = append(res.PotentialTrace, res.PotentialTrace[t-1])
			res.PayoffTrace = append(res.PayoffTrace, slices.Clone(res.PayoffTrace[t-1]))
		}
		mSweepSec.ObserveSince(sweepStart)
		if !changed {
			res.Converged = true
			break
		}
	}
	res.Profile = p
	if res.Converged {
		mConverged.Inc()
	}
	obs.RecordTrajectories(obs.Trajectory{Name: "dbr.potential", Values: res.PotentialTrace})
	audit(cfg, res, opts)
	return res, nil
}
