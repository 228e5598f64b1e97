// Package game implements the TradeFL coopetition game (Sec. III-IV of the
// paper): organization payoffs with competition damage and payoff
// redistribution, the weighted potential function of Theorem 1, and checkers
// for the mechanism properties of Definitions 3-5 (individual rationality,
// computational efficiency, budget balance).
//
// Notation follows the paper: organization i contributes a data fraction
// d_i ∈ [Dmin, 1] of its s_i bits and computation f_i drawn from a discrete
// CPU-frequency set F_i. Ω = Σ_i d_i·s_i is the total contributed data (the
// accuracy model may measure Ω in samples; see Config.OmegaOf).
package game

import (
	"errors"
	"fmt"
	"math"

	"tradefl/internal/accuracy"
	"tradefl/internal/comm"
)

// Organization describes one cross-silo FL participant.
type Organization struct {
	// Name identifies the organization in logs and experiment output.
	Name string `json:"name"`
	// DataBits is s_i, the size of the local dataset in bits.
	DataBits float64 `json:"dataBits"`
	// Samples is |S_i|, the number of local data samples.
	Samples float64 `json:"samples"`
	// Profitability is p_i, revenue per unit of global-model performance.
	Profitability float64 `json:"profitability"`
	// CPULevels is the discrete frequency set [F^(1), ..., F^(m)] in
	// cycles/second, sorted ascending.
	CPULevels []float64 `json:"cpuLevels"`
	// Comm holds the timing/energy constants of Sec. III-B/D.
	Comm comm.Profile `json:"comm"`
	// Quality is q_i ∈ (0, 1], the data-quality extension of footnote 3
	// (which the paper holds constant at 1): contributed data counts as
	// q_i·d_i·s_i toward both the accuracy argument Ω and the
	// redistribution index, while training time and energy are paid on the
	// raw volume — low-quality data burns resources without earning
	// credit. Zero means 1 (the paper's model).
	Quality float64 `json:"quality,omitempty"`
}

// quality returns q_i with the zero-value default.
func (o *Organization) quality() float64 {
	if o.Quality == 0 {
		return 1
	}
	return o.Quality
}

// Strategy is π_i = {d_i, f_i}: the data fraction and CPU frequency an
// organization commits to training.
type Strategy struct {
	D float64 `json:"d"`
	F float64 `json:"f"`
}

// Profile is a full strategy profile π, indexed like Config.Orgs.
type Profile []Strategy

// Clone returns a deep copy of the profile.
func (p Profile) Clone() Profile {
	out := make(Profile, len(p))
	copy(out, p)
	return out
}

// Config is a fully-specified coopetition game instance.
type Config struct {
	// Orgs is the player set O.
	Orgs []Organization `json:"orgs"`
	// Rho is the symmetric competition-intensity matrix ρ with zero
	// diagonal; Rho[i][j] ∈ [0, 1].
	Rho [][]float64 `json:"rho"`
	// Gamma is γ, the incentive intensity of payoff redistribution (Eq. 9).
	Gamma float64 `json:"gamma"`
	// Lambda is λ, the unit-uniforming weight of computation in the
	// contribution index x_i = d_i·s_i + λ·f_i (Eq. 9).
	Lambda float64 `json:"lambda"`
	// EnergyWeight is ϖ_e, the weighting factor of training overhead.
	EnergyWeight float64 `json:"energyWeight"`
	// DMin is the minimum participation data fraction D_min ∈ (0, 1].
	DMin float64 `json:"dMin"`
	// Deadline is τ, the per-round completion deadline in seconds.
	Deadline float64 `json:"deadlineSeconds"`
	// Accuracy is the data-accuracy model P(Ω). TradeFL assumes no specific
	// functional form, only the shape property of Eq. (5).
	Accuracy accuracy.Model `json:"-"`
	// OmegaInSamples selects the unit of Ω fed to the accuracy model:
	// samples (d_i·|S_i|) when true, bits (d_i·s_i) when false. The
	// redistribution index always uses bits, as in Eq. (9).
	OmegaInSamples bool `json:"omegaInSamples"`
	// Personal enables the personalization extension (the paper's future
	// work); the zero value reproduces the paper's model exactly.
	Personal Personalization `json:"personal"`
}

// N returns the number of organizations.
func (c *Config) N() int { return len(c.Orgs) }

// MaxMagnitude bounds every scalar of a config, and 1/MaxMagnitude every
// potential weight (1−α)·z_i from below. A payoff or potential addend is a
// product of at most six scalars over at most one weight, so everything the
// solvers compute from an accepted config is finite (and far enough inside
// the float range for DeltaEvaluator.ErrBound's rounding model to hold).
// Real instances sit many orders below it: s_i ~ 10¹⁰ bits, f ~ 10⁹ Hz.
const MaxMagnitude = 1e15

// within reports lo ≤ v ≤ MaxMagnitude; false for NaN.
func within(lo, v float64) bool { return v >= lo && v <= MaxMagnitude }

// Validate checks structural invariants: matching dimensions, symmetric ρ
// with zero diagonal and entries in [0,1], positive weights z_i, sorted CPU
// levels, valid communication profiles, and every magnitude finite and
// within MaxMagnitude — including the accuracy model's over the Ω range the
// game can reach. It does not mutate the config; use NormalizeRho to repair
// z_i ≤ 0.
func (c *Config) Validate() error {
	n := c.N()
	if n == 0 {
		return errors.New("game config: no organizations")
	}
	if c.Accuracy == nil {
		return errors.New("game config: nil accuracy model")
	}
	if !(c.DMin > 0 && c.DMin <= 1) {
		return fmt.Errorf("game config: DMin %v outside (0,1]", c.DMin)
	}
	if !(c.Deadline > 0) {
		return fmt.Errorf("game config: deadline %v must be positive", c.Deadline)
	}
	if !(c.Gamma >= 0 && c.Lambda >= 0 && c.EnergyWeight >= 0) {
		return errors.New("game config: gamma, lambda and energy weight must be nonnegative")
	}
	if !(c.Personal.Alpha >= 0 && c.Personal.Alpha < 1) {
		return fmt.Errorf("game config: personalization alpha %v outside [0,1)", c.Personal.Alpha)
	}
	if !(c.Personal.LocalBoost >= 0) {
		return fmt.Errorf("game config: personalization local boost %v negative", c.Personal.LocalBoost)
	}
	for _, v := range [...]float64{c.Deadline, c.Gamma, c.Lambda, c.EnergyWeight, c.Personal.LocalBoost} {
		if !within(0, v) {
			return fmt.Errorf("game config: deadline, gamma, lambda, energy weight or local boost %v exceeds %g", v, MaxMagnitude)
		}
	}
	if len(c.Rho) != n {
		return fmt.Errorf("game config: rho has %d rows, want %d", len(c.Rho), n)
	}
	// Every row's length first: the symmetry check below reads Rho[j][i].
	for i, row := range c.Rho {
		if len(row) != n {
			return fmt.Errorf("game config: rho row %d has %d cols, want %d", i, len(row), n)
		}
	}
	for i, row := range c.Rho {
		if row[i] != 0 {
			return fmt.Errorf("game config: rho[%d][%d] = %v, diagonal must be zero", i, i, row[i])
		}
		for j, v := range row {
			if !(v >= 0 && v <= 1) {
				return fmt.Errorf("game config: rho[%d][%d] = %v outside [0,1]", i, j, v)
			}
			if !(math.Abs(v-c.Rho[j][i]) <= TolRhoSymmetry) {
				return fmt.Errorf("game config: rho not symmetric at (%d,%d)", i, j)
			}
		}
	}
	var omegaTop, scaleTop float64
	for i, o := range c.Orgs {
		if !(o.DataBits > 0 && o.Samples > 0) {
			return fmt.Errorf("game config: org %d has non-positive data size", i)
		}
		if !(o.Profitability > 0) {
			return fmt.Errorf("game config: org %d has non-positive profitability", i)
		}
		if !(o.Quality >= 0 && o.Quality <= 1) {
			return fmt.Errorf("game config: org %d quality %v outside (0,1] (0 means default 1)", i, o.Quality)
		}
		if len(o.CPULevels) == 0 {
			return fmt.Errorf("game config: org %d has no CPU levels", i)
		}
		for k := 1; k < len(o.CPULevels); k++ {
			if !(o.CPULevels[k] > o.CPULevels[k-1]) {
				return fmt.Errorf("game config: org %d CPU levels not strictly ascending", i)
			}
		}
		if !(o.CPULevels[0] > 0) {
			return fmt.Errorf("game config: org %d has non-positive CPU level", i)
		}
		if err := o.Comm.Validate(); err != nil {
			return fmt.Errorf("game config: org %d: %w", i, err)
		}
		for _, v := range [...]float64{
			o.DataBits, o.Samples, o.Profitability, o.CPULevels[len(o.CPULevels)-1],
			o.Comm.DownloadTime, o.Comm.UploadTime, o.Comm.CyclesPerBit,
			o.Comm.DownloadPower, o.Comm.UploadPower, o.Comm.Kappa,
		} {
			if !within(0, v) {
				return fmt.Errorf("game config: org %d has a data size, profitability, CPU level or comm constant %v that exceeds %g", i, v, MaxMagnitude)
			}
		}
		z := c.Weight(i)
		if !(z > 0) {
			return fmt.Errorf("game config: weight z_%d = %v ≤ 0; call NormalizeRho (Theorem 1 requires z_i > 0)", i, z)
		}
		if w := (1 - c.Personal.Alpha) * z; !(w >= 1/MaxMagnitude) { // EffectiveWeight(i), without its second O(N) Weight
			return fmt.Errorf("game config: potential weight (1−α)·z_%d = %v under %g", i, w, 1/MaxMagnitude)
		}
		omegaTop += c.omegaScale(i)
		scaleTop = math.Max(scaleTop, c.omegaScale(i))
	}
	// P is monotone, so its values at the ends of the reachable Ω range
	// bound it on all of it: Ω ≤ Σ_i scale_i, and β·scale_i for the
	// personalized component.
	omegaTop = math.Max(omegaTop, c.Personal.boost()*scaleTop)
	for _, omega := range [...]float64{0, omegaTop} {
		if v := c.Accuracy.Value(omega); !within(-MaxMagnitude, v) {
			return fmt.Errorf("game config: accuracy model %s gives P(%g) = %v, beyond ±%g", c.Accuracy.Name(), omega, v, MaxMagnitude)
		}
	}
	return nil
}

// Weight returns z_i = p_i − Σ_j ρ_ij·p_j, the weighting factor of the
// weighted potential game (Theorem 1).
func (c *Config) Weight(i int) float64 {
	z := c.Orgs[i].Profitability
	for j := range c.Orgs {
		z -= c.Rho[i][j] * c.Orgs[j].Profitability
	}
	return z
}

// EffectiveWeight returns the potential-game weight under the
// personalization extension: w_i = (1−α)·z_i, which reduces to z_i in the
// paper's base model.
func (c *Config) EffectiveWeight(i int) float64 {
	return (1 - c.Personal.Alpha) * c.Weight(i)
}

// NormalizeRho caps the competition matrix so every weight satisfies
// z_i ≥ margin·p_i, implementing the paper's remark that "ρ_ij is mapped to
// a small number to ensure z_i > 0". The cap is pairwise and symmetric —
// ρ'_ij = ρ_ij·min(c_i, c_j) with per-organization factors c_i ∈ (0, 1] —
// so budget balance (which needs ρ symmetric) is preserved while rows of
// highly profitable organizations keep their full competition intensity; a
// single global rescale would make every mean-μ matrix collapse to the same
// effective matrix, erasing the μ-sensitivity of Figs. 10-11. It returns
// the smallest factor applied (1 when no capping was needed).
//
// The loop below skips rows whose sum cannot have grown, which is exact for
// ρ_ij ≥ 0 and p_j ≥ 0 — everything Validate can accept. A matrix with a
// negative entry fails Validate whatever the factors are, so what this
// leaves in it is not relied on.
func (c *Config) NormalizeRho(margin float64) float64 {
	minFactor, _ := c.normalizeRho(margin)
	return minFactor
}

// normalizeRho is NormalizeRho, also counting the row sums it evaluated
// (the work the equivalence tests bound).
func (c *Config) normalizeRho(margin float64) (minFactor float64, rowEvals int) {
	n := c.N()
	// One allocation: factors and a dense copy of the profitabilities, so
	// the N² inner loop below strides over float64s instead of Organizations.
	buf := make([]float64, 2*n)
	factors, prof := buf[:n], buf[n:]
	// stale[i] marks a row to evaluate: every row once, then row i only
	// after its own c_i moved — another row's c_j dropping cannot push row i
	// over its limit. Factors only shrink. With ρ_ij ≥ 0 and p_j ≥ 0 each
	// addend fl(fl(ρ_ij·min(c_i,c_j))·p_j) is non-decreasing in the minimum,
	// and a left-to-right sum of non-negative addends, rounded (or fused
	// with the last product) at each step, is non-decreasing in every
	// addend. Row i was within limit·(1+TolRelative) when last evaluated,
	// with the c_i it still has, so summing it again gives no more, in
	// floating point: the branch is not taken, the sum's bits go unused.
	stale := make([]bool, n)
	for i := range factors {
		factors[i] = 1
		prof[i] = c.Orgs[i].Profitability
		stale[i] = true
	}
	// Gauss–Seidel on the factors; the builtin min is math.Min's result
	// without the call and, on amd64, without a data-dependent branch.
	for iter := 0; iter < 200; iter++ {
		changed := false
		for i := 0; i < n; i++ {
			if !stale[i] {
				continue
			}
			stale[i] = false
			rowEvals++
			row := c.Rho[i][:n]
			fi := factors[i]
			var sum float64
			for j, r := range row {
				sum += r * min(fi, factors[j]) * prof[j]
			}
			limit := (1 - margin) * prof[i]
			if sum > limit+TolRelative*limit {
				factors[i] = fi * (limit / sum)
				stale[i] = true
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	minFactor = 1.0
	for _, f := range factors {
		if f < minFactor {
			minFactor = f
		}
	}
	if minFactor >= 1-TolRelative {
		return 1, rowEvals
	}
	for i := 0; i < n; i++ {
		row := c.Rho[i][:n]
		fi := factors[i]
		for j := range row {
			row[j] *= min(fi, factors[j])
		}
	}
	return minFactor, rowEvals
}

// RhoRowSum returns ρ̄_i = Σ_j ρ_ij.
func (c *Config) RhoRowSum(i int) float64 {
	var sum float64
	for _, v := range c.Rho[i] {
		sum += v
	}
	return sum
}

// omegaScale returns the per-organization multiplier that converts a data
// fraction d_i into this config's Ω unit, quality-weighted.
func (c *Config) omegaScale(i int) float64 {
	if c.OmegaInSamples {
		return c.Orgs[i].quality() * c.Orgs[i].Samples
	}
	return c.Orgs[i].quality() * c.Orgs[i].DataBits
}

// OmegaScale returns the factor that converts organization i's data
// fraction d_i into Ω units (quality-weighted samples or bits); exposed for
// the solvers.
func (c *Config) OmegaScale(i int) float64 { return c.omegaScale(i) }

// DataCredit returns q_i·s_i, the redistribution credit (in bits) per unit
// of d_i; exposed for the solvers.
func (c *Config) DataCredit(i int) float64 {
	return c.Orgs[i].quality() * c.Orgs[i].DataBits
}

// Omega returns Ω(π) = Σ_i d_i·scale_i in the accuracy model's unit.
func (c *Config) Omega(p Profile) float64 {
	var omega float64
	for i, s := range p {
		omega += s.D * c.omegaScale(i)
	}
	return omega
}

// OmegaExcluding returns Ω with organization i's contribution removed,
// i.e. the paper's P(0, d_-i) argument.
func (c *Config) OmegaExcluding(p Profile, i int) float64 {
	return c.Omega(p) - p[i].D*c.omegaScale(i)
}

// Performance returns P(Ω(π)), the global model's accuracy performance.
func (c *Config) Performance(p Profile) float64 {
	return c.Accuracy.Value(c.Omega(p))
}

// Revenue returns p_i·P_i(d_i, d_-i), organization i's revenue from the
// model it receives (Sec. III-C1; equals p_i·P(Ω) in the base model, the
// personalized mixture under the extension).
func (c *Config) Revenue(i int, p Profile) float64 {
	return c.Orgs[i].Profitability * c.PersonalPerformance(i, p)
}

// Damage returns D_i(d_i, d_-i) = Σ_j ρ_ij·p_j·[P(d_i,d_-i) − P(0,d_-i)],
// the coopetition damage of Eq. (6)-(7). Under personalization only the
// shared global component reaches competitors, so the damage scales by
// (1−α).
func (c *Config) Damage(i int, p Profile) float64 {
	gain := c.Accuracy.Value(c.Omega(p)) - c.Accuracy.Value(c.OmegaExcluding(p, i))
	var sum float64
	for j := range c.Orgs {
		sum += c.Rho[i][j] * c.Orgs[j].Profitability
	}
	return (1 - c.Personal.Alpha) * sum * gain
}

// ContributionIndex returns x_i = q_i·d_i·s_i + λ·f_i, the resource index
// used by payoff redistribution (Eq. 9; q_i = 1 in the paper's model). The
// data term is always in bits.
func (c *Config) ContributionIndex(i int, s Strategy) float64 {
	return c.Orgs[i].quality()*s.D*c.Orgs[i].DataBits + c.Lambda*s.F
}

// Transfer returns r_ij = γ·ρ_ij·(x_i − x_j), the redistribution that i
// receives from j (Eq. 9). Antisymmetric: r_ij = −r_ji.
func (c *Config) Transfer(i, j int, p Profile) float64 {
	if i == j {
		return 0
	}
	xi := c.ContributionIndex(i, p[i])
	xj := c.ContributionIndex(j, p[j])
	return c.Gamma * c.Rho[i][j] * (xi - xj)
}

// Redistribution returns R_i = Σ_j r_ij (Eq. 10).
func (c *Config) Redistribution(i int, p Profile) float64 {
	var sum float64
	for j := range c.Orgs {
		sum += c.Transfer(i, j, p)
	}
	return sum
}

// Energy returns E_i, organization i's total training energy (Eq. 8).
func (c *Config) Energy(i int, s Strategy) float64 {
	return c.Orgs[i].Comm.TotalEnergy(s.D, c.Orgs[i].DataBits, s.F)
}

// Payoff returns C_i(π_i, π_-i) of Eq. (11):
//
//	C_i = p_i·P − ϖ_e·E_i − D_i + R_i.
func (c *Config) Payoff(i int, p Profile) float64 {
	return c.Revenue(i, p) -
		c.EnergyWeight*c.Energy(i, p[i]) -
		c.Damage(i, p) +
		c.Redistribution(i, p)
}

// Payoffs returns all C_i, computed with shared sub-expressions; prefer this
// to calling Payoff in a loop on hot paths. Ω(π) and P(Ω) are computed once
// and the per-organization exclusions Ω − d_i·scale_i are derived from the
// cached sum, so the whole vector costs O(N²) only for the ρ terms instead
// of recomputing the O(N) data sum for every organization.
func (c *Config) Payoffs(p Profile) []float64 {
	n := c.N()
	out := make([]float64, n)
	xs := make([]float64, n)
	var omega float64
	for i := range xs {
		xs[i] = c.ContributionIndex(i, p[i])
		omega += p[i].D * c.omegaScale(i)
	}
	perf := c.Accuracy.Value(omega)
	oneMinusAlpha := 1 - c.Personal.Alpha
	for i := 0; i < n; i++ {
		gain := perf - c.Accuracy.Value(omega-p[i].D*c.omegaScale(i))
		var damage, redist float64
		for j := 0; j < n; j++ {
			damage += c.Rho[i][j] * c.Orgs[j].Profitability
			redist += c.Rho[i][j] * (xs[i] - xs[j])
		}
		revenue := c.Orgs[i].Profitability * perf
		if c.Personal.enabled() {
			local := c.Accuracy.Value(c.localOmega(i, p[i]))
			revenue = c.Orgs[i].Profitability * (oneMinusAlpha*perf + c.Personal.Alpha*local)
		}
		out[i] = revenue -
			c.EnergyWeight*c.Energy(i, p[i]) -
			oneMinusAlpha*damage*gain +
			c.Gamma*redist
	}
	return out
}

// SocialWelfare returns Σ_i C_i(π).
func (c *Config) SocialWelfare(p Profile) float64 { return Welfare(c.Payoffs(p)) }

// Welfare folds a payoff vector into Σ_i C_i in index order: SocialWelfare
// for a caller that already holds Payoffs(π), to the bit.
func Welfare(payoffs []float64) float64 {
	var sum float64
	for _, v := range payoffs {
		sum += v
	}
	return sum
}

// TotalDamage returns Σ_i D_i(π), the series plotted in Fig. 9.
func (c *Config) TotalDamage(p Profile) float64 {
	var sum float64
	for i := range c.Orgs {
		sum += c.Damage(i, p)
	}
	return sum
}

// Potential evaluates the weighted potential function of Theorem 1 in its
// exact separable form (see DESIGN.md §2):
//
//	U(π) = P(Ω) + Σ_i [ α·p_i·P(β·d_i·scale_i) − ϖ_e·E_comp_i + γ·ρ̄_i·x_i ] / w_i ,
//
// with w_i = (1−α)·z_i. In the base model (α = 0) this is
// P(Ω) − Σ_i [ϖ_e·E_comp_i − γ·ρ̄_i·x_i]/z_i, and in either case it
// satisfies w_i·[U(π) − U(π')] = C_i(π) − C_i(π') exactly for any
// unilateral deviation by i (the communication-energy term of E_i is
// strategy-independent and is omitted, shifting U by a constant).
func (c *Config) Potential(p Profile) float64 {
	u := c.Performance(p)
	for i := range c.Orgs {
		w := c.EffectiveWeight(i)
		comp := c.Orgs[i].Comm.ComputeEnergy(p[i].D, c.Orgs[i].DataBits, p[i].F)
		term := c.Gamma*c.RhoRowSum(i)*c.ContributionIndex(i, p[i]) - c.EnergyWeight*comp
		if c.Personal.enabled() {
			term += c.Personal.Alpha * c.Orgs[i].Profitability * c.Accuracy.Value(c.localOmega(i, p[i]))
		}
		u += term / w
	}
	return u
}

// FeasibleD returns the feasible data-fraction interval [lo, hi] for
// organization i at frequency f: the intersection of [DMin, 1] with the
// deadline cap of constraint C^(3). ok is false when the interval is empty.
func (c *Config) FeasibleD(i int, f float64) (lo, hi float64, ok bool) {
	capD := c.Orgs[i].Comm.MaxDataFraction(c.Orgs[i].DataBits, f, c.Deadline)
	hi = math.Min(1, capD)
	lo = c.DMin
	return lo, hi, hi >= lo
}

// ValidStrategy reports whether π_i satisfies constraints C^(1)-C^(3) for
// organization i: d in range, f a listed CPU level, deadline met.
func (c *Config) ValidStrategy(i int, s Strategy) error {
	if s.D < c.DMin-TolDataFraction || s.D > 1+TolDataFraction {
		return fmt.Errorf("org %d: d=%v outside [%v, 1]", i, s.D, c.DMin)
	}
	found := false
	for _, f := range c.Orgs[i].CPULevels {
		if MatchesCPULevel(f, s.F) {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("org %d: f=%v not a listed CPU level", i, s.F)
	}
	o := c.Orgs[i]
	if slack := o.Comm.DeadlineSlack(s.D, o.DataBits, s.F, c.Deadline); slack < -TolDeadlineSec {
		return fmt.Errorf("org %d: deadline violated by %v s", i, -slack)
	}
	return nil
}

// ValidProfile reports the first constraint violation in π, or nil.
func (c *Config) ValidProfile(p Profile) error {
	if len(p) != c.N() {
		return fmt.Errorf("profile has %d strategies, want %d", len(p), c.N())
	}
	for i := range p {
		if err := c.ValidStrategy(i, p[i]); err != nil {
			return err
		}
	}
	return nil
}

// MinimalProfile returns the participation-floor profile π̃ with
// d_i = DMin and f_i = F^(m) (the paper's individual-rationality witness in
// Theorem 2 uses d = DMin). Fastest CPU guarantees deadline feasibility
// whenever any level is feasible.
func (c *Config) MinimalProfile() Profile {
	p := make(Profile, c.N())
	for i, o := range c.Orgs {
		p[i] = Strategy{D: c.DMin, F: o.CPULevels[len(o.CPULevels)-1]}
	}
	return p
}
