package game

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

// Instance is a game Validate accepts, together with the per-organization
// rows the solvers read, derived by the same walk over ρ. Only the
// constructors — NewInstance, TakeInstance and DefaultInstance — build one,
// over a config the instance owns, so the check holds for the instance's
// lifetime: the config Config returns is read-only.
type Instance struct {
	cfg Config
	rows
}

// rows are the per-organization quantities of a game that depend on its
// config alone. Each is the value of the expression the naive path
// (Config.Payoff, Potential, Weight, RhoRowSum) evaluates, with the same
// operands in the same order, so a fold that reads one carries the naive
// path's bits.
type rows struct {
	scale   []float64 // omegaScale(i)
	q       []float64 // quality()
	bits    []float64 // DataBits
	prof    []float64 // Profitability
	commE   []float64 // Comm.CommEnergy()
	z       []float64 // Weight(i), Theorem 1's z_i
	rhoBar  []float64 // RhoRowSum(i)
	dmgCoef []float64 // (1−α)·Σ_j ρ_ij·p_j — the damage factor of Eq. (7)
	weight  []float64 // EffectiveWeight(i), the w_i Potential divides by
	gRowSum []float64 // γ·RhoRowSum(i), Potential's factor of x_i
	rowG    []float64 // Σ_{j≠i} γ·ρ_ij

	// Per (organization, CPU level): organization i's k-th level at
	// i·stride + k, stride being the longest grid.
	hi     []float64 // FeasibleD's upper end; under D_min when infeasible
	slope  []float64 // b_{i,k}, the payoff's slope in d_i free of P (DESIGN.md §10)
	stride int

	buf []float64 // the backing array of every row
}

// rowCount is the number of per-organization rows.
const rowCount = 11

// size points every row at n organizations of up to m CPU levels,
// reusing the backing array when its capacity allows.
func (r *rows) size(n, m int) {
	total := (rowCount + 2*m) * n
	if cap(r.buf) < total {
		r.buf = make([]float64, total)
	}
	buf := r.buf[:total]
	for _, v := range [...]*[]float64{&r.scale, &r.q, &r.bits, &r.prof, &r.commE,
		&r.z, &r.rhoBar, &r.dmgCoef, &r.weight, &r.gRowSum, &r.rowG} {
		*v = buf[:n:n]
		buf = buf[n:]
	}
	r.hi, r.slope, r.stride = buf[:n*m:n*m], buf[n*m:], m
}

// NewInstance checks cfg as Validate does and derives its rows in the same
// walk. The instance owns a deep copy of cfg, so changing cfg afterwards
// changes nothing the instance holds; a changed game needs a new instance.
func NewInstance(cfg *Config) (*Instance, error) {
	in := &Instance{cfg: *cfg}
	in.cfg.deepen()
	return in.check()
}

// TakeInstance is NewInstance without the copy, for a config built for it
// (a decoder's fresh output) or lent to it for one call (a solver's
// *Config entry point): the instance uses cfg's slices as they are, so
// they must not change while it lives.
func TakeInstance(cfg Config) (*Instance, error) {
	in := &Instance{cfg: cfg}
	return in.check()
}

// check runs the instance's one walk over its config.
func (in *Instance) check() (*Instance, error) {
	if err := in.cfg.check(&in.rows); err != nil {
		return nil, err
	}
	return in, nil
}

// Config returns the instance's game. It is read-only: the instance's rows
// were derived from it.
func (in *Instance) Config() *Config { return &in.cfg }

// N returns the number of organizations.
func (in *Instance) N() int { return in.cfg.N() }

// Weights returns z_i = Weight(i) of every organization (read-only).
func (in *Instance) Weights() []float64 { return in.z }

// RhoRowSums returns ρ̄_i = RhoRowSum(i) of every organization (read-only).
func (in *Instance) RhoRowSums() []float64 { return in.rhoBar }

// OmegaScales returns OmegaScale(i) of every organization (read-only).
func (in *Instance) OmegaScales() []float64 { return in.scale }

// deepen gives c fresh copies of the memory it shares with the config it
// was copied from: its organizations, their CPU levels and ρ (one array
// for all the floats). Only the accuracy model, which nothing changes once
// it is built, and the strings stay shared.
func (c *Config) deepen() {
	floats := 0
	for i := range c.Orgs {
		floats += len(c.Orgs[i].CPULevels)
	}
	for _, row := range c.Rho {
		floats += len(row)
	}
	buf := make([]float64, floats)
	take := func(src []float64) []float64 {
		if src == nil {
			return nil
		}
		dst := buf[:len(src):len(src)]
		buf = buf[len(src):]
		copy(dst, src)
		return dst
	}
	if c.Orgs != nil {
		c.Orgs = append(make([]Organization, 0, len(c.Orgs)), c.Orgs...)
		for i := range c.Orgs {
			c.Orgs[i].CPULevels = take(c.Orgs[i].CPULevels)
		}
	}
	if c.Rho != nil {
		rho := make([][]float64, len(c.Rho))
		for i, row := range c.Rho {
			rho[i] = take(row)
		}
		c.Rho = rho
	}
}

// checks counts the walks of Config.check (Checks).
var checks atomic.Int64

// Checks returns how many times a config has been checked — by an
// Instance constructor, Validate or DeltaEvaluator.Reset — since the
// process started: each is one walk over ρ.
func Checks() int64 { return checks.Load() }

// check is Validate's walk, deriving r on the way when r is not nil. The
// scalar and shape checks come first; then one row-major walk over ρ checks
// each entry and folds the sums of Weight, RhoRowSum and Damage with
// Σ_{j≠i} γ·ρ_ij; then each organization is checked, its weight read off
// the walk; last, r's per-level rows are derived. The checks run in
// Validate's order, so the first failure and its text are Validate's. On a
// failure r is sized but only partly derived.
func (c *Config) check(r *rows) error {
	checks.Add(1)
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
	if r != nil {
		m := 0
		for i := range c.Orgs {
			m = max(m, len(c.Orgs[i].CPULevels))
		}
		r.size(n, m)
		for i := range c.Orgs {
			o := &c.Orgs[i]
			r.scale[i] = c.omegaScale(i)
			r.q[i] = o.quality()
			r.bits[i] = o.DataBits
			r.prof[i] = o.Profitability
			r.commE[i] = o.Comm.CommEnergy()
		}
	}
	// Symmetry is checked above the diagonal only: |ρ_ij − ρ_ji| is the
	// same float whichever way it is subtracted, so below it the walk
	// would repeat a comparison row j already passed at (j, i). Validate
	// checked each entry's range, then its symmetry; asymmetric keeps that
	// order by running before a range error is reported. The first
	// organization whose weight fails is remembered, with its z, for the
	// organization checks to report in their order.
	gamma, oneMinusAlpha := c.Gamma, 1-c.Personal.Alpha
	bad, badZ := -1, 0.0
	for i, row := range c.Rho {
		if row[i] != 0 {
			return fmt.Errorf("game config: rho[%d][%d] = %v, diagonal must be zero", i, i, row[i])
		}
		orgs := c.Orgs[:len(row)]
		sum, z, rowSum, g1 := 0.0, orgs[i].Profitability, 0.0, 0.0
		for j, v := range row {
			if !(v >= 0 && v <= 1) {
				if k := c.asymmetric(i, j); k >= 0 {
					return fmt.Errorf("game config: rho not symmetric at (%d,%d)", i, k)
				}
				return fmt.Errorf("game config: rho[%d][%d] = %v outside [0,1]", i, j, v)
			}
			p := v * orgs[j].Profitability
			sum += p
			z -= p
			rowSum += v
			g1 += gamma * v // Σ_{j≠i}: at j = i the addend is ±0, and g1 ≥ +0 absorbs it
		}
		if k := c.asymmetric(i, n); k >= 0 {
			return fmt.Errorf("game config: rho not symmetric at (%d,%d)", i, k)
		}
		if bad < 0 && !(z > 0 && oneMinusAlpha*z >= 1/MaxMagnitude) {
			bad, badZ = i, z
		}
		if r != nil {
			r.z[i] = z
			r.rhoBar[i] = rowSum
			r.dmgCoef[i] = oneMinusAlpha * sum
			r.weight[i] = oneMinusAlpha * z
			r.gRowSum[i] = gamma * rowSum
			r.rowG[i] = g1
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
		if i == bad {
			if !(badZ > 0) {
				return fmt.Errorf("game config: weight z_%d = %v ≤ 0; call NormalizeRho (Theorem 1 requires z_i > 0)", i, badZ)
			}
			return fmt.Errorf("game config: potential weight (1−α)·z_%d = %v under %g", i, oneMinusAlpha*badZ, 1/MaxMagnitude)
		}
		scale := c.omegaScale(i)
		omegaTop += scale
		scaleTop = math.Max(scaleTop, scale)
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
	if r != nil {
		r.levels(c)
	}
	return nil
}

// levels derives the per-level rows: FeasibleD's hi, and the slope
// b_{i,k} = Σ_{j≠i} γ·ρ_ij·q_i·s_i − ϖ_e·κ_i·f_k²·η_i·s_i that the
// redistribution and the computation energy give the payoff in d_i.
func (r *rows) levels(c *Config) {
	for i := range c.Orgs {
		o := &c.Orgs[i]
		at := i * r.stride
		for k, f := range o.CPULevels {
			_, r.hi[at+k], _ = c.FeasibleD(i, f)
			r.slope[at+k] = r.rowG[i]*r.q[i]*r.bits[i] - c.EnergyWeight*o.Comm.Kappa*f*f*o.Comm.CyclesPerBit*r.bits[i]
		}
		for k := len(o.CPULevels); k < r.stride; k++ {
			r.hi[at+k], r.slope[at+k] = math.NaN(), math.NaN() // no such level
		}
	}
}

// asymmetric returns the first column k in (i, end) where row i of ρ and
// its column i differ by more than TolRhoSymmetry, or −1.
func (c *Config) asymmetric(i, end int) int {
	row := c.Rho[i]
	for k := i + 1; k < end; k++ {
		if !(math.Abs(row[k]-c.Rho[k][i]) <= TolRhoSymmetry) {
			return k
		}
	}
	return -1
}
