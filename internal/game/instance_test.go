package game

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"
)

// The two walks NewInstance replaces, kept as its oracle: Validate as it
// was, with Weight's own O(N) fold per organization, and the rows
// DeltaEvaluator.Reset derived in a second walk over ρ.

// oracleValidate is Config.Validate before NewInstance.
func oracleValidate(c *Config) error {
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

// oracleRows derives a config's rows as DeltaEvaluator.Reset did, and the
// per-level rows from FeasibleD and the payoff's linear terms.
func oracleRows(cfg *Config) rows {
	n := cfg.N()
	var r rows
	for _, v := range [...]*[]float64{&r.scale, &r.q, &r.bits, &r.prof, &r.commE,
		&r.z, &r.rhoBar, &r.dmgCoef, &r.weight, &r.gRowSum, &r.rowG} {
		*v = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		r.scale[i] = cfg.omegaScale(i)
		r.q[i] = cfg.Orgs[i].quality()
		r.bits[i] = cfg.Orgs[i].DataBits
		r.prof[i] = cfg.Orgs[i].Profitability
		r.commE[i] = cfg.Orgs[i].Comm.CommEnergy()
		r.z[i] = cfg.Weight(i)
		r.rhoBar[i] = cfg.RhoRowSum(i)
		r.stride = max(r.stride, len(cfg.Orgs[i].CPULevels))
	}
	prof, gamma := r.prof, cfg.Gamma
	for i := 0; i < n; i++ {
		row := cfg.Rho[i]
		prof := prof[:len(row)]
		sum, z, rowSum, g1 := 0.0, prof[i], 0.0, 0.0
		for j, rho := range row {
			p := rho * prof[j]
			sum += p
			z -= p
			rowSum += rho
			if j != i {
				g1 += gamma * rho
			}
		}
		r.dmgCoef[i] = (1 - cfg.Personal.Alpha) * sum
		r.weight[i] = (1 - cfg.Personal.Alpha) * z
		r.gRowSum[i] = cfg.Gamma * rowSum
		r.rowG[i] = g1
	}
	r.hi, r.slope = make([]float64, n*r.stride), make([]float64, n*r.stride)
	for i, o := range cfg.Orgs {
		for k := 0; k < r.stride; k++ {
			at := i*r.stride + k
			if k >= len(o.CPULevels) {
				r.hi[at], r.slope[at] = math.NaN(), math.NaN()
				continue
			}
			f := o.CPULevels[k]
			_, r.hi[at], _ = cfg.FeasibleD(i, f)
			// ∂/∂d of Σ_{j≠i} γ·ρ_ij·(q_i·d·s_i + λ·f) − ϖ_e·κ_i·f·f·η_i·d·s_i.
			r.slope[at] = r.rowG[i]*r.q[i]*r.bits[i] - cfg.EnergyWeight*o.Comm.Kappa*f*f*o.Comm.CyclesPerBit*r.bits[i]
		}
	}
	return r
}

// rowsDiffer names the first row entry whose bits differ between got and
// want, or returns "".
func rowsDiffer(got, want rows) string {
	named := []struct {
		name string
		g, w []float64
	}{
		{"scale", got.scale, want.scale}, {"q", got.q, want.q}, {"bits", got.bits, want.bits},
		{"prof", got.prof, want.prof}, {"commE", got.commE, want.commE},
		{"z", got.z, want.z}, {"rhoBar", got.rhoBar, want.rhoBar}, {"dmgCoef", got.dmgCoef, want.dmgCoef},
		{"weight", got.weight, want.weight}, {"gRowSum", got.gRowSum, want.gRowSum},
		{"rowG", got.rowG, want.rowG}, {"hi", got.hi, want.hi}, {"slope", got.slope, want.slope},
	}
	if got.stride != want.stride {
		return fmt.Sprintf("stride %d, want %d", got.stride, want.stride)
	}
	for _, r := range named {
		if len(r.g) != len(r.w) {
			return fmt.Sprintf("%s has %d entries, want %d", r.name, len(r.g), len(r.w))
		}
		for i := range r.g {
			if math.Float64bits(r.g[i]) != math.Float64bits(r.w[i]) {
				return fmt.Sprintf("%s[%d] = %v (%#x), want %v (%#x)", r.name, i, r.g[i], math.Float64bits(r.g[i]), r.w[i], math.Float64bits(r.w[i]))
			}
		}
	}
	return ""
}

// fuzzSpecials are the values an edit mostly writes: the ends of every
// range the check has, and the values just past them.
var fuzzSpecials = [...]float64{0, 1, -1, 0.5, 1e-300, -1e-300, MaxMagnitude, 2 * MaxMagnitude,
	1 / MaxMagnitude, math.Inf(1), math.Inf(-1), math.NaN(), 1 - 0x1p-53, 1 + 0x1p-52, TolRhoSymmetry, 2 * TolRhoSymmetry, 3e9, 2500}

// fuzzConfig builds a game from a seed and a list of edits: a Table II
// draw of 1 to 8 organizations (personalized for an odd seed), then each
// 10-byte edit — a target, an index byte and a value — overwrites one
// scalar, entry or shape of it.
func fuzzConfig(seed int64, edits []byte) *Config {
	n := 1 + int(uint64(seed)%8)
	cfg, err := DefaultConfig(GenOptions{Seed: seed, N: n})
	if err != nil {
		panic(err)
	}
	if seed%2 != 0 {
		cfg.Personal = Personalization{Alpha: 0.25, LocalBoost: 2}
	}
	for ; len(edits) >= 10; edits = edits[10:] {
		op, at := edits[0], int(edits[1])
		v := math.Float64frombits(binary.LittleEndian.Uint64(edits[2:10]))
		if op&0x80 != 0 { // most edits write a value the check has an edge at
			v = fuzzSpecials[int(edits[2])%len(fuzzSpecials)]
		}
		i, j := at%n, (at/n)%n
		o := &cfg.Orgs[i]
		switch op & 0x7f % 24 {
		case 0:
			cfg.Gamma = v
		case 1:
			cfg.Lambda = v
		case 2:
			cfg.EnergyWeight = v
		case 3:
			cfg.DMin = v
		case 4:
			cfg.Deadline = v
		case 5:
			cfg.Personal.Alpha = v
		case 6:
			cfg.Personal.LocalBoost = v
		case 7: // one entry of ρ, breaking symmetry
			if len(cfg.Rho) > i && len(cfg.Rho[i]) > j {
				cfg.Rho[i][j] = v
			}
		case 8: // a symmetric pair of ρ
			if len(cfg.Rho) > i && len(cfg.Rho[i]) > j && len(cfg.Rho) > j && len(cfg.Rho[j]) > i {
				cfg.Rho[i][j], cfg.Rho[j][i] = v, v
			}
		case 9:
			o.DataBits = v
		case 10:
			o.Samples = v
		case 11:
			o.Profitability = v
		case 12:
			o.Quality = v
		case 13:
			if len(o.CPULevels) > 0 {
				o.CPULevels[at%len(o.CPULevels)] = v
			}
		case 14:
			o.CPULevels = o.CPULevels[:at%(len(o.CPULevels)+1)]
		case 15:
			o.Comm.DownloadTime = v
		case 16:
			o.Comm.CyclesPerBit = v
		case 17:
			o.Comm.Kappa = v
		case 18:
			o.Comm.UploadPower = v
		case 19: // a short or missing row of ρ
			if len(cfg.Rho) > i {
				cfg.Rho[i] = cfg.Rho[i][:min(len(cfg.Rho[i]), j)]
			}
		case 20:
			cfg.Rho = cfg.Rho[:min(len(cfg.Rho), j)]
		case 21:
			cfg.Accuracy = nil
		case 22:
			cfg.OmegaInSamples = !cfg.OmegaInSamples
		case 23: // every organization but the first few
			cfg.Orgs = cfg.Orgs[:min(len(cfg.Orgs), j)]
			n = max(len(cfg.Orgs), 1)
			if len(cfg.Orgs) == 0 {
				return cfg
			}
		}
	}
	return cfg
}

// FuzzNewInstance: for any config, NewInstance accepts or refuses exactly
// as the old Validate did, with its error text; Validate and
// DeltaEvaluator.Reset run the same walk; every row of an accepted config
// carries the bits the old Reset derived; and Instance.Payoffs, which reads
// them, carries Config.Payoffs' bits.
func FuzzNewInstance(f *testing.F) {
	f.Add(int64(1), []byte{})
	f.Add(int64(6), []byte{0x87, 3, 9, 0, 0, 0, 0, 0, 0, 0})
	f.Add(int64(7), []byte{0x88, 9, 3, 0, 0, 0, 0, 0, 0, 0, 0x8b, 0, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add(int64(4), []byte{0x95, 2, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(int64(3), []byte{0x85, 0, 8, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, seed int64, edits []byte) {
		cfg := fuzzConfig(seed, edits)
		want := oracleValidate(cfg)
		in, err := NewInstance(cfg)
		if (err == nil) != (want == nil) || err != nil && err.Error() != want.Error() {
			t.Fatalf("NewInstance: %v, Validate before it: %v", err, want)
		}
		if err := cfg.Validate(); (err == nil) != (want == nil) || err != nil && err.Error() != want.Error() {
			t.Fatalf("Validate: %v, before: %v", err, want)
		}
		if want != nil {
			return
		}
		wantRows := oracleRows(cfg)
		if d := rowsDiffer(in.rows, wantRows); d != "" {
			t.Fatalf("instance rows: %s", d)
		}
		ev := NewDeltaEvaluator(cfg)
		if d := rowsDiffer(ev.rows, wantRows); d != "" {
			t.Fatalf("Reset rows: %s", d)
		}
		// Instance.Payoffs reads the damage factors off the rows.
		p := cfg.MinimalProfile()
		if len(edits) > 0 {
			p[int(edits[0])%len(p)].D = 0.5 + 0.5*cfg.DMin
		}
		gotPay, wantPay := in.Payoffs(p), cfg.Payoffs(p)
		for i := range wantPay {
			if math.Float64bits(gotPay[i]) != math.Float64bits(wantPay[i]) {
				t.Fatalf("Instance.Payoffs[%d] = %v, Config.Payoffs %v", i, gotPay[i], wantPay[i])
			}
		}
	})
}

// TestNewInstanceOwnsItsConfig: the instance holds a copy, so what the
// caller does to its config afterwards reaches neither the instance's
// config nor its rows; and each constructor walks its config once.
func TestNewInstanceOwnsItsConfig(t *testing.T) {
	cfg := testConfig(t, 5)
	before := Checks()
	in, err := NewInstance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := Checks() - before; got != 1 {
		t.Fatalf("NewInstance walked its config %d times, want 1", got)
	}
	want := oracleRows(cfg)
	cfg.Rho[0][1], cfg.Rho[1][0] = 0.9, 0.9
	cfg.Orgs[0].CPULevels[0] = 1
	cfg.Orgs[1].Profitability = 1
	cfg.Gamma = 1
	if in.Config().Rho[0][1] == 0.9 || in.Config().Orgs[0].CPULevels[0] == 1 || in.Config().Orgs[1].Profitability == 1 || in.Config().Gamma == 1 {
		t.Fatal("a change to the caller's config reached the instance's")
	}
	if d := rowsDiffer(in.rows, want); d != "" {
		t.Fatalf("rows changed with the caller's config: %s", d)
	}
	before = Checks()
	if _, err := DefaultInstance(GenOptions{Seed: 5, N: 6}); err != nil {
		t.Fatal(err)
	}
	if got := Checks() - before; got != 1 {
		t.Fatalf("DefaultInstance walked its config %d times, want 1", got)
	}
	if _, err := TakeInstance(Config{}); err == nil || err.Error() != "game config: no organizations" {
		t.Fatalf("TakeInstance(empty) = %v", err)
	}
}
