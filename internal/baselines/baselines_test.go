package baselines

import (
	"math"
	"testing"

	"tradefl/internal/dbr"
	"tradefl/internal/game"
)

func defaultGame(t *testing.T, seed int64) *game.Config {
	t.Helper()
	cfg, err := game.DefaultConfig(game.GenOptions{Seed: seed})
	if err != nil {
		t.Fatalf("DefaultConfig: %v", err)
	}
	return cfg
}

func TestAllSchemesListed(t *testing.T) {
	schemes := AllSchemes()
	if len(schemes) != 6 {
		t.Fatalf("AllSchemes has %d entries, want 6", len(schemes))
	}
	if schemes[0] != SchemeCGBD || schemes[1] != SchemeDBR {
		t.Error("proposed schemes must lead the presentation order")
	}
}

func TestWPRRemovesRedistributionOnly(t *testing.T) {
	cfg := defaultGame(t, 7)
	out, err := WPR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Scheme != SchemeWPR {
		t.Errorf("scheme = %s", out.Scheme)
	}
	if !out.Converged {
		t.Error("WPR did not converge")
	}
	// Without redistribution, free-riding dominates: WPR must contribute
	// no more data than DBR at the default incentive intensity.
	dres, err := dbr.Solve(cfg, nil, dbr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var dbrData float64
	for _, s := range dres.Profile {
		dbrData += s.D
	}
	if out.TotalData() > dbrData+1e-9 {
		t.Errorf("WPR data %v exceeds DBR %v", out.TotalData(), dbrData)
	}
	// The original config must not have been mutated.
	if cfg.Gamma == 0 {
		t.Error("WPR mutated the caller's config")
	}
}

func TestGCATiesComputationToData(t *testing.T) {
	cfg := defaultGame(t, 7)
	out, err := GCA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Converged {
		t.Error("GCA did not converge")
	}
	if err := cfg.ValidProfile(out.Profile); err != nil {
		t.Errorf("GCA profile invalid: %v", err)
	}
	// f must equal the snap of k·d for every organization.
	for i, s := range out.Profile {
		k := 1.5 * cfg.Orgs[i].CPULevels[len(cfg.Orgs[i].CPULevels)-1]
		want := gcaFreq(cfg, i, k, s.D)
		if s.F != want {
			t.Errorf("org %d: f = %v, want snapped %v", i, s.F, want)
		}
	}
}

func TestGCAUnderperformsDBROnData(t *testing.T) {
	// Fig. 12: at γ*, DBR contributes more total data than GCA.
	cfg := defaultGame(t, 7)
	gout, err := GCA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dres, err := dbr.Solve(cfg, nil, dbr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var dbrData float64
	for _, s := range dres.Profile {
		dbrData += s.D
	}
	if dbrData <= gout.TotalData() {
		t.Errorf("DBR data %v not above GCA %v at γ*", dbrData, gout.TotalData())
	}
}

func TestFIPReachesGridEquilibrium(t *testing.T) {
	cfg := defaultGame(t, 7)
	out, err := FIP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Converged {
		t.Error("FIP did not converge")
	}
	if err := cfg.ValidProfile(out.Profile); err != nil {
		t.Errorf("FIP profile invalid: %v", err)
	}
	// Strategies lie on the grid.
	for i, s := range out.Profile {
		steps := s.D / 0.1
		if math.Abs(steps-math.Round(steps)) > 1e-9 && s.D != 1 {
			t.Errorf("org %d: d = %v not on the 0.1 grid", i, s.D)
		}
	}
}

func TestFIPPotentialMonotone(t *testing.T) {
	// Each FIP move strictly improves the mover's payoff, so the potential
	// trace must be nondecreasing (finite improvement property).
	cfg := defaultGame(t, 8)
	out, err := FIP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k < len(out.PotentialTrace); k++ {
		if out.PotentialTrace[k] < out.PotentialTrace[k-1]-1e-9 {
			t.Errorf("move %d: potential decreased", k)
		}
	}
}

func TestFIPPotentialBelowDBR(t *testing.T) {
	// The grid restriction can only lose potential relative to exact best
	// response (Fig. 4 ordering).
	cfg := defaultGame(t, 7)
	fout, err := FIP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dres, err := dbr.Solve(cfg, nil, dbr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fu, du := cfg.Potential(fout.Profile), cfg.Potential(dres.Profile); fu > du+1e-6 {
		t.Errorf("FIP potential %v above DBR %v", fu, du)
	}
}

func TestTOSContributesEverything(t *testing.T) {
	cfg := defaultGame(t, 7)
	out := TOS(cfg)
	if out.TotalData() != float64(cfg.N()) {
		t.Errorf("TOS data = %v, want N", out.TotalData())
	}
	for i, s := range out.Profile {
		if s.F != cfg.Orgs[i].CPULevels[len(cfg.Orgs[i].CPULevels)-1] {
			t.Errorf("org %d: f = %v, want fastest", i, s.F)
		}
	}
	if !out.Converged || out.Rounds != 1 {
		t.Error("TOS metadata wrong")
	}
}

func TestTOSWelfareBelowDBR(t *testing.T) {
	// Fig. 6: TOS ignores overhead and damage, so its welfare is lower
	// than the proposed schemes at γ*.
	cfg := defaultGame(t, 7)
	dres, err := dbr.Solve(cfg, nil, dbr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tout := TOS(cfg)
	if tout.SocialWelfare(cfg) >= cfg.SocialWelfare(dres.Profile) {
		t.Errorf("TOS welfare %v not below DBR %v",
			tout.SocialWelfare(cfg), cfg.SocialWelfare(dres.Profile))
	}
}

func TestWelfareOrderingAtGammaStar(t *testing.T) {
	// Fig. 6's qualitative ordering on the default instance:
	// DBR ≥ FIP, DBR > GCA > WPR, and TOS last.
	cfg := defaultGame(t, 7)
	dres, err := dbr.Solve(cfg, nil, dbr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dbrW := cfg.SocialWelfare(dres.Profile)
	wout, err := WPR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gout, err := GCA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fout, err := FIP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tout := TOS(cfg)
	if dbrW < fout.SocialWelfare(cfg)-1e-6 {
		t.Errorf("DBR %v below FIP %v", dbrW, fout.SocialWelfare(cfg))
	}
	if gout.SocialWelfare(cfg) >= dbrW {
		t.Errorf("GCA %v not below DBR %v", gout.SocialWelfare(cfg), dbrW)
	}
	if wout.SocialWelfare(cfg) >= gout.SocialWelfare(cfg) {
		t.Errorf("WPR %v not below GCA %v", wout.SocialWelfare(cfg), gout.SocialWelfare(cfg))
	}
	if tout.SocialWelfare(cfg) >= wout.SocialWelfare(cfg) {
		t.Errorf("TOS %v not below WPR %v", tout.SocialWelfare(cfg), wout.SocialWelfare(cfg))
	}
}

func TestBaselinesRejectInvalidConfig(t *testing.T) {
	cfg := defaultGame(t, 1)
	cfg.Accuracy = nil
	if _, err := GCA(cfg); err == nil {
		t.Error("GCA accepted invalid config")
	}
	if _, err := FIP(cfg); err == nil {
		t.Error("FIP accepted invalid config")
	}
	if _, err := WPR(cfg); err == nil {
		t.Error("WPR accepted invalid config")
	}
}

func TestOutcomeHelpers(t *testing.T) {
	cfg := defaultGame(t, 2)
	out := TOS(cfg)
	if sw := out.SocialWelfare(cfg); math.Abs(sw-cfg.SocialWelfare(out.Profile)) > 1e-9 {
		t.Errorf("SocialWelfare helper mismatch: %v", sw)
	}
}
