package core

import (
	"context"
	"testing"
)

func TestRunWithPersonalization(t *testing.T) {
	m := mechanism(t, 7)
	base, err := m.Run(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := *m.Config()
	cfg.Personal.Alpha = 0.5
	cfg.Personal.LocalBoost = 2
	pm, err := New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	pres, err := pm.Run(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !pres.Nash.IsNash {
		t.Errorf("personalized equilibrium not Nash: %v", pres.Nash)
	}
	// Personalization must reduce the equilibrium coopetition damage.
	baseDamage := m.Config().TotalDamage(base.Profile)
	persDamage := cfg.TotalDamage(pres.Profile)
	if persDamage >= baseDamage {
		t.Errorf("personalized damage %v not below base %v", persDamage, baseDamage)
	}
	// CGBD must refuse personalized games with a clear error.
	if _, err := pm.Run(context.Background(), Options{Solver: SolverCGBD}); err == nil {
		t.Error("CGBD accepted a personalized game")
	}
}
