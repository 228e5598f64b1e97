package comm

import (
	"math"
	"testing"
	"testing/quick"
)

func validProfile() Profile {
	return Profile{
		DownloadTime:  0.25,
		UploadTime:    0.25,
		CyclesPerBit:  1.0,
		DownloadPower: 10,
		UploadPower:   10,
		Kappa:         1e-27,
	}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Profile)
		wantErr bool
	}{
		{"valid", func(p *Profile) {}, false},
		{"negative download time", func(p *Profile) { p.DownloadTime = -1 }, true},
		{"negative upload time", func(p *Profile) { p.UploadTime = -1 }, true},
		{"zero cycles per bit", func(p *Profile) { p.CyclesPerBit = 0 }, true},
		{"negative power", func(p *Profile) { p.UploadPower = -1 }, true},
		{"zero kappa", func(p *Profile) { p.Kappa = 0 }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := validProfile()
			tt.mutate(&p)
			if err := p.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestTrainingTimeEq2(t *testing.T) {
	p := validProfile()
	// T2 = η·d·s/f: 1 cycle/bit · 0.5 · 2e10 bits / 4e9 Hz = 2.5 s.
	if got := p.TrainingTime(0.5, 2e10, 4e9); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("TrainingTime = %v, want 2.5", got)
	}
	if got := p.TrainingTime(0.5, 2e10, 0); got != 0 {
		t.Errorf("TrainingTime with f=0 = %v, want 0 guard", got)
	}
}

func TestRoundTimeAndDeadline(t *testing.T) {
	p := validProfile()
	round := p.RoundTime(0.5, 2e10, 4e9)
	if want := 0.25 + 2.5 + 0.25; math.Abs(round-want) > 1e-12 {
		t.Errorf("RoundTime = %v, want %v", round, want)
	}
	if round > 3.0 || round <= 2.9 {
		t.Errorf("RoundTime = %v, want a round that fits τ=3.0 and misses τ=2.9", round)
	}
	if got := p.DeadlineSlack(0.5, 2e10, 4e9, 3.5); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("DeadlineSlack = %v, want 0.5", got)
	}
}

func TestMaxDataFraction(t *testing.T) {
	p := validProfile()
	// budget = τ − T1 − T3 = 5.0; cap = budget·f/(η·s) = 5·4e9/2e10 = 1.0.
	if got := p.MaxDataFraction(2e10, 4e9, 5.5); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("MaxDataFraction = %v, want 1.0", got)
	}
	// Transfers alone exceed the deadline.
	if got := p.MaxDataFraction(2e10, 4e9, 0.4); got != 0 {
		t.Errorf("MaxDataFraction with exhausted budget = %v, want 0", got)
	}
	// Free training: unconstrained.
	free := p
	free.CyclesPerBit = 1 // keep valid; use zero s instead
	if got := free.MaxDataFraction(0, 4e9, 5.5); got != 1 {
		t.Errorf("MaxDataFraction with zero data = %v, want 1", got)
	}
}

func TestMaxDataFractionConsistentWithDeadline(t *testing.T) {
	// Property: d = MaxDataFraction always meets the deadline exactly (up
	// to float noise) and d·1.01 violates it, whenever the cap is interior.
	p := validProfile()
	f := func(sRaw, fRaw, tauRaw float64) bool {
		s := 1e9 + math.Mod(math.Abs(sRaw), 3e10)
		freq := 1e9 + math.Mod(math.Abs(fRaw), 5e9)
		tau := 0.6 + math.Mod(math.Abs(tauRaw), 10)
		cap := p.MaxDataFraction(s, freq, tau)
		if cap <= 0 || cap > 1 {
			return true
		}
		return p.RoundTime(cap, s, freq) <= tau+1e-9 &&
			p.RoundTime(cap*1.01, s, freq) > tau-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestEnergyModel(t *testing.T) {
	p := validProfile()
	// E_comp = κ·f²·η·d·s = 1e-27·16e18·1·0.5·2e10 = 160 J.
	if got := p.ComputeEnergy(0.5, 2e10, 4e9); math.Abs(got-160) > 1e-9 {
		t.Errorf("ComputeEnergy = %v, want 160", got)
	}
	// E_comm = 10·0.25 + 10·0.25 = 5 J.
	if got := p.CommEnergy(); math.Abs(got-5) > 1e-12 {
		t.Errorf("CommEnergy = %v, want 5", got)
	}
	if got := p.TotalEnergy(0.5, 2e10, 4e9); math.Abs(got-165) > 1e-9 {
		t.Errorf("TotalEnergy = %v, want 165", got)
	}
}

func TestEnergyMonotoneInStrategy(t *testing.T) {
	p := validProfile()
	base := p.TotalEnergy(0.5, 2e10, 4e9)
	if p.TotalEnergy(0.6, 2e10, 4e9) <= base {
		t.Error("energy should increase with d")
	}
	if p.TotalEnergy(0.5, 2e10, 5e9) <= base {
		t.Error("energy should increase with f")
	}
}
