// Package comm models the per-round timing and energy of cross-silo FL
// training (Sec. III-B and III-D of the TradeFL paper).
//
// For organization i contributing a fraction d_i of its s_i bits of local
// data with f_i CPU cycles/second:
//
//	T_i = T1_i + η_i·d_i·s_i / f_i + T3_i            (download, train, upload)
//	E_i = κ·f_i²·η_i·d_i·s_i + E_DL·T1_i + E_UL·T3_i (computation + comm)
//
// and the deadline constraint C^(3): T_i ≤ τ.
package comm

import (
	"errors"
	"fmt"
)

// Profile holds the timing/energy constants of a single organization.
type Profile struct {
	// DownloadTime is T1, the average global-model download time (s).
	DownloadTime float64 `json:"downloadTimeSeconds"`
	// UploadTime is T3, the average local-model upload time (s).
	UploadTime float64 `json:"uploadTimeSeconds"`
	// CyclesPerBit is η_i, CPU cycles needed per bit of training data.
	CyclesPerBit float64 `json:"cyclesPerBit"`
	// DownloadPower is E_DL, energy per unit download time (J/s).
	DownloadPower float64 `json:"downloadPowerWatts"`
	// UploadPower is E_UL, energy per unit upload time (J/s).
	UploadPower float64 `json:"uploadPowerWatts"`
	// Kappa is κ, the effective capacitance of the computation chipset.
	Kappa float64 `json:"kappa"`
}

// Validate reports the first invalid constant, or nil.
func (p Profile) Validate() error {
	switch {
	case p.DownloadTime < 0 || p.UploadTime < 0:
		return errors.New("comm profile: negative transfer time")
	case p.CyclesPerBit <= 0:
		return fmt.Errorf("comm profile: cycles-per-bit %v must be positive", p.CyclesPerBit)
	case p.DownloadPower < 0 || p.UploadPower < 0:
		return errors.New("comm profile: negative transfer power")
	case p.Kappa <= 0:
		return fmt.Errorf("comm profile: kappa %v must be positive", p.Kappa)
	}
	return nil
}

// TrainingTime returns T2(d, f) = η·d·s/f, Eq. (2).
func (p Profile) TrainingTime(d, s, f float64) float64 {
	if f <= 0 {
		return 0
	}
	return p.CyclesPerBit * d * s / f
}

// RoundTime returns T1 + T2(d, f) + T3.
func (p Profile) RoundTime(d, s, f float64) float64 {
	return p.DownloadTime + p.TrainingTime(d, s, f) + p.UploadTime
}

// DeadlineSlack returns τ − RoundTime; negative values violate C^(3).
func (p Profile) DeadlineSlack(d, s, f, tau float64) float64 {
	return tau - p.RoundTime(d, s, f)
}

// MaxDataFraction returns the largest d that satisfies the deadline for the
// given f, before clamping to strategy bounds. Returns +Inf when the
// transfer phases alone already exhaust the deadline budget is impossible
// (in that case it returns 0) or when training is free (η·s = 0).
func (p Profile) MaxDataFraction(s, f, tau float64) float64 {
	budget := tau - p.DownloadTime - p.UploadTime
	if budget <= 0 {
		return 0
	}
	denom := p.CyclesPerBit * s
	if denom <= 0 {
		return 1
	}
	return budget * f / denom
}

// ComputeEnergy returns E_comp = κ·f²·η·d·s (Sec. III-D).
func (p Profile) ComputeEnergy(d, s, f float64) float64 {
	return p.Kappa * f * f * p.CyclesPerBit * d * s
}

// CommEnergy returns E_comm = E_DL·T1 + E_UL·T3, which is independent of
// the strategy (d, f).
func (p Profile) CommEnergy() float64 {
	return p.DownloadPower*p.DownloadTime + p.UploadPower*p.UploadTime
}

// TotalEnergy returns E = E_comp + E_comm, Eq. (8).
func (p Profile) TotalEnergy(d, s, f float64) float64 {
	return p.ComputeEnergy(d, s, f) + p.CommEnergy()
}
