package game

import (
	"math"
	"reflect"

	"tradefl/internal/accuracy"
)

// This file implements the value signature used to key warm solver state
// (the fleet engine's per-instance result memo, the pooled DBR engines). A
// signature is an FNV-1a hash over every numeric field of the
// config, so warm state keyed on (pointer, signature) survives repeated
// solves of an unchanged instance but is invalidated the moment any field
// is mutated in place — the access pattern of campaign.drift, which mutates
// the epoch config between solves.
//
// The Accuracy model is an interface and is deliberately excluded from the
// hash; pair Signature with SameModel to cover it.

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvFloat(h uint64, v float64) uint64 {
	b := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		h ^= b & 0xff
		h *= fnvPrime
		b >>= 8
	}
	return h
}

func fnvInt(h uint64, v int) uint64 {
	return fnvFloat(h, float64(v))
}

func fnvBool(h uint64, v bool) uint64 {
	if v {
		return fnvInt(h, 1)
	}
	return fnvInt(h, 0)
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// Signature returns a value hash of the config: every numeric field of the
// organizations, the competition matrix, and the game scalars. Two configs
// with identical field values share a signature; mutating any hashed field
// in place changes it. The Accuracy model is not hashed (interfaces have no
// canonical byte representation) — callers keying warm state must pair the
// signature with a SameModel identity check.
func (c *Config) Signature() uint64 {
	h := uint64(fnvOffset)
	h = fnvInt(h, len(c.Orgs))
	for i := range c.Orgs {
		o := &c.Orgs[i]
		h = fnvString(h, o.Name)
		h = fnvFloat(h, o.DataBits)
		h = fnvFloat(h, o.Samples)
		h = fnvFloat(h, o.Profitability)
		h = fnvFloat(h, o.Quality)
		h = fnvInt(h, len(o.CPULevels))
		for _, f := range o.CPULevels {
			h = fnvFloat(h, f)
		}
		h = fnvFloat(h, o.Comm.DownloadTime)
		h = fnvFloat(h, o.Comm.UploadTime)
		h = fnvFloat(h, o.Comm.CyclesPerBit)
		h = fnvFloat(h, o.Comm.DownloadPower)
		h = fnvFloat(h, o.Comm.UploadPower)
		h = fnvFloat(h, o.Comm.Kappa)
	}
	for i := range c.Rho {
		for _, v := range c.Rho[i] {
			h = fnvFloat(h, v)
		}
	}
	h = fnvFloat(h, c.Gamma)
	h = fnvFloat(h, c.Lambda)
	h = fnvFloat(h, c.EnergyWeight)
	h = fnvFloat(h, c.DMin)
	h = fnvFloat(h, c.Deadline)
	h = fnvBool(h, c.OmegaInSamples)
	h = fnvFloat(h, c.Personal.Alpha)
	h = fnvFloat(h, c.Personal.LocalBoost)
	return h
}

// SameModel reports whether two accuracy models are interchangeable for
// warm-state reuse: same dynamic type and equal values when the type is
// comparable, or the same underlying object for non-comparable kinds
// (slices, maps, funcs). A conservative false is always safe — it only
// forces a cold solve.
func SameModel(a, b accuracy.Model) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	if va.Type() != vb.Type() {
		return false
	}
	if va.Comparable() {
		return a == b
	}
	switch va.Kind() {
	case reflect.Slice, reflect.Map, reflect.Func:
		return va.Pointer() == vb.Pointer()
	}
	return false
}
