package serve

import (
	"tradefl/internal/comm"
	"tradefl/internal/game"
	"tradefl/internal/jsonx"
)

// The canonical-form spec decoder. A job submission has one fixed shape —
// JobSpec → GameSpec/GenSpec → game.Config → Organization →
// comm.Profile/Personalization/AccuracySpec — and nearly every body is what
// a JSON encoder writes for it. decodeCanonical reads exactly that form
// (jsonx.Cursor says what it is) in one pass, one function per struct; on
// anything else, trailing bytes included, it reports false and ParseJobSpec
// decodes the body with encoding/json instead, so the accepted set and every
// error text are encoding/json's (FuzzParseJobSpec holds the two together).

// The keys of each spec struct: its json tags in declaration order. A
// member's position is its bit in Cursor.Object's duplicate mask.
var (
	jobSpecKeys         = []string{"games", "generate", "plan"}
	genSpecKeys         = []string{"count", "n", "seed", "mu", "gamma", "cpuSteps"}
	gameSpecKeys        = []string{"orgs", "rho", "gamma", "lambda", "energyWeight", "dMin", "deadlineSeconds", "omegaInSamples", "personal", "accuracy"}
	organizationKeys    = []string{"name", "dataBits", "samples", "profitability", "cpuLevels", "comm", "quality"}
	commProfileKeys     = []string{"downloadTimeSeconds", "uploadTimeSeconds", "cyclesPerBit", "downloadPowerWatts", "uploadPowerWatts", "kappa"}
	personalizationKeys = []string{"alpha", "localBoost"}
	accuracySpecKeys    = []string{"model", "epochs", "a0", "a", "b", "c", "omegaUnit"}
)

// specDecoder is a cursor over one request body.
type specDecoder struct{ jsonx.Cursor }

// decodeCanonical decodes raw into spec when raw is in canonical form. On
// false spec may be partly filled and must be discarded.
func decodeCanonical(raw []byte, spec *JobSpec) bool {
	d := specDecoder{jsonx.NewCursor(raw)}
	return d.jobSpec(spec) && d.End()
}

func (d *specDecoder) jobSpec(s *JobSpec) bool {
	return d.Object(jobSpecKeys, func(key string) bool {
		switch key {
		case "games":
			return jsonx.DecodeSlice(&d.Cursor, &s.Games, 1, d.gameSpec)
		case "generate":
			s.Generate = new(GenSpec)
			return d.genSpec(s.Generate)
		case "plan":
			return d.Str(&s.Plan)
		}
		return false
	})
}

func (d *specDecoder) genSpec(g *GenSpec) bool {
	return d.Object(genSpecKeys, func(key string) bool {
		switch key {
		case "count":
			return d.Int(&g.Count)
		case "n":
			return d.Int(&g.N)
		case "seed":
			return d.Int64(&g.Seed)
		case "mu":
			return d.Float(&g.Mu)
		case "gamma":
			return d.Float(&g.Gamma)
		case "cpuSteps":
			return d.Int(&g.CPUSteps)
		}
		return false
	})
}

func (d *specDecoder) gameSpec(g *GameSpec) bool {
	return d.Object(gameSpecKeys, func(key string) bool {
		switch key {
		case "orgs":
			// Organizations have no cheap count; eight covers the sync path.
			return jsonx.DecodeSlice(&d.Cursor, &g.Orgs, 8, d.organization)
		case "rho":
			return jsonx.DecodeSlice(&d.Cursor, &g.Rho, len(g.Orgs), d.Floats)
		case "gamma":
			return d.Float(&g.Gamma)
		case "lambda":
			return d.Float(&g.Lambda)
		case "energyWeight":
			return d.Float(&g.EnergyWeight)
		case "dMin":
			return d.Float(&g.DMin)
		case "deadlineSeconds":
			return d.Float(&g.Deadline)
		case "omegaInSamples":
			return d.Bool(&g.OmegaInSamples)
		case "personal":
			return d.personalization(&g.Personal)
		case "accuracy":
			return d.accuracySpec(&g.Accuracy)
		}
		return false
	})
}

func (d *specDecoder) organization(o *game.Organization) bool {
	return d.Object(organizationKeys, func(key string) bool {
		switch key {
		case "name":
			return d.Str(&o.Name)
		case "dataBits":
			return d.Float(&o.DataBits)
		case "samples":
			return d.Float(&o.Samples)
		case "profitability":
			return d.Float(&o.Profitability)
		case "cpuLevels":
			return d.Floats(&o.CPULevels)
		case "comm":
			return d.commProfile(&o.Comm)
		case "quality":
			return d.Float(&o.Quality)
		}
		return false
	})
}

func (d *specDecoder) commProfile(p *comm.Profile) bool {
	return d.Object(commProfileKeys, func(key string) bool {
		switch key {
		case "downloadTimeSeconds":
			return d.Float(&p.DownloadTime)
		case "uploadTimeSeconds":
			return d.Float(&p.UploadTime)
		case "cyclesPerBit":
			return d.Float(&p.CyclesPerBit)
		case "downloadPowerWatts":
			return d.Float(&p.DownloadPower)
		case "uploadPowerWatts":
			return d.Float(&p.UploadPower)
		case "kappa":
			return d.Float(&p.Kappa)
		}
		return false
	})
}

func (d *specDecoder) personalization(p *game.Personalization) bool {
	return d.Object(personalizationKeys, func(key string) bool {
		switch key {
		case "alpha":
			return d.Float(&p.Alpha)
		case "localBoost":
			return d.Float(&p.LocalBoost)
		}
		return false
	})
}

func (d *specDecoder) accuracySpec(a *AccuracySpec) bool {
	return d.Object(accuracySpecKeys, func(key string) bool {
		switch key {
		case "model":
			return d.Str(&a.Model)
		case "epochs":
			return d.Float(&a.Epochs)
		case "a0":
			return d.Float(&a.A0)
		case "a":
			return d.Float(&a.A)
		case "b":
			return d.Float(&a.B)
		case "c":
			return d.Float(&a.C)
		case "omegaUnit":
			return d.Float(&a.OmegaUnit)
		}
		return false
	})
}
