package serve

import (
	"bytes"
	"strconv"

	"tradefl/internal/comm"
	"tradefl/internal/game"
)

// The canonical-form spec decoder. A job submission has one fixed shape —
// JobSpec → GameSpec/GenSpec → game.Config → Organization →
// comm.Profile/Personalization/AccuracySpec — and nearly every body is what
// a JSON encoder writes for it: known keys spelled as the json tags spell
// them, each once, plain ASCII strings, number literals where numbers go.
// decodeCanonical reads exactly that form in one pass, one function per
// struct. It never guesses: anything else — an escape, control or non-ASCII
// byte in a string, null, a key that is not byte-equal to a tag (unknown or
// case-folded), a duplicate key, a value of the wrong kind, a fraction or
// exponent or out-of-range literal for an int, a number ParseFloat rejects,
// a syntax error, trailing bytes — makes it report false, and ParseJobSpec
// decodes the body with encoding/json instead. Whatever it does accept it
// decodes to the values encoding/json would have produced (FuzzParseJobSpec
// holds the two together), so the accepted set and every error text are
// encoding/json's.

// The keys of each spec struct: its json tags in declaration order. A
// member's position is its bit in object's duplicate mask.
var (
	jobSpecKeys         = []string{"games", "generate", "plan"}
	genSpecKeys         = []string{"count", "n", "seed", "mu", "gamma", "cpuSteps"}
	gameSpecKeys        = []string{"orgs", "rho", "gamma", "lambda", "energyWeight", "dMin", "deadlineSeconds", "omegaInSamples", "personal", "accuracy"}
	organizationKeys    = []string{"name", "dataBits", "samples", "profitability", "cpuLevels", "comm", "quality"}
	commProfileKeys     = []string{"downloadTimeSeconds", "uploadTimeSeconds", "cyclesPerBit", "downloadPowerWatts", "uploadPowerWatts", "kappa"}
	personalizationKeys = []string{"alpha", "localBoost"}
	accuracySpecKeys    = []string{"model", "epochs", "a0", "a", "b", "c", "omegaUnit"}
)

// maxPresize caps how far a slice is sized ahead of the elements decoded
// into it (the default MaxOrgs): a body of commas cannot make the decoder
// allocate for bytes it has not read yet. Longer arrays grow by append.
const maxPresize = 64

// specDecoder is a cursor over one request body. Every method reports
// false when the bytes at the cursor are not the canonical form of what it
// decodes; the cursor is meaningless from then on.
type specDecoder struct {
	b []byte
	i int
}

// decodeCanonical decodes raw into spec when raw is in canonical form. On
// false spec may be partly filled and must be discarded.
func decodeCanonical(raw []byte, spec *JobSpec) bool {
	d := specDecoder{b: raw}
	if !d.jobSpec(spec) {
		return false
	}
	d.space()
	return d.i == len(d.b)
}

func (d *specDecoder) jobSpec(s *JobSpec) bool {
	return d.object(jobSpecKeys, func(key string) bool {
		switch key {
		case "games":
			return decodeSlice(d, &s.Games, 1, d.gameSpec)
		case "generate":
			s.Generate = new(GenSpec)
			return d.genSpec(s.Generate)
		case "plan":
			return d.str(&s.Plan)
		}
		return false
	})
}

func (d *specDecoder) genSpec(g *GenSpec) bool {
	return d.object(genSpecKeys, func(key string) bool {
		switch key {
		case "count":
			return d.int(&g.Count)
		case "n":
			return d.int(&g.N)
		case "seed":
			return d.int64(&g.Seed)
		case "mu":
			return d.float(&g.Mu)
		case "gamma":
			return d.float(&g.Gamma)
		case "cpuSteps":
			return d.int(&g.CPUSteps)
		}
		return false
	})
}

func (d *specDecoder) gameSpec(g *GameSpec) bool {
	return d.object(gameSpecKeys, func(key string) bool {
		switch key {
		case "orgs":
			// Organizations have no cheap count; eight covers the sync path.
			return decodeSlice(d, &g.Orgs, 8, d.organization)
		case "rho":
			return decodeSlice(d, &g.Rho, len(g.Orgs), d.floats)
		case "gamma":
			return d.float(&g.Gamma)
		case "lambda":
			return d.float(&g.Lambda)
		case "energyWeight":
			return d.float(&g.EnergyWeight)
		case "dMin":
			return d.float(&g.DMin)
		case "deadlineSeconds":
			return d.float(&g.Deadline)
		case "omegaInSamples":
			return d.bool(&g.OmegaInSamples)
		case "personal":
			return d.personalization(&g.Personal)
		case "accuracy":
			return d.accuracySpec(&g.Accuracy)
		}
		return false
	})
}

func (d *specDecoder) organization(o *game.Organization) bool {
	return d.object(organizationKeys, func(key string) bool {
		switch key {
		case "name":
			return d.str(&o.Name)
		case "dataBits":
			return d.float(&o.DataBits)
		case "samples":
			return d.float(&o.Samples)
		case "profitability":
			return d.float(&o.Profitability)
		case "cpuLevels":
			return d.floats(&o.CPULevels)
		case "comm":
			return d.commProfile(&o.Comm)
		case "quality":
			return d.float(&o.Quality)
		}
		return false
	})
}

func (d *specDecoder) commProfile(p *comm.Profile) bool {
	return d.object(commProfileKeys, func(key string) bool {
		switch key {
		case "downloadTimeSeconds":
			return d.float(&p.DownloadTime)
		case "uploadTimeSeconds":
			return d.float(&p.UploadTime)
		case "cyclesPerBit":
			return d.float(&p.CyclesPerBit)
		case "downloadPowerWatts":
			return d.float(&p.DownloadPower)
		case "uploadPowerWatts":
			return d.float(&p.UploadPower)
		case "kappa":
			return d.float(&p.Kappa)
		}
		return false
	})
}

func (d *specDecoder) personalization(p *game.Personalization) bool {
	return d.object(personalizationKeys, func(key string) bool {
		switch key {
		case "alpha":
			return d.float(&p.Alpha)
		case "localBoost":
			return d.float(&p.LocalBoost)
		}
		return false
	})
}

func (d *specDecoder) accuracySpec(a *AccuracySpec) bool {
	return d.object(accuracySpecKeys, func(key string) bool {
		switch key {
		case "model":
			return d.str(&a.Model)
		case "epochs":
			return d.float(&a.Epochs)
		case "a0":
			return d.float(&a.A0)
		case "a":
			return d.float(&a.A)
		case "b":
			return d.float(&a.B)
		case "c":
			return d.float(&a.C)
		case "omegaUnit":
			return d.float(&a.OmegaUnit)
		}
		return false
	})
}

// object decodes the object at the cursor, calling field once per member
// with the member's key (one of keys) and the cursor on its value.
func (d *specDecoder) object(keys []string, field func(key string) bool) bool {
	if !d.consume('{') {
		return false
	}
	if d.consume('}') {
		return true
	}
	var seen uint32
	for {
		k := d.key(keys)
		if k < 0 || seen&(1<<k) != 0 || !d.consume(':') || !field(keys[k]) {
			return false
		}
		seen |= 1 << k
		if !d.consume(',') {
			return d.consume('}')
		}
	}
}

// decodeSlice decodes the array at the cursor into *out, elem decoding one
// element in place; hint sizes the slice. Like encoding/json, an empty
// array yields an empty, non-nil slice.
func decodeSlice[T any](d *specDecoder, out *[]T, hint int, elem func(*T) bool) bool {
	if !d.consume('[') {
		return false
	}
	if d.consume(']') {
		*out = []T{}
		return true
	}
	vs := make([]T, 0, min(hint, maxPresize))
	for {
		var zero T
		vs = append(vs, zero)
		if !elem(&vs[len(vs)-1]) {
			return false
		}
		if !d.consume(',') {
			*out = vs
			return d.consume(']')
		}
	}
}

// floats decodes an array of numbers, sized from the commas before its
// closing bracket.
func (d *specDecoder) floats(out *[]float64) bool {
	hint := 0
	if end := bytes.IndexByte(d.b[d.i:], ']'); end > 0 {
		hint = bytes.Count(d.b[d.i:d.i+end], []byte{','}) + 1
	}
	return decodeSlice(d, out, hint, d.float)
}

// space skips JSON whitespace.
func (d *specDecoder) space() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\r', '\n':
			d.i++
		default:
			return
		}
	}
}

// consume steps over c when it is the next byte, whitespace aside.
func (d *specDecoder) consume(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c { // the compact form: no whitespace
		d.i++
		return true
	}
	d.space()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// quoted steps over the string literal at the cursor and returns the bytes
// between its opening quote and the next quote. They are the string's value
// only if they hold no escape (an escaped quote ends the span early, after
// its backslash), which is the caller's to establish.
func (d *specDecoder) quoted() ([]byte, bool) {
	if !d.consume('"') {
		return nil, false
	}
	n := bytes.IndexByte(d.b[d.i:], '"')
	if n < 0 {
		return nil, false
	}
	span := d.b[d.i : d.i+n]
	d.i += n + 1
	return span, true
}

// key scans a member key and returns its position in keys, −1 when it is
// not byte-equal to any of them. No tag holds a backslash, a control or a
// non-ASCII byte, so a span equal to one is a key without escapes.
func (d *specDecoder) key(keys []string) int {
	name, ok := d.quoted()
	if !ok {
		return -1
	}
	for k, want := range keys {
		if string(name) == want {
			return k
		}
	}
	return -1
}

// str decodes a string of printable ASCII without escapes — the bytes that
// are their own decoding.
func (d *specDecoder) str(out *string) bool {
	span, ok := d.quoted()
	if !ok {
		return false
	}
	for _, c := range span {
		if c < 0x20 || c >= 0x80 || c == '\\' {
			return false
		}
	}
	*out = string(span)
	return true
}

func (d *specDecoder) bool(out *bool) bool {
	d.space()
	rest := d.b[d.i:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		*out, d.i = true, d.i+4
	case bytes.HasPrefix(rest, []byte("false")):
		*out, d.i = false, d.i+5
	default:
		return false
	}
	return true
}

// number scans one number literal by the RFC 8259 grammar (stricter than
// strconv: no leading zeros, plus sign, hex, underscores, inf or nan) and
// reports whether it is a plain integer, without fraction or exponent.
// What follows the literal is the caller's to check: it must be a comma or
// a closing bracket, so "01" or "1x" fail there.
func (d *specDecoder) number() (lit []byte, integer, ok bool) {
	d.space()
	b, i := d.b, d.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case digits(b, i) > 0:
		i += digits(b, i)
	default:
		return nil, false, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		n := digits(b, i+1)
		if n == 0 {
			return nil, false, false
		}
		integer, i = false, i+1+n
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		n := digits(b, i)
		if n == 0 {
			return nil, false, false
		}
		integer, i = false, i+n
	}
	lit, d.i = b[d.i:i], i
	return lit, integer, true
}

// digits counts the decimal digits at b[i:].
func digits(b []byte, i int) int {
	n := 0
	for i+n < len(b) && '0' <= b[i+n] && b[i+n] <= '9' {
		n++
	}
	return n
}

func (d *specDecoder) float(out *float64) bool {
	lit, _, ok := d.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	*out = v
	return err == nil
}

// integer decodes an integer literal that fits bitSize bits; encoding/json
// refuses "1.0" and "1e2" for an int field, so they are not canonical.
func (d *specDecoder) integer(bitSize int) (int64, bool) {
	lit, integer, ok := d.number()
	if !ok || !integer {
		return 0, false
	}
	v, err := strconv.ParseInt(string(lit), 10, bitSize)
	return v, err == nil
}

func (d *specDecoder) int(out *int) bool {
	v, ok := d.integer(strconv.IntSize)
	*out = int(v)
	return ok
}

func (d *specDecoder) int64(out *int64) bool {
	v, ok := d.integer(64)
	*out = v
	return ok
}
