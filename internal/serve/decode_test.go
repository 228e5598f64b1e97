package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"tradefl/internal/comm"
	"tradefl/internal/fleet"
	"tradefl/internal/game"
)

// oracleParseJobSpec is ParseJobSpec as it was before the canonical-form
// decoder: encoding/json for every body. It is the reference the decoder
// is held to — same configs, same plan, same error text.
func oracleParseJobSpec(raw []byte, lim Limits) ([]*game.Config, fleet.Plan, error) {
	var spec JobSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, 0, fmt.Errorf("parse job spec: %w", err)
	}
	plan, err := fleet.ParsePlan(orDefault(spec.Plan, "auto"))
	if err != nil {
		return nil, 0, err
	}
	cfgs, err := spec.configs(lim)
	if err != nil {
		return nil, 0, err
	}
	return cfgs, plan, nil
}

// fingerprint renders every leaf of v with its exact bits (floats by
// math.Float64bits, so 0 and −0 differ), slice lengths and nil-ness, and
// the dynamic type behind each interface: two values with one fingerprint
// are indistinguishable to the solvers.
func fingerprint(v any) string {
	var b strings.Builder
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Float64:
			fmt.Fprintf(&b, "f%016x ", math.Float64bits(v.Float()))
		case reflect.Int, reflect.Int64:
			fmt.Fprintf(&b, "i%d ", v.Int())
		case reflect.Bool:
			fmt.Fprintf(&b, "b%v ", v.Bool())
		case reflect.String:
			fmt.Fprintf(&b, "s%q ", v.String())
		case reflect.Slice:
			fmt.Fprintf(&b, "[%d nil=%v ", v.Len(), v.IsNil())
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
			b.WriteString("] ")
		case reflect.Struct:
			b.WriteString("{ ")
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
			b.WriteString("} ")
		case reflect.Pointer, reflect.Interface:
			if v.IsNil() {
				b.WriteString("nil ")
				return
			}
			fmt.Fprintf(&b, "%s→", v.Elem().Type())
			walk(v.Elem())
		default:
			panic(fmt.Sprintf("fingerprint: unhandled kind %s", v.Kind()))
		}
	}
	walk(reflect.ValueOf(v))
	return b.String()
}

// syncBody is the edge_sync request body for an n-organization game: what
// json.Marshal writes for the spec, which is what the bench and every Go
// client send.
func syncBody(t testing.TB, n int, seed int64) []byte {
	t.Helper()
	cfg, err := game.DefaultConfig(game.GenOptions{N: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(JobSpec{Games: []GameSpec{{Config: *cfg}}})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// fuzzLimits keeps a fuzzed generate spec cheap to expand.
var fuzzLimits = Limits{MaxOrgs: 8, MaxInstances: 4}

// checkAgainstOracle requires ParseJobSpec and the decoder under it to
// agree with encoding/json on raw, and reports whether the decoder took it.
func checkAgainstOracle(t *testing.T, raw []byte) bool {
	t.Helper()
	var fast, ref JobSpec
	took := decodeCanonical(raw, &fast)
	if took {
		// The decoded spec is compared before validation, which would
		// otherwise hide a wrong value behind an earlier error.
		if err := json.Unmarshal(raw, &ref); err != nil {
			t.Fatalf("decoder accepted a body encoding/json rejects (%v):\n%s", err, raw)
		}
		if got, want := fingerprint(fast), fingerprint(ref); got != want {
			t.Fatalf("decoded spec differs from encoding/json's:\n got  %s\n want %s\nbody %s", got, want, raw)
		}
	}
	cfgs, plan, err := ParseJobSpec(raw, fuzzLimits)
	wantCfgs, wantPlan, wantErr := oracleParseJobSpec(raw, fuzzLimits)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("error %v, oracle %v\nbody %s", err, wantErr, raw)
	}
	if plan != wantPlan {
		t.Fatalf("plan %v, oracle %v\nbody %s", plan, wantPlan, raw)
	}
	if got, want := fingerprint(cfgs), fingerprint(wantCfgs); got != want {
		t.Fatalf("configs differ from the oracle's:\n got  %s\n want %s\nbody %s", got, want, raw)
	}
	return took
}

// substituter returns a function that rewrites the first occurrence of old
// in body, failing the test when body has none.
func substituter(t testing.TB, body string) func(old, new string) string {
	return func(old, new string) string {
		t.Helper()
		if !strings.Contains(body, old) {
			t.Fatalf("canonical body has no %s", old)
		}
		return strings.Replace(body, old, new, 1)
	}
}

// nonCanonical lists one body per rule that sends the decoder to
// encoding/json, each derived from a canonical body; some are valid specs
// written another way, some are rejected by encoding/json too.
func nonCanonical(t testing.TB) map[string]string {
	body := string(syncBody(t, 4, 3))
	sub := substituter(t, body)
	return map[string]string{
		"escape in string":         sub(`"org-00"`, `"org-\u0030\/0"`),
		"control byte in string":   sub(`"org-00"`, "\"org\x01\""),
		"tab in string":            sub(`"org-00"`, "\"org\t\""),
		"non-ASCII in string":      sub(`"org-00"`, `"orgé"`),
		"invalid UTF-8 in string":  sub(`"org-00"`, "\"org\xff\""),
		"escape in key":            sub(`"rho"`, `"rh\u006f"`),
		"null scalar":              sub(`"gamma":1.6e-8`, `"gamma":null`),
		"null slice":               sub(`"cpuLevels":[3000000000,4000000000,5000000000]`, `"cpuLevels":null`),
		"null struct":              sub(`"personal":{"alpha":0,"localBoost":0}`, `"personal":null`),
		"null pointer":             `{"generate":null,"plan":"dbr"}`,
		"null string":              `{"generate":{"count":1,"n":4},"plan":null}`,
		"null document":            `null`,
		"unknown key":              sub(`"lambda":0.1`, `"lambda":0.1,"extra":{"a":[1,"x",null]}`),
		"case-folded key":          sub(`"lambda"`, `"LAMBDA"`),
		"case-folded top key":      `{"Generate":{"Count":2,"N":4}}`,
		"duplicate key":            sub(`"lambda":0.1`, `"lambda":0.5,"lambda":0.1`),
		"duplicate slice key":      sub(`"cpuLevels":[3000000000,4000000000,5000000000]`, `"cpuLevels":[1,2,3,4],"cpuLevels":[5,6]`),
		"duplicate struct key":     sub(`"personal":{"alpha":0,"localBoost":0}`, `"personal":{"alpha":0.5},"personal":{"localBoost":2}`),
		"duplicate games":          `{"games":[],"games":[]}`,
		"fraction for int":         `{"generate":{"count":1.0,"n":4}}`,
		"exponent for int":         `{"generate":{"count":1e0,"n":4}}`,
		"int64 overflow":           `{"generate":{"count":1,"n":4,"seed":9223372036854775808}}`,
		"int64 underflow":          `{"generate":{"count":1,"n":4,"seed":-9223372036854775809}}`,
		"float overflow":           sub(`"gamma":1.6e-8`, `"gamma":1e400`),
		"leading zero":             sub(`"lambda":0.1`, `"lambda":01`),
		"bare minus":               sub(`"lambda":0.1`, `"lambda":-`),
		"no fraction digits":       sub(`"lambda":0.1`, `"lambda":1.`),
		"no exponent digits":       sub(`"lambda":0.1`, `"lambda":1e+`),
		"plus sign":                sub(`"lambda":0.1`, `"lambda":+1`),
		"hex float":                sub(`"lambda":0.1`, `"lambda":0x1p-2`),
		"infinity":                 sub(`"lambda":0.1`, `"lambda":Infinity`),
		"string for number":        sub(`"lambda":0.1`, `"lambda":"0.1"`),
		"number for string":        sub(`"org-00"`, `7`),
		"number for bool":          sub(`"omegaInSamples":true`, `"omegaInSamples":1`),
		"truncated literal":        sub(`"omegaInSamples":true`, `"omegaInSamples":tru`),
		"object for array":         sub(`"rho":[[`, `"rho":{"a":[[`),
		"array for object":         `{"generate":[1,2]}`,
		"array document":           `[]`,
		"nested empty arrays":      `[[]]`,
		"deep nesting":             strings.Repeat("[", 5000) + strings.Repeat("]", 5000),
		"deep nesting in a field":  `{"games":` + strings.Repeat("[", 300) + strings.Repeat("]", 300) + `}`,
		"trailing garbage":         body + "x",
		"second document":          body + "{}",
		"missing comma":            sub(`,"lambda"`, ` "lambda"`),
		"trailing comma in object": sub(`"accuracy":{}}`, `"accuracy":{},}`),
		"trailing comma in array":  sub(`5000000000],`, `5000000000,],`),
		"missing colon":            sub(`"lambda":`, `"lambda"`),
		"unterminated":             body[:len(body)-2],
		"empty":                    ``,
		"only whitespace":          " \n",
	}
}

// canonicalVariants are bodies the decoder must take itself although they
// are not what json.Marshal writes: other key orders, whitespace, number
// spellings, empty arrays and objects.
func canonicalVariants(t testing.TB) map[string]string {
	body := string(syncBody(t, 4, 3))
	sub := substituter(t, body)
	var indented bytes.Buffer
	if err := json.Indent(&indented, []byte(body), "\t", "  "); err != nil {
		t.Fatal(err)
	}
	// A ρ whose first row is whole and whose last is short used to panic
	// Validate's symmetry check (the fuzzer found it); it is a 400.
	var ragged JobSpec
	if err := json.Unmarshal([]byte(body), &ragged); err != nil {
		t.Fatal(err)
	}
	ragged.Games[0].Rho[3] = ragged.Games[0].Rho[3][:1]
	raggedBody, err := json.Marshal(ragged)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]string{
		"generate":             `{"generate":{"count":3,"n":5,"seed":19,"mu":0.1,"gamma":1.6e-8,"cpuSteps":3},"plan":"dbr"}`,
		"ragged rho":           string(raggedBody),
		"indented":             "\r\n " + indented.String() + "\t\n",
		"negative zero":        sub(`"lambda":0.1`, `"lambda":-0`),
		"negative zero frac":   sub(`"lambda":0.1`, `"lambda":-0.0e-0`),
		"capital exponent":     sub(`"lambda":0.1`, `"lambda":1E+2`),
		"denormal":             sub(`"lambda":0.1`, `"lambda":5e-324`),
		"underflow to zero":    sub(`"lambda":0.1`, `"lambda":1e-400`),
		"long literal":         sub(`"lambda":0.1`, `"lambda":0.1000000000000000055511151231257827021181583404541015625`),
		"halfway literal":      sub(`"lambda":0.1`, `"lambda":9007199254740993`),
		"reordered keys":       sub(`"gamma":1.6e-8,"lambda":0.1`, `"lambda":0.1,"gamma":1.6e-8`),
		"rho before orgs":      `{"games":[{"rho":[[0,0.1],[0.1,0]],"orgs":[]}]}`,
		"empty rho":            `{"games":[{"rho":[]}]}`,
		"rho of empty rows":    `{"games":[{"rho":[[]],"orgs":[{"cpuLevels":[]}]}]}`,
		"empty games":          `{"games":[]}`,
		"empty object":         `{}`,
		"empty generate":       `{"generate":{}}`,
		"accuracy spelled out": sub(`"accuracy":{}`, `"accuracy":{"model":"power-law","epochs":2,"a0":1,"a":0.5,"b":0.3,"c":1,"omegaUnit":10}`),
		"quality":              sub(`"name":"org-00"`, `"quality":0.5,"name":"org 00 (#1) ~"`),
		"int extremes":         `{"generate":{"count":-0,"n":4,"seed":-9223372036854775808,"cpuSteps":9223372036854775807}}`,
		"unknown plan":         `{"generate":{"count":1,"n":4},"plan":"fastest one"}`,
		"both set":             `{"games":[{}],"generate":{"count":1}}`,
	}
}

// TestDecoderTakesCanonicalBodies: the bodies real clients send stay on
// the one-pass path, and every variant decodes as encoding/json decodes it.
func TestDecoderTakesCanonicalBodies(t *testing.T) {
	for n := 4; n <= 6; n++ {
		if !checkAgainstOracle(t, syncBody(t, n, int64(10+n))) {
			t.Errorf("edge_sync body with N=%d fell back to encoding/json", n)
		}
	}
	for name, body := range canonicalVariants(t) {
		if !checkAgainstOracle(t, []byte(body)) {
			t.Errorf("%s: fell back to encoding/json:\n%s", name, body)
		}
	}
}

// TestDecoderLeavesTheRestToEncodingJSON: one body per rule of the
// decoder's contract; each must be handed to encoding/json untouched.
func TestDecoderLeavesTheRestToEncodingJSON(t *testing.T) {
	for name, body := range nonCanonical(t) {
		if checkAgainstOracle(t, []byte(body)) {
			t.Errorf("%s: decoder took a non-canonical body:\n%s", name, body)
		}
	}
}

// FuzzParseJobSpec: for arbitrary bytes ParseJobSpec returns exactly what
// the encoding/json-only implementation returns.
func FuzzParseJobSpec(f *testing.F) {
	for n := 4; n <= 6; n++ {
		f.Add(syncBody(f, n, int64(10+n)))
	}
	for _, body := range canonicalVariants(f) {
		f.Add([]byte(body))
	}
	for _, body := range nonCanonical(f) {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkAgainstOracle(t, raw)
	})
}

// populate sets every field under v to a non-zero value of canonical form
// (so no omitempty drops it and the decoder has no reason to decline),
// giving slices one element and skipping interfaces, which carry no tag.
func populate(v reflect.Value) {
	switch v.Kind() {
	case reflect.Float64:
		v.SetFloat(1.5)
	case reflect.Int, reflect.Int64:
		v.SetInt(3)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString("x")
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		populate(v.Index(0))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		populate(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			populate(v.Field(i))
		}
	case reflect.Interface:
	default:
		panic(fmt.Sprintf("populate: unhandled kind %s", v.Kind()))
	}
}

// TestDecoderKnowsEveryTag walks the spec structs by reflection. Each
// struct's json tags must be exactly its key table, and a spec with every
// field set must decode on the one-pass path to the same value: a field
// added to game.Config (or any struct under JobSpec) without a decoder
// case fails here instead of silently sending all traffic to encoding/json.
func TestDecoderKnowsEveryTag(t *testing.T) {
	tables := map[reflect.Type][]string{
		reflect.TypeOf(JobSpec{}):              jobSpecKeys,
		reflect.TypeOf(GenSpec{}):              genSpecKeys,
		reflect.TypeOf(GameSpec{}):             gameSpecKeys,
		reflect.TypeOf(game.Organization{}):    organizationKeys,
		reflect.TypeOf(comm.Profile{}):         commProfileKeys,
		reflect.TypeOf(game.Personalization{}): personalizationKeys,
		reflect.TypeOf(AccuracySpec{}):         accuracySpecKeys,
	}
	// tags lists a struct's json keys in declaration order, embedded
	// structs flattened as encoding/json flattens them.
	var tags func(typ reflect.Type) []string
	tags = func(typ reflect.Type) []string {
		var out []string
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			switch {
			case f.Anonymous:
				out = append(out, tags(f.Type)...)
			case name == "-":
			case name == "":
				t.Errorf("%s.%s has no json tag", typ, f.Name)
			default:
				out = append(out, name)
			}
		}
		return out
	}
	seen := map[reflect.Type]bool{}
	var visit func(typ reflect.Type)
	visit = func(typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Slice, reflect.Pointer:
			visit(typ.Elem())
		case reflect.Struct:
			if seen[typ] {
				return
			}
			seen[typ] = true
			for i := 0; i < typ.NumField(); i++ {
				visit(typ.Field(i).Type)
			}
			if typ == reflect.TypeOf(game.Config{}) {
				return // decoded as part of GameSpec, which embeds it
			}
			keys, ok := tables[typ]
			if !ok {
				t.Errorf("%s is reachable from JobSpec but has no key table", typ)
			} else if got := tags(typ); !reflect.DeepEqual(got, keys) {
				t.Errorf("%s: json tags %q, key table %q", typ, got, keys)
			}
		}
	}
	visit(reflect.TypeOf(JobSpec{}))
	if len(seen) != len(tables)+1 {
		t.Errorf("visited %d struct types, have %d key tables", len(seen), len(tables))
	}

	var full JobSpec
	populate(reflect.ValueOf(&full).Elem())
	raw, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	for _, keys := range tables {
		for _, key := range keys {
			if !bytes.Contains(raw, []byte(`"`+key+`":`)) {
				t.Fatalf("fully populated spec lacks key %q:\n%s", key, raw)
			}
		}
	}
	if !checkAgainstOracle(t, raw) {
		t.Errorf("decoder declined a spec with every field set — a key table entry has no case:\n%s", raw)
	}
}

// TestParseJobSpecAllocs pins the allocations of parsing the largest
// edge_sync body: the slices and strings the configs keep, the configs
// and their accuracy models — not one per number.
func TestParseJobSpecAllocs(t *testing.T) {
	raw := syncBody(t, 6, 16)
	lim := Limits{MaxOrgs: 64, MaxInstances: 1024}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := ParseJobSpec(raw, lim); err != nil {
			t.Fatal(err)
		}
	})
	// 1 games + 1 orgs + 6 names + 6 cpuLevels + 1 rho + 6 rows, then
	// configs(): the slice, the config and its two-layer accuracy model.
	if allocs > 26 {
		t.Errorf("ParseJobSpec allocates %.0f times for the N=6 body, want at most 26", allocs)
	}
}

func BenchmarkParseJobSpec(b *testing.B) {
	raw := syncBody(b, 6, 16)
	lim := Limits{MaxOrgs: 64, MaxInstances: 1024}
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := ParseJobSpec(raw, lim); err != nil {
			b.Fatal(err)
		}
	}
}
