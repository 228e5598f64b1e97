package jsonx

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestRawIsWhatMarshalLeavesAlone: a value Raw accepts whole is one
// encoding/json re-marshals to the same bytes (valid, compact, nothing to
// escape); the users' fuzz targets hold the rest of the package to
// encoding/json (serve.FuzzParseJobSpec, chain.FuzzChain*MatchesJSON).
func TestRawIsWhatMarshalLeavesAlone(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want bool
	}{
		{`{"d":0.5,"f":4e9}`, true},
		{`{"to":"3a5f","n":[1,-2.5e-3,true,false,null,{}],"s":""}`, true},
		{`null`, true},
		{`"plain"`, true},
		{`-0`, true},
		{`[]`, true},
		{`{"d": 0.5}`, false},   // whitespace
		{`{"d":"<"}`, false},    // HTML-escaped by Marshal
		{`{"d":"a\nb"}`, false}, // escape
		{`{"d":"é"}`, false},
		{`{"d":01}`, false},
		{`{"d":1,}`, false},
		{`{"d"}`, false},
		{`[1 2]`, false},
		{`tru`, false},
		{``, false},
		{`[[[[[[[[[[[[[[[[[[1]]]]]]]]]]]]]]]]]]`, false}, // deeper than maxDepth
	} {
		c := NewCursor([]byte(tc.in))
		raw, ok := c.Raw()
		took := ok && len(raw) == len(tc.in)
		if took != tc.want {
			t.Errorf("Raw(%s) took = %v, want %v", tc.in, took, tc.want)
		}
		if took {
			if out, err := json.Marshal(json.RawMessage(tc.in)); err != nil || !bytes.Equal(out, []byte(tc.in)) {
				t.Errorf("Raw took %s, which json.Marshal rewrites to %s (%v)", tc.in, out, err)
			}
		}
	}
}

// TestMemberWalksOneOrder: Member accepts exactly the compact key sequence
// it is asked for and leaves the cursor where it was otherwise.
func TestMemberWalksOneOrder(t *testing.T) {
	var a, b string
	walk := func(doc string) bool {
		a, b = "", ""
		d := NewCursor([]byte(doc))
		return d.Lit("{") && d.Member("a") && d.Str(&a) && (!d.Member("b") || d.Str(&b)) && d.Lit("}") && d.End()
	}
	for doc, want := range map[string]bool{
		`{"a":"x","b":"y"}`:         true,
		`{"a":"x"}` + "\n":          true,
		`{"a": "x"}`:                true, // whitespace before a value is the value decoder's to skip
		`{"b":"y","a":"x"}`:         false,
		`{"a":"x","a":"z"}`:         false,
		`{"a":"x","b":"y","c":"z"}`: false,
		`{ "a":"x"}`:                false,
		`{"a":"x" ,"b":"y"}`:        false,
		`{"A":"x"}`:                 false,
		`{,"a":"x"}`:                false,
		`{"a":"x"} x`:               false,
	} {
		if got := walk(doc); got != want {
			t.Errorf("walk(%s) = %v, want %v", doc, got, want)
		}
	}
	if !walk(`{"a":"x","b":"y"}`) || a != "x" || b != "y" {
		t.Errorf("decoded a=%q b=%q", a, b)
	}
}

// FuzzAppendIndentMatchesJSON: whatever json.Compact accepts and writes,
// AppendIndent lays out byte for byte as json.Indent does, under the two
// prefixes the gateway's documents use (top level, and a result inside the
// status document's array).
func FuzzAppendIndentMatchesJSON(f *testing.F) {
	for _, seed := range []string{
		`{"index":3,"plan":"dbr","profile":[{"d":0.5,"f":4e9},{"d":1,"f":2.5e-7}],"payoffs":[-1.5,0],"converged":true,"error":null}`,
		`"json: unsupported value: NaN"`, // the form appendEncodeError stores
		`{"a":"quote \" backslash \\ both \\\" end\\","b\"":"\\"}`,
		`{"brackets":"{[,:]}","nested":["]",{"}":"{"}]}`,
		`{}`, `[]`, `[{}]`, `{"a":[]}`, `[[],[{}],{"a":{}}]`,
		`[[[[[[[[[[[[[[[[[[[[1]]]]]]]]]]]]]]]]]]]]`,
		`{ "spaced" : [ 1 , 2 ] }`,
		`[true,false,null,-0,1e-7,"é "]`,
		`12`, `""`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var compact bytes.Buffer
		if json.Compact(&compact, in) != nil {
			t.Skip()
		}
		for _, prefix := range []string{"", "    "} {
			var want bytes.Buffer
			want.WriteString("kept:")
			if err := json.Indent(&want, compact.Bytes(), prefix, "  "); err != nil {
				t.Fatalf("json.Indent(%q): %v", compact.Bytes(), err)
			}
			if got := AppendIndent([]byte("kept:"), compact.Bytes(), prefix); !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("AppendIndent(%q, prefix %q)\n got %q\nwant %q", compact.Bytes(), prefix, got, want.Bytes())
			}
		}
	})
}

// TestAppendIndentSurvivesMalformedInput: outside its contract it still
// terminates inside the slice.
func TestAppendIndentSurvivesMalformedInput(t *testing.T) {
	for _, in := range []string{`"open`, `"esc\`, `]]]}`, `{`, `[,`, `{"a":`, ``} {
		_ = AppendIndent(nil, []byte(in), "  ")
	}
}
