package spec

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// escapesDoc carries what encoding/json writes other than as it is: HTML
// characters, U+2028 and U+2029, the short and the \u00XX control escapes,
// invalid UTF-8 and DEL, in every kind of string field; and every kind of
// slice nil, empty and full, with and without omitempty.
func escapesDoc() Doc {
	const s = "<a href=\"x\">&amp;</a>\u2028\u2029\b\f\n\r\t\x00\x01\x1f\x7f\\/ \u00e9 \xff\xc3 \xed\xa0\x80 \U0001F600"
	v := Value{Param: true, Derived: s, Offset: math.MinInt}
	return Doc{
		Name: s, ModelName: s, Description: s, ParamName: s, Vocabulary: s,
		DefaultParam: math.MaxInt, MinParam: -1,
		SweepParams:    []int{},
		Derived:        []Derived{{Name: s, Value: v, Div: 3, Minus: s}, {}},
		FaultTolerance: &Value{},
		Components:     nil,
		Messages:       []string{},
		Start:          []Value{{}, v},
		Rules: []Rule{
			{},
			{Message: s, When: []Cond{{Component: s, Op: s, Value: v}}, Set: []Assign{{Component: s, Set: &Value{}, Add: -1}, {}},
				Actions: []string{s, ""}, Annotations: []string{}, Finish: true},
		},
		Describe:    []DescribeRule{{}, {When: []Cond{{}}, Text: s}},
		Abstraction: &Abstraction{Guards: []GuardRule{{s, s}}, Ops: []VarOpRule{{}, {s, s, 7}}, Symbols: []SymbolRule{{v, s}}},
	}
}

// checkCanonical compares the encoder with encoding/json on d, compact and
// indented.
func checkCanonical(t *testing.T, d Doc) {
	t.Helper()
	want, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	got := appendDoc(nil, &d)
	if !bytes.Equal(got, want) {
		t.Fatalf("canonical form\n%s\nencoding/json\n%s", got, want)
	}
	wantIndented, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, got, "", "  "); err != nil {
		t.Fatalf("the canonical form is not JSON: %v\n%s", err, got)
	}
	if !bytes.Equal(indented.Bytes(), wantIndented) {
		t.Fatalf("indented canonical form\n%s\nencoding/json\n%s", indented.Bytes(), wantIndented)
	}
}

// checkCompiled holds what a compiled document pins into fingerprints and
// writes on the wire to encoding/json.
func checkCompiled(t *testing.T, c *Compiled) {
	t.Helper()
	d := c.Doc()
	checkCanonical(t, d)
	want, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if c.extra[1] != string(want) {
		t.Fatalf("%s: the fingerprint extra is not encoding/json's bytes", c.Name())
	}
	wantIndented, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := c.JSON(); err != nil || !bytes.Equal(got, wantIndented) {
		t.Fatalf("%s: JSON() = %v\n%s\nMarshalIndent\n%s", c.Name(), err, got, wantIndented)
	}
}

// TestCanonicalMatchesEncodingJSON holds the hand-written encoder to the
// bytes encoding/json writes — what every spec model's fingerprint, store
// key and ETag were pinned to — on every embedded spec, the counter grid,
// the spec of each fleetsim scenario that carries one, and a document of
// escapes and nil, empty and full slices.
func TestCanonicalMatchesEncodingJSON(t *testing.T) {
	for _, c := range embeddedDocs(t) {
		checkCompiled(t, c)
	}
	for _, d := range []Doc{gridDoc(), terminationDoc(), editableDoc()} {
		c, err := Compile(d)
		if err != nil {
			t.Fatal(err)
		}
		checkCompiled(t, c)
	}
	scenarios, err := filepath.Glob(filepath.Join("..", "..", "examples", "fleetsim", "*.json"))
	if err != nil || len(scenarios) == 0 {
		t.Fatalf("no example scenarios: %v", err)
	}
	for _, path := range scenarios {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var with struct{ Spec json.RawMessage }
		if err := json.Unmarshal(data, &with); err != nil {
			t.Fatal(err)
		}
		if len(with.Spec) > 0 {
			c, err := ParseAndCompile(with.Spec)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			checkCompiled(t, c)
		}
	}
	checkCanonical(t, escapesDoc())
	checkCanonical(t, Doc{})
	checkCanonical(t, Doc{Abstraction: &Abstraction{}})
}

// FuzzCanonicalAgreesWithEncodingJSON holds the encoder to json.Marshal
// and json.MarshalIndent on documents nobody wrote: whatever the lenient
// decode reads from data, with s — which may be any bytes, valid UTF-8 or
// not — and n placed in a field of every kind. Where the document
// compiles, the fingerprint extra and JSON() are checked too.
//
//	go test ./internal/spec -run='^$' -fuzz=FuzzCanonicalAgreesWithEncodingJSON -fuzztime=10s -fuzzminimizetime=0
func FuzzCanonicalAgreesWithEncodingJSON(f *testing.F) {
	for _, c := range embeddedDocs(f) {
		data, err := c.JSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, "<&>\u2028\u2029\b\f\x00\x7f\xff", 7)
	}
	f.Add(wireForm(f, gridDoc()), "", 0)
	f.Add([]byte(`{"name":"m","rules":[{"message":"a","set":[{"set":{}}]}],"abstraction":{"labels":null}}`), "\u00e9\xed\xa0\x80", math.MinInt)
	f.Add([]byte(`{}`), "\U0001F600", math.MaxInt)
	f.Fuzz(func(t *testing.T, data []byte, s string, n int) {
		d, err := parseWithEncodingJSON(data)
		if err != nil {
			d = Doc{}
		}
		checkCanonical(t, d)
		if c, err := Compile(d); err == nil {
			checkCompiled(t, c)
		}
		d.Name, d.Description = s, d.Description+s
		d.SweepParams = append(d.SweepParams, n)
		d.Derived = append(d.Derived, Derived{Name: s, Value: Value{Derived: s, Offset: n}, Div: n, Minus: s})
		d.Messages = append(d.Messages, s)
		d.Rules = append(d.Rules, Rule{Message: s, When: []Cond{{Component: s, Op: s, Value: ParamValue(n)}},
			Set: []Assign{{Component: s, Add: n}}, Actions: []string{s}, Annotations: []string{s}, Finish: n%2 == 0})
		d.Describe = append(d.Describe, DescribeRule{Text: s})
		if d.Abstraction != nil {
			d.Abstraction.Symbols = append(d.Abstraction.Symbols, SymbolRule{Value: Lit(n), Text: s})
		}
		checkCanonical(t, d)
	})
}
