package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"asagen/internal/core"
)

// parseWithEncodingJSON is Parse as it was before the decoder knew the
// schema: the reflective strict decode. It is the oracle of the
// differential tests and of FuzzParseAgreesWithEncodingJSON, and is more
// lenient than Parse in exactly the ways refusedLeniencies lists.
func parseWithEncodingJSON(data []byte) (Doc, error) {
	var d Doc
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return Doc{}, err
	}
	if dec.More() {
		return Doc{}, fmt.Errorf("trailing data after document")
	}
	return d, nil
}

// gridDoc is a 201-rule document shaped like bench_test.go's regenDoc and
// the benchmark's grid spec: four bounded counters, an increment and a
// decrement message each with 24 single-state carve-outs ahead of the
// general rule, and a finish rule.
func gridDoc() Doc {
	d := Doc{Name: "grid", Description: "seeded counter grid", ParamName: "counter bound", DefaultParam: 3}
	var fin []Cond
	carveOuts := func(msg string) {
		for k := 0; k < 24; k++ {
			r := Rule{Message: msg, Actions: []string{fmt.Sprintf("->carve%d-grid", k)}}
			for c := 0; c < 4; c++ {
				r.When = append(r.When, Cond{Component: fmt.Sprintf("c%d", c), Op: OpEq, Value: Lit((k + c) % 4)})
			}
			d.Rules = append(d.Rules, r)
		}
	}
	for i := 0; i < 4; i++ {
		c, inc, dec := fmt.Sprintf("c%d", i), fmt.Sprintf("INC%d", i), fmt.Sprintf("DEC%d", i)
		d.Components = append(d.Components, Component{Name: c, Kind: KindInt, Max: ParamValue(0)})
		d.Messages = append(d.Messages, inc, dec)
		carveOuts(inc)
		d.Rules = append(d.Rules, Rule{Message: inc,
			When: []Cond{{Component: c, Op: OpLt, Value: ParamValue(0)}}, Set: []Assign{{Component: c, Add: 1}}})
		carveOuts(dec)
		d.Rules = append(d.Rules, Rule{Message: dec,
			When: []Cond{{Component: c, Op: OpGt, Value: Lit(0)}}, Set: []Assign{{Component: c, Add: -1}}})
		fin = append(fin, Cond{Component: c, Op: OpEq, Value: ParamValue(0)})
	}
	d.Messages = append(d.Messages, "FIN")
	d.Rules = append(d.Rules, Rule{Message: "FIN", When: fin, Actions: []string{"->done"}, Finish: true})
	return d
}

// wireForm is the document as Compiled.JSON writes it: what a client
// posts and what fsmgen -spec reads.
func wireForm(t testing.TB, d Doc) []byte {
	t.Helper()
	c, err := Compile(d)
	if err != nil {
		t.Fatal(err)
	}
	data, err := c.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// refusedLeniencies are documents encoding/json's strict decode took, each
// for a machine its text does not describe, and Parse refuses; wantErr is
// what the error must name.
var refusedLeniencies = []struct {
	name, doc, wantErr string
}{
	// Parsed as model "y" whose rule "b" kept finish:true and the action
	// "->x" of the element the second "rules" overwrote.
	{"duplicate rules and case-folded NAME",
		`{"name":"x","rules":[{"message":"a","finish":true,"actions":["->x"]}],"rules":[{"message":"b"}],"NAME":"y"}`,
		`duplicate key "rules"`},
	{"case-folded key alone", `{"name":"x","NAME":"y"}`, `unknown field "NAME"`},
	{"duplicate name", `{"name":"x","name":"y"}`, `duplicate key "name"`},
	// 0xFF became U+FFFD before Compile could refuse it.
	{"raw 0xFF in free text", "{\"name\":\"x\",\"description\":\"caf\xff\"}", `invalid UTF-8`},
	{"duplicate key in a nested when element",
		`{"name":"x","rules":[{"message":"a","when":[{"component":"c","op":"==","op":"!="}]}]}`,
		`duplicate key "op"`},
	{"duplicate key in a value", `{"name":"x","start":[{"offset":1,"offset":2}]}`, `duplicate key "offset"`},
	{"duplicate key spelt with an escape", `{"name":"x","n\u0061me":"y"}`, `duplicate key "name"`},
	{"half a surrogate pair", `{"name":"x","description":"\ud83d"}`, `invalid escape`},
	{"a surrogate pair the wrong way round", `{"name":"\ude00\ud83d"}`, `invalid escape`},
	{"closing bracket after the document", `{"name":"x"}]`, `trailing data`},
}

// TestParseRefusesWhatEncodingJSONMerged: every leniency is a located
// parse error naming what offends, and the oracle — the decoder Parse
// used to be — still takes each, so the list says what changed. Integers
// written with a fraction or an exponent were refused before and are now.
func TestParseRefusesWhatEncodingJSONMerged(t *testing.T) {
	for _, c := range refusedLeniencies {
		if _, err := parseWithEncodingJSON([]byte(c.doc)); err != nil {
			t.Errorf("%s: the oracle refuses it too (%v): not a leniency", c.name, err)
		}
		_, err := Parse([]byte(c.doc))
		if err == nil {
			t.Errorf("%s: parsed", c.name)
		} else if !strings.Contains(err.Error(), c.wantErr) || !strings.HasPrefix(err.Error(), "spec: parse: line 1, column ") {
			t.Errorf("%s: error %q does not locate %s", c.name, err, c.wantErr)
		}
	}
	for _, c := range []struct{ doc, wantErr string }{
		{`{"name":"x","default_param": 2.0}`, "line 1, column 30: expected an integer, without fraction or exponent"},
		{`{"name":"x","start":[{"offset":1e2}]}`, "line 1, column 32: expected an integer, without fraction or exponent"},
		{`{"name":"x","min_param":01}`, "expected an integer"},
		{`{"name":"x","min_param":-}`, "expected an integer"},
		{`{"name":"x","min_param":92233720368547758080}`, "integer out of range"},
		{"{\n  \"name\": \"x\",\n  \"typo_field\": 1\n}", `line 3, column 3: unknown field "typo_field"`},
		{`{"name":"x"} trailing`, "line 1, column 14: trailing data after document"},
		{`{"name":"x",}`, `column 13: expected '"'`},
		{`{"name":"x","messages":["a",]}`, `expected '"'`},
		{`{"name":"x","messages":["a" "b"]}`, `expected ',' or ']'`},
		{`{"name":"x","messages":{"a":1}}`, `expected '['`},
		{`{"name":5}`, `expected '"'`},
		{`{"name":"x","rules":[{"finish":"yes"}]}`, "expected true or false"},
		{`{"name":"tab	bed"}`, "control character in string"},
		{`{"name":"a\qb"}`, "invalid escape in string"},
		{`{"name":"a\u12"}`, "invalid escape in string"},
		{`{"name":"x`, "unterminated string"},
		{`{"name":"x\`, "invalid escape in string"},
		{`{"name"`, `expected ':' after key "name"`},
		{`{"name":"x"`, `expected ',' or '}'`},
		{`[]`, `expected '{'`},
		{``, `expected '{'`},
	} {
		_, err := Parse([]byte(c.doc))
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("Parse(%s) error = %v, want %s", c.doc, err, c.wantErr)
		}
		if _, oerr := parseWithEncodingJSON([]byte(c.doc)); oerr == nil {
			t.Errorf("the oracle takes %s", c.doc)
		}
	}
}

// TestParseReadsWhatEncodingJSONRead: on what both take, Parse and the
// oracle build the same Doc, nil and empty lists told apart — the wire
// form and the compact form of real documents, null wherever a value may
// stand, every escape, and text outside ASCII.
func TestParseReadsWhatEncodingJSONRead(t *testing.T) {
	docs := map[string][]byte{
		"grid wire form":        wireForm(t, gridDoc()),
		"termination wire form": wireForm(t, terminationDoc()),
		"editable wire form":    wireForm(t, editableDoc()),
		"null document":         []byte(` null `),
		"empty document":        []byte("\t{ }\r\n"),
		"null for every kind of value": []byte(`{"name":null,"min_param":null,"sweep_params":[null,2],"messages":[null],
			"components":[null,{"name":"c","kind":null,"max":null}],"start":null,"abstraction":null,
			"rules":[null,{"message":"m","when":null,"set":[{"component":"c","set":null,"add":null}],"finish":null},
			{"when":[{"value":{"param":null,"offset":null}}]}]}`),
		"empty lists are not absent ones": []byte(`{"components":[],"messages":[],"rules":[{"when":[],"set":[],"actions":[],"annotations":[]}],
			"sweep_params":[],"start":[],"describe":[],"abstraction":{"labels":[],"guards":[],"ops":[],"symbols":[]}}`),
		"null for derived values and the fault tolerance": []byte(`{"derived":[null,{"name":null,"value":null,"div":null,"minus":null},
			{"name":"h","value":{"derived":null}}],"fault_tolerance":null,"rules":[{"when":[{"value":{"derived":"h"}}]}]}`),
		"an empty set is a set":      []byte(`{"rules":[{"set":[{"component":"c","set":{}}]}]}`),
		"a key spelt with an escape": []byte(`{"n\u0061me":"x","\u0072ules":[]}`),
		"escapes": []byte(`{"name":"a\"b\\c\/d\b\f\n\r\t\u00e9\u003e\ud83d\ude00\uFFFD\u0000 ","description":"plain é 日本 😀",
			"rules":[{"message":"\u003c","actions":["-\u003ex","->x"]}],"min_param":-0,"default_param":-12}`),
	}
	for _, family := range []string{"consensus", "chord", "storage", "termination"} {
		data, err := os.ReadFile(filepath.Join("..", "models", family+".json"))
		if err != nil {
			t.Fatal(err)
		}
		docs["built-in "+family] = data
	}
	for name, data := range docs {
		want, err := parseWithEncodingJSON(data)
		if err != nil {
			t.Fatalf("%s: the oracle refuses it: %v", name, err)
		}
		got, err := Parse(data)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Parse read\n%#v\nthe oracle\n%#v", name, got, want)
		}
		if compact, err := json.Marshal(want); err != nil {
			t.Fatal(err)
		} else if got, err := Parse(compact); err != nil || !reflect.DeepEqual(got, mustOracle(t, compact)) {
			t.Errorf("%s: compact form: %v, %#v", name, err, got)
		}
	}
}

func mustOracle(t *testing.T, data []byte) Doc {
	t.Helper()
	d, err := parseWithEncodingJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestParseInternsRepeatedNames: a component name, an operator or a
// message that the document repeats is held once.
func TestParseInternsRepeatedNames(t *testing.T) {
	d, err := Parse(wireForm(t, gridDoc()))
	if err != nil {
		t.Fatal(err)
	}
	first := d.Rules[0]
	for _, r := range d.Rules[1:24] {
		if !sameBytes(r.Message, first.Message) ||
			!sameBytes(r.When[0].Component, d.Components[0].Name) || !sameBytes(r.When[0].Op, first.When[0].Op) {
			t.Fatalf("rule %+v does not share its names with rule %+v", r, first)
		}
	}
}

// sameBytes reports whether two strings are one copy.
func sameBytes(a, b string) bool {
	return len(a) == len(b) && unsafe.StringData(a) == unsafe.StringData(b)
}

// TestParseAllocations pins what the write path of the registry pays per
// document: the decoder allocates each list the document holds once, at
// its length, the lists its rules hold from a few chunks, and one string
// per text that is not a repeated name; a Compile that succeeds formats no
// diagnostic path. The ceilings are a fifth above what was measured when
// they were set: Parse 238 allocations and 85 784 bytes since the decoder
// is recycled and carves rule lists from chunks (649 and 150 810 before;
// the reflective decoder took 3004 allocations), Compile 201 (the eager
// paths took 2357). Compile has taken 162 since the canonical form is
// written without reflection and each message's rules are a window of one
// array. The bytes are the least of ten parses: under the race detector
// sync.Pool drops a quarter of what it is given, and a parse whose decoder
// was dropped grows its lists again.
func TestParseAllocations(t *testing.T) {
	doc := gridDoc()
	data := wireForm(t, doc)
	if got := testing.AllocsPerRun(20, func() {
		if _, err := Parse(data); err != nil {
			t.Fatal(err)
		}
	}); got > 286 {
		t.Errorf("Parse of the %d-rule document: %.0f allocations, want at most 286", len(doc.Rules), got)
	}
	least := uint64(math.MaxUint64)
	for range 10 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Parse(data); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 102_940 {
		t.Errorf("Parse of the %d-rule document: %d bytes, want at most 102 940", len(doc.Rules), least)
	}
	conds := 0
	for _, r := range doc.Rules {
		conds += len(r.When)
	}
	if got := testing.AllocsPerRun(20, func() {
		if _, err := Compile(doc); err != nil {
			t.Fatal(err)
		}
	}); got > 240 || int(got) >= conds {
		t.Errorf("Compile of a valid document: %.0f allocations, want at most 240 — fewer than one per %d conditions", got, conds)
	}
}

// TestParseAndCompileKeepsNothingOfItsInput: a compiled spec holds copies
// of every string it was given, so a server may read its next body into
// the buffer the last one came in. Overwriting the text after
// ParseAndCompile, and parsing another document with the decoder that read
// this one, changes neither the document, its wire form nor a member's
// fingerprint.
func TestParseAndCompileKeepsNothingOfItsInput(t *testing.T) {
	docs := map[string][]byte{
		"grid":        wireForm(t, gridDoc()),
		"termination": wireForm(t, terminationDoc()),
		"editable":    wireForm(t, editableDoc()),
	}
	for _, family := range []string{"consensus", "chord", "storage", "termination"} {
		data, err := os.ReadFile(filepath.Join("..", "models", family+".json"))
		if err != nil {
			t.Fatal(err)
		}
		docs["built-in "+family] = data
	}
	other := wireForm(t, editableDoc())
	for name, data := range docs {
		c, err := ParseAndCompile(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		snapshot := func() (wire, doc []byte, fp core.Fingerprint) {
			wire, err := c.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if doc, err = json.Marshal(c.Doc()); err != nil {
				t.Fatal(err)
			}
			m, err := c.Model(0)
			if err != nil {
				t.Fatal(err)
			}
			return wire, doc, core.FingerprintModel(m)
		}
		wire, doc, fp := snapshot()
		for i := range data {
			data[i] = other[i%len(other)]
		}
		if _, err := Parse(other); err != nil {
			t.Fatal(err)
		}
		if w, d, f := snapshot(); !bytes.Equal(w, wire) || !bytes.Equal(d, doc) || f != fp {
			t.Errorf("%s: the compiled spec changed with the text it was parsed from", name)
		}
	}
}

// TestParseConcurrently: decoders are recycled through a pool, so
// documents parsed at once on several goroutines each come out as they do
// alone.
func TestParseConcurrently(t *testing.T) {
	docs := [][]byte{wireForm(t, gridDoc()), wireForm(t, terminationDoc()), wireForm(t, editableDoc())}
	want := make([][]byte, len(docs))
	for i, data := range docs {
		d, err := Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = json.Marshal(d); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range 20 {
				i := (g + n) % len(docs)
				d, err := Parse(docs[i])
				if err != nil {
					t.Error(err)
					return
				}
				if got, err := json.Marshal(d); err != nil || !bytes.Equal(got, want[i]) {
					t.Errorf("document %d parsed on goroutine %d differs from its serial parse (%v)", i, g, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
