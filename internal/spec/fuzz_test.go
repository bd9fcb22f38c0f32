package spec

import (
	"bytes"
	"context"
	"encoding/json"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"testing"
	"time"

	"asagen/internal/core"
	"asagen/internal/render"
)

// FuzzCompile exercises the POST /v1/models input path: arbitrary bytes
// are decoded, validated and — when they survive both — instantiated and
// fingerprinted. The target asserts the layer's safety contract: no input
// may panic, every accepted document must compile deterministically, and
// its canonical JSON must re-compile to the same model identity.
//
// Run locally with:
//
//	go test ./internal/spec -run='^$' -fuzz=FuzzCompile -fuzztime=30s
func FuzzCompile(f *testing.F) {
	addSeeds(f)

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ParseAndCompile(data)
		if err != nil {
			return // rejected input: the only requirement is not panicking
		}
		m, err := c.Model(0)
		if err != nil {
			return // e.g. a component max that is negative at the default
		}
		fp := core.FingerprintModel(m)

		// Accepted documents must survive a canonicalisation round-trip
		// with identical model identity (the re-registration path relies
		// on this to detect changed specs by fingerprint).
		canon, err := json.Marshal(c.Doc())
		if err != nil {
			t.Fatalf("canonicalise accepted doc: %v", err)
		}
		c2, err := ParseAndCompile(canon)
		if err != nil {
			t.Fatalf("canonical JSON of an accepted doc no longer compiles: %v\n%s", err, canon)
		}
		m2, err := c2.Model(0)
		if err != nil {
			t.Fatalf("canonical model rebuild: %v", err)
		}
		if fp2 := core.FingerprintModel(m2); fp2 != fp {
			t.Fatalf("fingerprint changed across canonicalisation: %s -> %s", fp.Short(), fp2.Short())
		}
	})
}

// FuzzParseAgreesWithEncodingJSON holds the decoder that knows a Doc's
// shape to the reflective strict decode it replaced, which is an oracle
// here and nowhere a fallback. Whatever Parse takes, the oracle takes and
// reads as the same document — the same canonical bytes and, where they
// compile, the same model fingerprint — so Parse is the stricter of the
// two and invents nothing. Whatever the oracle takes round-trips: both its
// canonical and its indented encoding (the wire form) parse, to the same
// bytes again, so Parse refuses nothing this package itself writes.
//
// Without -fuzzminimizetime=0 the 119 KB grid seed makes minimising each
// new input most of the run.
//
//	go test ./internal/spec -run='^$' -fuzz=FuzzParseAgreesWithEncodingJSON -fuzztime=30s -fuzzminimizetime=0
func FuzzParseAgreesWithEncodingJSON(f *testing.F) {
	addSeeds(f)
	for _, d := range []Doc{gridDoc(), editableDoc()} {
		f.Add(wireForm(f, d))
	}
	for _, c := range refusedLeniencies {
		f.Add([]byte(c.doc))
	}
	f.Add([]byte(`{"name":"m","min_param":2.0,"start":[{"offset":1e2}],"abstraction":null,"rules":[null,{"set":[{"set":{}}]}]}`))
	f.Add([]byte(`{"name":"a\"b\\\/\b\f\n\r\t\u00e9\ud83d\ude00\uFFFD é","messages":["\u003c","<"],"sweep_params":[-0,9223372036854775807]}`))

	canonical := func(t *testing.T, d Doc) []byte {
		data, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("marshal %#v: %v", d, err)
		}
		return data
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, oracleErr := parseWithEncodingJSON(data)
		got, err := Parse(data)
		if err == nil {
			if oracleErr != nil {
				t.Fatalf("Parse takes what encoding/json refuses (%v):\n%s", oracleErr, data)
			}
			if g, w := canonical(t, got), canonical(t, want); !bytes.Equal(g, w) {
				t.Fatalf("Parse read\n%s\nencoding/json read\n%s\nin\n%s", g, w, data)
			}
			gc, gerr := Compile(got)
			wc, werr := Compile(want)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("Compile: %v for Parse's document, %v for the oracle's:\n%s", gerr, werr, data)
			}
			if gerr == nil {
				gm, gerr := gc.Model(0)
				wm, werr := wc.Model(0)
				if (gerr == nil) != (werr == nil) || gerr == nil && core.FingerprintModel(gm) != core.FingerprintModel(wm) {
					t.Fatalf("the two documents are not one model (%v, %v):\n%s", gerr, werr, data)
				}
			}
		}
		if oracleErr != nil {
			return
		}
		canon := canonical(t, want)
		indented, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		for _, form := range [][]byte{canon, indented} {
			back, err := Parse(form)
			if err != nil {
				t.Fatalf("Parse refuses a document encoding/json wrote: %v\n%s", err, form)
			}
			if again := canonical(t, back); !bytes.Equal(again, canon) {
				t.Fatalf("round trip changed the document:\n%s\n%s", canon, again)
			}
		}
	})
}

// addSeeds is the corpus every target starts from: the termination port,
// the documents the registry's built-in families are compiled from, the
// spec of each checked-in fleetsim scenario that carries one, a minimal
// counter, shapes the decoder and the validator reject, and free text
// that tries to leave the comment a renderer places it in.
func addSeeds(f *testing.F) {
	seed, err := json.Marshal(terminationDoc())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	builtins, err := filepath.Glob(filepath.Join("..", "models", "*.json"))
	if err != nil || len(builtins) != 4 {
		f.Fatalf("want the four built-in documents, found %v (%v)", builtins, err)
	}
	for _, path := range builtins {
		doc, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	scenarios, err := filepath.Glob(filepath.Join("..", "..", "examples", "fleetsim", "*.json"))
	if err != nil || len(scenarios) == 0 {
		f.Fatalf("no example scenarios: %v", err)
	}
	for _, path := range scenarios {
		scenario, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		var with struct{ Spec json.RawMessage }
		if err := json.Unmarshal(scenario, &with); err != nil {
			f.Fatal(err)
		}
		if len(with.Spec) > 0 {
			f.Add([]byte(with.Spec))
		}
	}
	const counter = `"components":[{"name":"c","kind":"int","max":{"param":true}}],` +
		`"messages":["GO"],"rules":[{"message":"GO","set":[{"component":"c","add":1}],"actions":["->x"]}]`
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"name":"m",` + counter + `}`))
	f.Add([]byte(`{"name":"m","default_param":-3}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"name":"m","components":[],"messages":[],"rules":[]} `))
	f.Add([]byte(`{"name":"m",` + counter + `,"describe":[{"text":"ok\nStateInjected"}]}`))
	f.Add([]byte("{\"name\":\"m\",\"model_name\":\"  - ``m'' \"," + counter + `,"describe":[{"text":"trailing  "}]}`))
	// Names that meet at one Go identifier, and text gofmt or go/scanner
	// would not leave where the renderer put it.
	const colliding = `"components":[{"name":"c","kind":"int","max":{"param":true}}],"messages":["a b","a_b","-"],` +
		`"rules":[{"message":"a b","set":[{"component":"c","add":1}],"actions":["->x y","->x_y"]}]`
	f.Add([]byte(`{"name":"m",` + colliding + `}`))
	f.Add([]byte(`{"name":"m","model_name":"+build ignore",` + counter + `,"describe":[{"text":"\ufeff"},{"text":" +build x"}]}`))
}

// FuzzGoSourceFixedPoint holds the Go renderer to its claims on specs
// nobody wrote by hand: whatever compiles renders, at its default
// parameter — the renderer's gate refuses nothing Compile admitted — to
// source that parses, that gofmt would leave unchanged and that
// type-checks, though the renderer itself ran none of the three.
//
//	go test ./internal/spec -run='^$' -fuzz=FuzzGoSourceFixedPoint -fuzztime=30s
func FuzzGoSourceFixedPoint(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ParseAndCompile(data)
		if err != nil {
			return
		}
		m, err := c.Model(0)
		if err != nil {
			return
		}
		space := 1
		for _, comp := range m.Components() {
			if space *= comp.Cardinality(); space <= 0 || space > 1<<12 {
				return // generation time is not what this target measures
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		machine, err := core.Generate(ctx, m)
		if err != nil {
			return
		}
		art, err := render.GoSource(machine, "")
		if err != nil {
			t.Fatalf("compiled spec does not render as Go: %v\n%s", err, data)
		}
		formatted, err := format.Source(art.Data)
		if err != nil {
			t.Fatalf("gofmt rejects the artefact: %v\n%s", err, data)
		}
		if !bytes.Equal(art.Data, formatted) {
			t.Fatalf("not gofmt's fixed point for %s:\n--- rendered\n%s\n--- gofmt\n%s", data, art.Data, formatted)
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "", art.Data, parser.ParseComments)
		if err == nil {
			_, err = (&types.Config{}).Check(file.Name.Name, fset, []*ast.File{file}, nil)
		}
		if err != nil {
			t.Fatalf("the artefact does not compile: %v\n%s", err, data)
		}
	})
}
