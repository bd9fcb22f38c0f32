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

// addSeeds is the corpus both targets start from: the termination port,
// the checked-in leader-lease scenario's spec, a minimal counter, shapes
// the decoder and the validator reject, and free text that tries to leave
// the comment a renderer places it in.
func addSeeds(f *testing.F) {
	seed, err := json.Marshal(terminationDoc())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	scenario, err := os.ReadFile(filepath.Join("..", "..", "examples", "fleetsim", "leader-lease.json"))
	if err != nil {
		f.Fatal(err)
	}
	var lease struct{ Spec json.RawMessage }
	if err := json.Unmarshal(scenario, &lease); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(lease.Spec))
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
		art, err := render.NewGoSourceRenderer("").Render(machine)
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
