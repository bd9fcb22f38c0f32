package render

import (
	"bytes"
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"go/format"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"asagen/internal/core"
	"asagen/internal/models"
)

// The renderers write every artefact once, in its final form. The
// libraries that used to produce that form stay as the oracles here:
// go/format for the Go source, encoding/xml's reflective marshaller for
// the diagram document.

// sweepMachines generates every registry model at every sweep parameter.
func sweepMachines(t testing.TB) map[string]*core.StateMachine {
	t.Helper()
	out := map[string]*core.StateMachine{}
	for _, name := range models.Names() {
		entry, err := models.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range entry.SweepParams {
			model, err := entry.Model(p)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, p, err)
			}
			machine, err := core.Generate(context.Background(), model)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, p, err)
			}
			out[fmt.Sprintf("%s/r=%d", name, p)] = machine
		}
	}
	return out
}

// handMachine builds a machine from state names and edges written as
// "from|message|to|action...".
func handMachine(model string, messages, states []string, edges ...string) *core.StateMachine {
	m := &core.StateMachine{ModelName: model, Parameter: 3, Messages: messages,
		Components: []core.StateComponent{core.NewBoolComponent("on")}}
	byName := map[string]*core.State{}
	for _, name := range states {
		s := &core.State{Name: name, Transitions: map[string]*core.Transition{}, MergedNames: []string{name}}
		byName[name] = s
		m.States = append(m.States, s)
	}
	m.Start = m.States[0]
	for _, e := range edges {
		f := strings.Split(e, "|")
		byName[f[0]].Transitions[f[1]] = &core.Transition{Message: f[1], Target: byName[f[2]], Actions: f[3:]}
	}
	return m
}

// edgeMachines are hand-built to hit the layout rules the registry models
// do not: go/printer's alignment sections and comment normalisation, and
// encoding/xml's escaping and empty-element forms.
func edgeMachines() map[string]*core.StateMachine {
	long := strings.Repeat("x", 41)
	out := map[string]*core.StateMachine{
		"one-state":      handMachine("one", []string{"GO"}, []string{"a"}),
		"no-messages":    handMachine("none", nil, []string{"a", "b"}),
		"unused-message": handMachine("unused", []string{"GO", "NEVER"}, []string{"a", "b"}, "a|GO|b|->x"),
		// Keys over 40 bytes whose size jumps by 2.5x and back: the
		// alignment section breaks, in both directions.
		"section-break": handMachine("sections", []string{"GO"},
			[]string{"a", "bb", long, long + "y", strings.Repeat(long, 3), long, "c", long, "dd"},
			"a|GO|bb|->x", "bb|GO|a"),
		// Rune width differs from byte length in keys and methods.
		"non-ascii": handMachine("breite", []string{"LÖS", "go"}, []string{"é", "日本語/ok", "a-b"},
			"é|LÖS|日本語/ok|->größe|->x", "日本語/ok|go|é|->日本"),
		"markup": handMachine(`<m a="1" b='2'>&amp;`, []string{"<GO>", "A&B", ""}, []string{`"q"`, "'s'", "t\tab", "bad\xffutf8"},
			`"q"|<GO>|'s'|-><v>|->"w"&`, "'s'|A&B|t\tab", "'s'||'s'||->x|"),
		// Model text gofmt rewrites inside top-level doc comments.
		"doc-quotes":   handMachine("``quoted'' name", []string{"``GO''"}, []string{"a"}, "a|``GO''|a|->``x''"),
		"doc-list":     handMachine("- item", []string{"GO"}, []string{"a"}),
		"doc-indent":   handMachine("  indented", []string{"GO"}, []string{"a"}),
		"doc-empty":    handMachine("", []string{"GO"}, []string{"a"}),
		"doc-heading":  handMachine("# heading", []string{"GO"}, []string{"a"}),
		"doc-link":     handMachine("[link]: https://example.org", []string{"[GO]"}, []string{"a"}),
		"backslash":    handMachine(`a\`, []string{`G\n`, `n\`}, []string{`s\`, `"t"\n`}, "s\\|G\\n|\"t\"\\n|->a\\|n\\n|\\", "s\\|n\\|s\\|n"),
		"doc-trailing": handMachine("trailing \u00a0", []string{"GO \t"}, []string{"a"}, "a|GO \t|a|->x\t|-> "),
	}
	out["doc-quotes"].Components = []core.StateComponent{core.NewBoolComponent("``c''"), core.NewBoolComponent("d ")}
	for i, s := range out["section-break"].States {
		s.Annotations = []string{"trailing blanks  ", "trailing tab\t", "", " \t ", fmt.Sprint("state ", i, " ``kept''")}
	}
	out["markup"].States[0].Annotations = []string{`<a href="x">&'`, "tab\there", "bad\xffutf8", "\u2028"}
	out["markup"].States[1].Final = true
	out["markup"].Finish = out["markup"].States[1]
	// An edge to a state the machine does not list.
	out["foreign-target"] = handMachine("foreign", []string{"GO"}, []string{"a"})
	out["foreign-target"].States[0].Transitions["GO"] = &core.Transition{Message: "GO", Target: &core.State{Name: "elsewhere"}}
	return out
}

func allMachines(t testing.TB) map[string]*core.StateMachine {
	out := sweepMachines(t)
	for name, m := range edgeMachines() {
		out[name] = m
	}
	return out
}

// TestGoSourceIsGofmtFixedPoint: gofmt has nothing to change in what the
// Go renderer writes.
func TestGoSourceIsGofmtFixedPoint(t *testing.T) {
	for name, m := range allMachines(t) {
		art, err := NewGoSourceRenderer("").Render(m)
		if name == "markup" || name == "foreign-target" {
			// Invalid UTF-8 cannot be Go source, in a comment or anywhere,
			// and a state that is not the machine's has no constant.
			if err == nil || !strings.Contains(err.Error(), "does not parse") {
				t.Errorf("%s: err = %v", name, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		want, err := format.Source(art.Data)
		if err != nil {
			t.Errorf("%s: gofmt: %v", name, err)
		} else if !bytes.Equal(art.Data, want) {
			t.Errorf("%s: not gofmt's fixed point:\n%s", name, firstDifference(art.Data, want))
		}
	}
}

// TestParseCheckModesAgree: the parse check leaves comments out of the
// AST it throws away. That must not change what it accepts: on every
// emitted source — the sweep, the edge machines the check refuses, broken
// renderer settings — and on sources whose only fault is inside a comment,
// it and the ParseComments mode gofmt parses with agree on err == nil.
func TestParseCheckModesAgree(t *testing.T) {
	sources := map[string][]byte{}
	for name, m := range allMachines(t) {
		if g, err := NewGoSourceRenderer("").emit(m); err == nil {
			sources[name] = g.buf
		}
	}
	ok := handMachine("m", []string{"GO"}, []string{"a", "b"}, "a|GO|b|->x")
	for name, r := range map[string]*GoSourceRenderer{
		"package clause": {PackageName: "two words"},
		"method name":    {ActionMethod: func(string) string { return "Send(" }},
	} {
		g, err := r.emit(ok)
		if err != nil {
			t.Fatal(err)
		}
		sources[name] = g.buf
	}
	valid := string(sources["commit/r=4"])
	if valid == "" {
		t.Fatal("no commit/r=4 sweep member to derive comment faults from")
	}
	line := strings.Index(valid, "//")
	for name, src := range map[string]string{
		"unterminated":      valid + "/* never closed",
		"nul in comment":    valid[:line+2] + "\x00" + valid[line+2:],
		"bad utf-8":         valid[:line+2] + "\xff" + valid[line+2:],
		"bom in comment":    valid[:line+2] + "\ufeff" + valid[line+2:],
		"cr in comment":     valid[:line+2] + "a\rb" + valid[line+2:],
		"semicolon by /**/": "package p\nfunc f() int { return /*\n*/ 1 }\n",
		"comment only":      "// nothing else\n",
		"line directive":    "package p\n//line :0\nvar x int\n",
		"general in expr":   "package p\nvar x = 1 /* one */ + /* two */ 2\n",
	} {
		sources[name] = []byte(src)
	}
	accepted := 0
	for name, src := range sources {
		_, withComments := parser.ParseFile(token.NewFileSet(), "", src, parser.ParseComments|parser.SkipObjectResolution)
		without := parses(src)
		if (withComments == nil) != (without == nil) {
			t.Errorf("%s: with comment nodes err = %v, without err = %v", name, withComments, without)
		}
		if without == nil {
			accepted++
		}
	}
	if accepted == 0 || accepted == len(sources) {
		t.Errorf("%d of %d sources accepted: the corpus must hold both verdicts", accepted, len(sources))
	}
}

// firstDifference shows the first line two texts disagree on.
func firstDifference(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got %q\nwant %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}

// TestGoSourceRefusesBrokenOutput: the parse check still stands between
// the emitter and the artefact, and text that would break out of a
// comment as valid Go — which that check cannot see — is refused too.
func TestGoSourceRefusesBrokenOutput(t *testing.T) {
	ok := handMachine("m", []string{"GO"}, []string{"a", "b"}, "a|GO|b|->x")
	if _, err := (&GoSourceRenderer{PackageName: "two words"}).Render(ok); err == nil || !strings.Contains(err.Error(), "does not parse") {
		t.Errorf("broken package clause: err = %v", err)
	}
	broken := func(string) string { return "Send(" }
	if _, err := (&GoSourceRenderer{ActionMethod: broken}).Render(ok); err == nil || !strings.Contains(err.Error(), "does not parse") {
		t.Errorf("broken method name: err = %v", err)
	}

	const inject = "ok\nStateInjected"
	hostile := map[string]*core.StateMachine{
		"model name": handMachine(inject, []string{"GO"}, []string{"a"}),
		"message":    handMachine("m", []string{inject}, []string{"a"}),
		"action":     handMachine("m", []string{"GO"}, []string{"a"}, "a|GO|a|"+inject),
		"annotation": handMachine("m", []string{"GO"}, []string{"a"}),
		"component":  handMachine("m", []string{"GO"}, []string{"a"}),
		"cr":         handMachine("ok\rStateInjected", []string{"GO"}, []string{"a"}),
	}
	hostile["annotation"].States[0].Annotations = []string{inject}
	hostile["component"].Components = []core.StateComponent{core.NewBoolComponent(inject)}
	for name, m := range hostile {
		if art, err := NewGoSourceRenderer("").Render(m); err == nil || !strings.Contains(err.Error(), "line break") {
			t.Errorf("%s: err = %v, artefact:\n%s", name, err, art.Data)
		}
	}
	// The same text arriving the way such a machine would: as a document.
	doc, err := NewXMLRenderer().Render(hostile["annotation"])
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadMachineXML(doc.Data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewGoSourceRenderer("").Render(loaded); err == nil {
		t.Error("loaded machine with a line break in an annotation rendered as Go")
	}
}

// TestXMLMatchesMarshalIndent: the direct writer's bytes are those of
// encoding/xml marshalling the Document, and they load back to the same
// machine.
func TestXMLMatchesMarshalIndent(t *testing.T) {
	for name, m := range allMachines(t) {
		for _, r := range []*XMLRenderer{NewXMLRenderer(), {}} {
			art, err := r.Render(m)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			body, err := xml.MarshalIndent(r.Document(m), "", "  ")
			if err != nil {
				t.Fatalf("%s: marshal: %v", name, err)
			}
			want := append(append([]byte(xml.Header), body...), '\n')
			if !bytes.Equal(art.Data, want) {
				t.Errorf("%s: differs from xml.MarshalIndent:\n%s", name, firstDifference(art.Data, want))
			}
		}
		if name == "markup" || name == "foreign-target" {
			continue // invalid UTF-8 and a foreign target do not survive the format
		}
		art, _ := NewXMLRenderer().Render(m)
		doc, err := ParseXML(art.Data)
		if err != nil {
			t.Errorf("%s: parse: %v", name, err)
			continue
		}
		loaded, err := MachineFromDocument(doc)
		if err != nil {
			t.Errorf("%s: load: %v", name, err)
			continue
		}
		if err := isomorphic(m, loaded); err != nil {
			t.Errorf("%s: round trip: %v", name, err)
		}
	}
}

// isomorphic compares what the diagram format carries: identity, message
// order, and per state its name, flags, annotations and edges. Empty
// annotations and actions are not carried (omitempty).
func isomorphic(a, b *core.StateMachine) error {
	if a.ModelName != b.ModelName || a.Parameter != b.Parameter || strings.Join(a.Messages, "\x00") != strings.Join(b.Messages, "\x00") {
		return errors.New("machine header differs")
	}
	if len(a.States) != len(b.States) || a.Start.Name != b.Start.Name || (a.Finish == nil) != (b.Finish == nil) {
		return errors.New("state set differs")
	}
	for i, s := range a.States {
		o := b.States[i]
		if s.Name != o.Name || s.Final != o.Final || carried(s.Annotations) != carried(o.Annotations) || len(s.Transitions) != len(o.Transitions) {
			return fmt.Errorf("state %q differs", s.Name)
		}
		for msg, tr := range s.Transitions {
			otr := o.Transitions[msg]
			if otr == nil || tr.Target.Name != otr.Target.Name || carried(tr.Actions) != carried(otr.Actions) {
				return fmt.Errorf("state %q: edge %q differs", s.Name, msg)
			}
		}
	}
	return nil
}

func carried(items []string) string {
	var kept []string
	for _, it := range items {
		if it != "" {
			kept = append(kept, it)
		}
	}
	return strings.Join(kept, "\x00")
}
