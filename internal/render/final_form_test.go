package render

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"go/format"
	"strconv"
	"strings"
	"testing"

	"asagen/internal/core"
)

// The renderers write every artefact once, in its final form. The
// libraries that used to produce that form stay as the oracles here:
// go/format for the Go source, encoding/xml's reflective marshaller for
// the diagram document.

// SweepMachines generates every registry model at every sweep parameter.
// The external test file sweep_test.go sets it: the registry compiles its
// spec documents through internal/spec, which imports this package, so
// only a test outside the package can import the registry.
var SweepMachines func(testing.TB) map[string]*core.StateMachine

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
	long, long2, long3 := strings.Repeat("x", 41), strings.Repeat("y", 41), strings.Repeat("z", 41)
	out := map[string]*core.StateMachine{
		"one-state":      handMachine("one", []string{"GO"}, []string{"a"}),
		"no-messages":    handMachine("none", nil, []string{"a", "b"}),
		"unused-message": handMachine("unused", []string{"GO", "NEVER"}, []string{"a", "b"}, "a|GO|b|->x"),
		// Keys over 40 bytes whose size jumps by 2.5x and back: the
		// alignment section breaks, in both directions.
		"section-break": handMachine("sections", []string{"GO"},
			[]string{"a", "bb", long, long + "y", strings.Repeat(long, 3), long2, "c", long3, "dd"},
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
	out := SweepMachines(t)
	for name, m := range edgeMachines() {
		out[name] = m
	}
	return out
}

// TestGoSourceIsGofmtFixedPoint: gofmt has nothing to change in what the
// Go renderer writes.
func TestGoSourceIsGofmtFixedPoint(t *testing.T) {
	for name, m := range allMachines(t) {
		art, err := GoSource(m, "")
		if name == "markup" || name == "foreign-target" {
			// Invalid UTF-8 cannot be Go source, in a comment or anywhere,
			// and a state that is not the machine's has no constant.
			if err == nil {
				t.Errorf("%s: rendered", name)
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

// TestGoSourceRefusesBrokenOutput: the gate stands between the model and
// the artefact. What is no identifier, what Go source cannot hold in a
// comment, and text that would break out of a comment as valid Go — which
// no parse could see — each fail the render.
func TestGoSourceRefusesBrokenOutput(t *testing.T) {
	refused := func(name string, h hostile) {
		t.Helper()
		if art, err := GoSource(h.build()); err == nil {
			t.Errorf("%s: rendered:\n%s", name, art.Data)
		}
	}
	for _, pkg := range []string{"two words", "_", "func", "1st", "a\x00", "\xff"} {
		refused("package "+strconv.Quote(pkg), benign.with("pkg", pkg).faulty(customPackage))
	}
	for _, slot := range []string{"model", "component", "msg1", "note", "act1", "act2", "act3"} {
		for _, text := range []string{"\x00", "bad\xffutf8", "\ufeffbom", "ok\nStateInjected", "ok\rStateInjected", "ok\fStateInjected"} {
			refused(slot+" = "+strconv.Quote(text), benign.with(slot, text))
		}
	}
	// Names that parse and do not compile; the refusal names both model
	// strings and the Go name they meet at.
	for _, c := range []struct {
		h    hostile
		want []string
	}{
		{benign.with("state1", "a b").with("state2", "a_b"), []string{`"a b"`, `"a_b"`, "State_a_b"}},
		{benign.with("act1", "->x y").with("act2", "->x_y"), []string{`"->x y"`, `"->x_y"`, "Actions.SendXY"}},
		{benign.with("msg1", "a b").with("msg2", "a_b"), []string{`"a b"`, `"a_b"`, "Machine.ReceiveAB"}},
		{benign.with("msg1", "-"), []string{`"-"`, "Machine.Receive"}},
		{benign.with("pkg", "_").faulty(customPackage), []string{`"_"`}},
		{benign.faulty(ghostTarget), []string{`"ghost"`}},
	} {
		_, err := GoSource(c.h.build())
		for _, want := range c.want {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%+v: err = %v, want %s named", c.h, err, want)
			}
		}
	}
	// The same text arriving as a document, read back.
	m, _ := benign.with("note", "ok\nStateInjected").build()
	doc, err := renderXML(m)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := loadXML(doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GoSource(loaded, ""); err == nil {
		t.Error("loaded machine with a line break in an annotation rendered as Go")
	}
}

// marshalIndent is what encoding/xml writes for m's Document: the bytes
// the xml format must write.
func marshalIndent(t testing.TB, m *core.StateMachine) []byte {
	t.Helper()
	body, err := xml.MarshalIndent(Document(m), "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return append(append([]byte(xml.Header), body...), '\n')
}

// TestXMLMatchesMarshalIndent: the direct writer's bytes are those of
// encoding/xml marshalling the Document, and xml.Unmarshal reads them
// back to the same machine. A machine with an edge to a state it does not
// list has no document (TestDanglingTargetsAreRefused).
func TestXMLMatchesMarshalIndent(t *testing.T) {
	for name, m := range allMachines(t) {
		if name == "foreign-target" {
			continue
		}
		data, err := renderXML(m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := marshalIndent(t, m); !bytes.Equal(data, want) {
			t.Errorf("%s: differs from xml.MarshalIndent:\n%s", name, firstDifference(data, want))
		}
		if name == "markup" {
			continue // invalid UTF-8 does not survive the format
		}
		loaded, err := loadXML(data)
		if err != nil {
			t.Errorf("%s: parse: %v", name, err)
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
