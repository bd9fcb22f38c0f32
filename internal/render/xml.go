package render

import (
	"encoding/xml"
	"fmt"
	"strconv"
	"strings"

	"asagen/internal/core"
)

// The XML renderer emits a diagram-interchange document equivalent to the
// one the paper imported into its diagramming tool (Fig. 15): states with
// stable identifiers and annotated edges, consumable by external tooling.

// XMLDiagram is the root element of the diagram interchange document.
type XMLDiagram struct {
	XMLName   xml.Name        `xml:"stateMachineDiagram"`
	Model     string          `xml:"model,attr"`
	Parameter int             `xml:"parameter,attr"`
	Messages  []string        `xml:"messages>message"`
	States    []XMLState      `xml:"states>state"`
	Edges     []XMLTransition `xml:"transitions>transition"`
}

// XMLState is one diagram node.
type XMLState struct {
	ID          string   `xml:"id,attr"`
	Name        string   `xml:"name,attr"`
	Start       bool     `xml:"start,attr,omitempty"`
	Final       bool     `xml:"final,attr,omitempty"`
	Annotations []string `xml:"annotation,omitempty"`
}

// XMLTransition is one diagram edge.
type XMLTransition struct {
	From    string   `xml:"from,attr"`
	To      string   `xml:"to,attr"`
	Message string   `xml:"message,attr"`
	Phase   bool     `xml:"phase,attr,omitempty"`
	Actions []string `xml:"action,omitempty"`
}

// XMLRenderer renders a machine as the XML diagram document.
type XMLRenderer struct {
	// IncludeAnnotations embeds the state commentary in the document.
	IncludeAnnotations bool
}

// NewXMLRenderer returns a renderer with annotations enabled.
func NewXMLRenderer() *XMLRenderer {
	return &XMLRenderer{IncludeAnnotations: true}
}

// Document builds the interchange structure. Render does not go through
// it: this is the read side's view of a machine, and marshalled by
// xml.MarshalIndent (two-space indent, under xml.Header, newline-ended)
// it is the oracle the tests hold Render's bytes to.
func (r *XMLRenderer) Document(m *core.StateMachine) *XMLDiagram {
	doc := &XMLDiagram{
		Model:     m.ModelName,
		Parameter: m.Parameter,
		Messages:  append([]string(nil), m.Messages...),
	}
	t, _ := m.Table()
	ids := make([]string, len(m.States))
	for i, s := range m.States {
		ids[i] = fmt.Sprintf("s%d", i)
		st := XMLState{
			ID:    ids[i],
			Name:  s.Name,
			Start: s == m.Start,
			Final: s.Final,
		}
		if r.IncludeAnnotations {
			st.Annotations = append([]string(nil), s.Annotations...)
		}
		doc.States = append(doc.States, st)
	}
	for i := range m.States {
		for _, e := range t.Out(i) {
			to := "" // a target that is not one of the machine's states has no id
			if e.To >= 0 {
				to = ids[e.To]
			}
			doc.Edges = append(doc.Edges, XMLTransition{
				From:    ids[i],
				To:      to,
				Message: m.Messages[e.Msg],
				Phase:   e.IsPhase(),
				Actions: append([]string(nil), e.Actions...),
			})
		}
	}
	return doc
}

// Name implements Renderer.
func (r *XMLRenderer) Name() string { return "xml" }

// xmlWriter writes a document tag by tag, laid out as encoding/xml indents
// one: every start tag on a line of its own, an end tag on its own line
// unless it closes an element without child elements.
type xmlWriter struct {
	*Buffer
	children bool   // the open element has a child element
	scratch  []byte // text on its way through xml.EscapeText
}

// open starts an element and writes the attributes given as name, value
// pairs; the caller adds any others and the closing ">".
func (x *xmlWriter) open(name string, attrs ...string) {
	if !x.atLineStart {
		x.BlankLn()
	}
	x.Add("<", name)
	for i := 0; i < len(attrs); i += 2 {
		x.Add(" ", attrs[i], `="`)
		x.text(attrs[i+1])
		x.Add(`"`)
	}
	x.IncreaseIndent()
	x.children = false
}

func (x *xmlWriter) close(name string) {
	x.DecreaseIndent()
	if x.children {
		x.BlankLn()
	}
	x.Add("</", name, ">")
	x.children = true // of the parent, from here on
}

// leaves writes one child element per text. With omitEmpty an empty text
// has none, which is what omitempty on a []string field comes to.
func (x *xmlWriter) leaves(name string, texts []string, omitEmpty bool) {
	for _, t := range texts {
		if t != "" || !omitEmpty {
			x.open(name)
			x.Add(">")
			x.text(t)
			x.close(name)
		}
	}
}

// Write lets xml.EscapeText append to the buffer.
func (x *xmlWriter) Write(p []byte) (int, error) {
	x.buf = append(x.buf, p...)
	return len(p), nil
}

// xmlPlain marks the bytes xml.EscapeText writes as they are and that
// need no look at their neighbours: printable ASCII outside the five
// markup characters.
var xmlPlain = func() (plain [256]bool) {
	for c := ' '; c < 0x7f; c++ {
		plain[c] = !strings.ContainsRune(`"'&<>`, c)
	}
	return plain
}()

// text appends s escaped as encoding/xml escapes attribute values and
// character data alike. A text of plain bytes is appended as it is;
// anything else is left to xml.EscapeText.
func (x *xmlWriter) text(s string) {
	for i := 0; i < len(s); i++ {
		if !xmlPlain[s[i]] {
			x.scratch = append(x.scratch[:0], s...)
			xml.EscapeText(x, x.scratch) // appending to the buffer cannot fail
			return
		}
	}
	x.buf = append(x.buf, s...)
}

// Render writes the machine's diagram document.
func (r *XMLRenderer) Render(m *core.StateMachine) (Artifact, error) {
	t, err := table(r.Name(), m)
	if err != nil {
		return Artifact{}, err
	}
	z := t.Sizes
	x := &xmlWriter{Buffer: newBuffer(512 + 44*z.States + z.StateNames + 32*z.Annotations + z.AnnotationLen +
		66*z.Edges + z.EdgeMessages + 48*z.Actions + z.ActionLen)}
	x.IndentWith = "  "
	ids := make([]string, len(m.States))
	var id [24]byte
	for i := range ids {
		ids[i] = string(strconv.AppendInt(append(id[:0], 's'), int64(i), 10))
	}
	x.buf = append(x.buf, xml.Header...)
	x.open("stateMachineDiagram", "model", m.ModelName, "parameter", strconv.Itoa(m.Parameter))
	x.Add(">")
	x.open("messages")
	x.Add(">")
	x.leaves("message", m.Messages, false)
	x.close("messages")
	x.open("states")
	x.Add(">")
	for i, s := range m.States {
		x.open("state", "id", ids[i], "name", s.Name)
		if s == m.Start {
			x.Add(` start="true"`)
		}
		if s.Final {
			x.Add(` final="true"`)
		}
		x.Add(">")
		if r.IncludeAnnotations {
			x.leaves("annotation", s.Annotations, true)
		}
		x.close("state")
	}
	x.close("states")
	x.open("transitions")
	x.Add(">")
	for i := range m.States {
		for _, e := range t.Out(i) {
			x.open("transition", "from", ids[i], "to", ids[e.To], "message", m.Messages[e.Msg])
			if e.IsPhase() {
				x.Add(` phase="true"`)
			}
			x.Add(">")
			x.leaves("action", e.Actions, true)
			x.close("transition")
		}
	}
	x.close("transitions")
	x.close("stateMachineDiagram")
	x.BlankLn()
	return x.artifact(r.Name(), "application/xml; charset=utf-8", ".xml"), nil
}

// ParseXML decodes a diagram document produced by Render, for round-trip
// tooling.
func ParseXML(data []byte) (*XMLDiagram, error) {
	var doc XMLDiagram
	if err := xml.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("render: parse diagram: %w", err)
	}
	return &doc, nil
}
