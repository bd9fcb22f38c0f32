package render

import (
	"encoding/xml"
	"fmt"
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

// xmlWriter escapes text as encoding/xml does; the text that needs more
// than copying goes through xml.EscapeText, from a scratch copy into out,
// and is copied from there.
type xmlWriter struct {
	scratch, out []byte
}

// Write lets xml.EscapeText append to out.
func (x *xmlWriter) Write(p []byte) (int, error) {
	x.out = append(x.out, p...)
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

// text appends s to buf escaped as encoding/xml escapes attribute values
// and character data alike. A text of plain bytes is appended as it is;
// anything else is left to xml.EscapeText.
func (x *xmlWriter) text(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !xmlPlain[s[i]] {
			x.scratch = append(x.scratch[:0], s...)
			x.out = x.out[:0]
			xml.EscapeText(x, x.scratch) // appending to a slice cannot fail
			return append(buf, x.out...)
		}
	}
	return append(buf, s...)
}

// elements writes one element per non-empty text: open is the line
// break, indentation and start tag before it, close its end tag. It
// reports whether it wrote any, as omitempty on a []string field comes to.
func (x *xmlWriter) elements(buf []byte, texts []string, open, close string) ([]byte, bool) {
	wrote := false
	for _, t := range texts {
		if t != "" {
			buf = append(buf, open...)
			buf = x.text(buf, t)
			buf = append(buf, close...)
			wrote = true
		}
	}
	return buf, wrote
}

// appendEnd writes an end tag given with the line break and indentation it
// takes after child elements; an element with none closes on its start
// tag's line, as encoding/xml lays it out.
func appendEnd(buf []byte, children bool, end string) []byte {
	if !children {
		end = end[strings.IndexByte(end, '<'):]
	}
	return append(buf, end...)
}

// Render writes the machine's diagram document.
func (r *XMLRenderer) Render(m *core.StateMachine) (Artifact, error) {
	t, err := table(r.Name(), m)
	if err != nil {
		return Artifact{}, err
	}
	z := t.Sizes
	x := &xmlWriter{}
	buf := make([]byte, 0, 512+44*z.States+z.StateNames+32*z.Annotations+z.AnnotationLen+
		66*z.Edges+z.EdgeMessages+48*z.Actions+z.ActionLen)
	buf = append(buf, xml.Header+`<stateMachineDiagram model="`...)
	buf = x.text(buf, m.ModelName)
	buf = append(buf, `" parameter="`...)
	buf = appendInt(buf, m.Parameter)
	buf = append(buf, `">`+"\n  <messages>"...)
	for _, msg := range m.Messages {
		buf = append(buf, "\n    <message>"...)
		buf = x.text(buf, msg)
		buf = append(buf, "</message>"...)
	}
	buf = appendEnd(buf, len(m.Messages) > 0, "\n  </messages>")
	buf = append(buf, "\n  <states>"...)
	for i, s := range m.States {
		buf = append(buf, "\n    <state id=\"s"...)
		buf = appendInt(buf, i)
		buf = append(buf, `" name="`...)
		buf = x.text(buf, s.Name)
		buf = append(buf, '"')
		if s == m.Start {
			buf = append(buf, ` start="true"`...)
		}
		if s.Final {
			buf = append(buf, ` final="true"`...)
		}
		buf = append(buf, '>')
		annotated := false
		if r.IncludeAnnotations {
			buf, annotated = x.elements(buf, s.Annotations, "\n      <annotation>", "</annotation>")
		}
		buf = appendEnd(buf, annotated, "\n    </state>")
	}
	buf = appendEnd(buf, len(m.States) > 0, "\n  </states>")
	// Each message's attribute, with the quote that closes the one before
	// it, is escaped once.
	var data [512]byte
	var end [17]int
	msgs := frags{data[:0], append(end[:0], 0)}
	for _, msg := range m.Messages {
		msgs.data = append(msgs.data, `" message="`...)
		msgs.data = x.text(msgs.data, msg)
		msgs.data = append(msgs.data, '"')
		msgs.end = append(msgs.end, len(msgs.data))
	}
	buf = append(buf, "\n  <transitions>"...)
	for i := range m.States {
		for _, e := range t.Out(i) {
			buf = append(buf, "\n    <transition from=\"s"...)
			buf = appendInt(buf, i)
			buf = append(buf, `" to="s`...)
			buf = appendInt(buf, int(e.To))
			buf = append(buf, msgs.at(e.Msg)...)
			if e.IsPhase() {
				buf = append(buf, ` phase="true">`...)
			} else {
				buf = append(buf, '>')
			}
			var acted bool
			buf, acted = x.elements(buf, e.Actions, "\n      <action>", "</action>")
			buf = appendEnd(buf, acted, "\n    </transition>")
		}
	}
	buf = appendEnd(buf, z.Edges > 0, "\n  </transitions>")
	buf = append(buf, "\n</stateMachineDiagram>\n"...)
	return Artifact{Format: r.Name(), MediaType: "application/xml; charset=utf-8", Ext: ".xml", Data: buf}, nil
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
