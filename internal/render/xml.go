package render

import (
	"encoding/xml"
	"strings"
	"unicode/utf8"

	"asagen/internal/core"
)

// The XML format is a diagram-interchange document equivalent to the one
// the paper imported into its diagramming tool (Fig. 15): states with
// stable identifiers and annotated edges, consumable by external tooling.
// It is written as encoding/xml's MarshalIndent lays a document out, which
// is the oracle the tests hold it to.

// xmlWriter escapes text as encoding/xml does; the text that needs more
// than copying goes through xml.EscapeText, from a scratch copy straight
// into the buffer being written. The scratch starts in the writer itself,
// so that short texts cost no allocation of their own.
type xmlWriter struct {
	scratch, out []byte
	short        [256]byte
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
			if x.scratch == nil {
				x.scratch = x.short[:0]
			}
			x.scratch = append(x.scratch[:0], s...)
			x.out = buf
			xml.EscapeText(x, x.scratch) // appending to a slice cannot fail
			buf, x.out = x.out, nil
			return buf
		}
	}
	return append(buf, s...)
}

// xmlExtra returns how many bytes text adds to s in escaping it. Escaping
// writes a quote, an apostrophe, an ampersand or a control character as
// five bytes, an angle bracket as four, and a byte of invalid UTF-8 as
// U+FFFD, three. The count is exact for valid UTF-8 outside the control
// characters.
func xmlExtra(s string) (extra int) {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if xmlPlain[c] {
			continue
		}
		switch {
		case c == '<' || c == '>':
			extra += 3
		case c < utf8.RuneSelf:
			extra += 4
		default:
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 {
				extra += 2
			}
			i += size - 1
		}
	}
	return extra
}

// elements writes one element per non-empty text, escaped: open is the
// line break, indentation and start tag before it, close its end tag. It
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

// renderXML writes the machine's diagram document.
func renderXML(m *core.StateMachine) ([]byte, error) {
	t, err := table("xml", m)
	if err != nil {
		return nil, err
	}
	x := &xmlWriter{}
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
	// Each distinct annotation line is escaped and framed as an element
	// once; an empty one is no element.
	z := t.Sizes
	notes := lineFrags(t, 32*z.Lines+z.LineLen, func(buf []byte, line string) []byte {
		if line == "" {
			return buf
		}
		buf = append(buf, "\n      <annotation>"...)
		buf = x.text(buf, line)
		return append(buf, "</annotation>"...)
	})
	// The buffer's size is the bytes written below: the document's frame,
	// then per message, state, annotation, edge and action its fixed text
	// and slots, with what escaping adds and the ids' digits.
	size := 215 + len(m.ModelName) + intLen(m.Parameter) + 12*len(m.Messages) + len(msgs.data) +
		40*z.States + z.StateNames +
		45*z.Edges + 18*z.PhaseEdges + 24*z.Actions + z.ActionLen + xmlExtra(m.ModelName)
	for i, s := range m.States {
		out := t.Out(i)
		size += intLen(i)*(1+len(out)) + xmlExtra(s.Name)
		for _, id := range t.LineIDs(i) {
			size += len(notes.at(id))
		}
		for _, e := range out {
			size += intLen(int(e.To)) + len(msgs.at(e.Msg))
			for _, a := range e.Actions {
				size += xmlExtra(a)
			}
		}
	}
	buf := make([]byte, 0, size)
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
		for _, id := range t.LineIDs(i) {
			note := notes.at(id)
			buf = append(buf, note...)
			annotated = annotated || len(note) > 0
		}
		buf = appendEnd(buf, annotated, "\n    </state>")
	}
	buf = appendEnd(buf, len(m.States) > 0, "\n  </states>")
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
	return append(buf, "\n</stateMachineDiagram>\n"...), nil
}
