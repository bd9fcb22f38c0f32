package render

import (
	"bytes"
	"slices"
	"strings"

	"asagen/internal/core"
)

// renderDot writes the machine as a Graphviz DOT state-transition diagram
// (the Fig. 15 artefact; the paper targeted a proprietary diagramming
// tool, this repository targets dot and the XML format). Simple
// transitions are drawn as thin edges; phase transitions — those
// performing actions — as bold edges, matching the Fig. 8 convention.
func renderDot(m *core.StateMachine) ([]byte, error) {
	t, err := table("dot", m)
	if err != nil {
		return nil, err
	}
	// The buffer's size is the bytes written below when no name needs an
	// escape: the graph's frame, the start and finish nodes' styles, and
	// per node and edge its fixed text and slots.
	z := t.Sizes
	buf := make([]byte, 0, 128+len(m.ModelName)+6*z.States+z.StateNames+
		25*z.Edges+14*z.PhaseEdges+z.EdgeSources+z.EdgeTargets+z.EdgeMessages+2*z.Actions+z.ActionLen)
	buf = appendDotOpen(buf, m.ModelName, "")
	// Each state name is escaped once, and one label head is made per
	// message, not one per edge.
	names := make([]string, len(m.States))
	for i, s := range m.States {
		names[i] = escapeDot(s.Name)
		buf = appendDotNode(buf, names[i], s == m.Start, s.Final)
	}
	var data [256]byte
	var end [17]int
	heads := frags{data[:0], append(end[:0], 0)}
	for _, msg := range m.Messages {
		heads.data = appendDotLabelHead(heads.data, msg)
		heads.end = append(heads.end, len(heads.data))
	}
	for i := range m.States {
		for _, e := range t.Out(i) {
			buf = appendDotEdgeHead(buf, names[i], names[e.To])
			buf = append(buf, heads.at(e.Msg)...)
			buf = appendDotLabels(buf, e.Actions)
			buf = appendDotEdgeEnd(buf, e.IsPhase())
		}
	}
	return append(buf, "}\n"...), nil
}

// efsmDot writes an EFSM as a DOT diagram with guard/update labels.
func efsmDot(e *core.EFSM) []byte {
	// The buffer's size is the bytes written below when no text needs an
	// escape: the graph's frame, then per node and edge its fixed text and
	// slots.
	size := 133 + len(e.ModelName)
	for _, s := range e.States {
		size += 6 + len(s.Name)
		for _, tr := range s.Transitions {
			size += 25 + len(s.Name) + len(tr.Target.Name) + len(tr.Message) + joinedLen(tr.Actions, 0, 2)
			if !tr.Guard.Unconditional() {
				size += 4 + guardLen(tr.Guard)
			}
			for _, op := range tr.VarOps {
				size += 2 + opLen(op)
			}
			if len(tr.Actions) > 0 {
				size += 14
			}
		}
	}
	buf := appendDotOpen(make([]byte, 0, size), e.ModelName, "-efsm")
	for _, s := range e.States {
		buf = appendDotNode(buf, escapeDot(s.Name), s == e.Start, s.Final)
	}
	// One label head is made per message, and guards and updates are
	// written into scratch to be escaped from there.
	var data [256]byte
	var end [17]int
	heads := frags{data[:0], append(end[:0], 0)}
	for _, msg := range e.Messages {
		heads.data = appendDotLabelHead(heads.data, msg)
		heads.end = append(heads.end, len(heads.data))
	}
	var text [128]byte
	scratch := text[:0]
	for _, s := range e.States {
		from := escapeDot(s.Name)
		for _, tr := range s.Transitions {
			buf = appendDotEdgeHead(buf, from, escapeDot(tr.Target.Name))
			if m := slices.Index(e.Messages, tr.Message); m >= 0 {
				buf = append(buf, heads.at(int32(m))...)
			} else {
				buf = appendDotLabelHead(buf, tr.Message)
			}
			if !tr.Guard.Unconditional() {
				scratch = append(tr.Guard.Append(append(scratch[:0], '[')), ']')
				buf = appendDotText(append(buf, `\n`...), scratch)
			}
			for _, op := range tr.VarOps {
				scratch = op.Append(scratch[:0])
				buf = appendDotText(append(buf, `\n`...), scratch)
			}
			buf = appendDotLabels(buf, tr.Actions)
			buf = appendDotEdgeEnd(buf, len(tr.Actions) > 0)
		}
	}
	return append(buf, "}\n"...)
}

// appendDotText appends text escaped as escapeDot escapes it; text with
// neither a backslash nor a quote is copied as it is.
func appendDotText(buf, text []byte) []byte {
	if bytes.IndexAny(text, `\"`) < 0 {
		return append(buf, text...)
	}
	return append(buf, escapeDot(string(text))...)
}

// appendDotLabelHead writes a label's first line, the message received. "<-"
// holds no backslash and no quote, so it is escaped apart from the message
// to the same bytes.
func appendDotLabelHead(buf []byte, msg string) []byte {
	buf = append(buf, "<-"...)
	return append(buf, escapeDot(strings.ToLower(msg))...)
}

// appendDotOpen opens the graph named name+suffix, laid out left to right.
func appendDotOpen(buf []byte, name, suffix string) []byte {
	buf = append(buf, `digraph "`...)
	buf = append(buf, escapeDot(name+suffix)...)
	return append(buf, "\" {\n  rankdir=LR;\n  node [shape=box, fontname=\"Helvetica\"];\n"...)
}

// appendDotNode writes one node; name is escaped already.
func appendDotNode(buf []byte, name string, start, final bool) []byte {
	buf = append(buf, "  \""...)
	buf = append(buf, name...)
	switch {
	case start:
		return append(buf, "\" [style=filled, fillcolor=lightblue];\n"...)
	case final:
		return append(buf, "\" [shape=doublecircle];\n"...)
	}
	return append(buf, "\";\n"...)
}

// appendDotEdgeHead opens an edge between two escaped names up to its
// label's text; the label's first line, its further lines (see
// appendDotLabels) and appendDotEdgeEnd follow.
func appendDotEdgeHead(buf []byte, from, to string) []byte {
	buf = append(buf, "  \""...)
	buf = append(buf, from...)
	buf = append(buf, "\" -> \""...)
	buf = append(buf, to...)
	return append(buf, "\" [label=\""...)
}

// appendDotLabels writes each part escaped on a label line of its own.
func appendDotLabels(buf []byte, parts []string) []byte {
	for _, part := range parts {
		buf = append(buf, `\n`...)
		buf = append(buf, escapeDot(part)...)
	}
	return buf
}

// appendDotEdgeEnd closes an edge's label and the edge; bold marks a phase
// transition with a thick arrow.
func appendDotEdgeEnd(buf []byte, bold bool) []byte {
	if bold {
		return append(buf, "\", penwidth=2.2];\n"...)
	}
	return append(buf, "\"];\n"...)
}

// escapeDot escapes a string for a double-quoted DOT identifier; a
// backslash-n in it stays the line break DOT reads it as. A string with
// neither a backslash nor a quote is returned as it is.
func escapeDot(s string) string {
	if strings.IndexAny(s, `\"`) < 0 {
		return s
	}
	s = strings.ReplaceAll(s, "\\", "\\\\")
	s = strings.ReplaceAll(s, "\\\\n", "\\n")
	return strings.ReplaceAll(s, "\"", "\\\"")
}
