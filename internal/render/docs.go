package render

import (
	"strings"

	"asagen/internal/core"
)

// renderDoc writes the machine as a markdown document: an overview table
// followed by a catalogue of states with their generated commentary and
// transitions. This is the paper's "documentation" artefact class (§1:
// "various artefacts are generated ... including diagrams, source-level
// protocol implementations and documentation").
func renderDoc(m *core.StateMachine) ([]byte, error) {
	t, err := table("doc", m)
	if err != nil {
		return nil, err
	}
	// The buffer's size is the bytes written below when no code span needs
	// a longer fence or an escape: the header's text and slots, then per
	// state, merged state, annotation and edge its fixed text and slots.
	z := t.Sizes
	components := componentList(m)
	size := 346 + 2*len(m.ModelName) + 2*intLen(m.Parameter) + joinedLen(m.Messages, 2, 2) +
		intLen(m.Stats.InitialStates) + intLen(m.Stats.ReachableStates) + intLen(m.Stats.FinalStates) +
		intLen(z.Edges) + len(m.Start.Name) + len(components) +
		59*z.States + z.StateNames + 29*z.Merged + 4*z.MergedNames + z.MergedLen +
		3*z.Annotations + z.AnnotationLen +
		18*z.Edges + z.EdgeMessages + z.EdgeTargets - 5*z.PhaseEdges + 4*z.Actions + z.ActionLen
	if m.Finish != nil {
		size += len(m.Finish.Name)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, "# State machine "...)
	buf = appendCode(buf, m.ModelName, false)
	buf = append(buf, " (parameter "...)
	buf = appendInt(buf, m.Parameter)
	buf = append(buf, ")\n\nGenerated from the abstract model; do not edit.\n\n"+
		"| Property | Value |\n|---|---|\n| Model | "...)
	buf = appendCode(buf, m.ModelName, true)
	buf = append(buf, " |\n| Parameter | "...)
	buf = appendInt(buf, m.Parameter)
	buf = append(buf, " |\n| Messages | "...)
	buf = appendCodeList(buf, m.Messages, true)
	buf = append(buf, " |\n| States (raw) | "...)
	buf = appendInt(buf, m.Stats.InitialStates)
	buf = append(buf, " |\n| States (reachable) | "...)
	buf = appendInt(buf, m.Stats.ReachableStates)
	buf = append(buf, " |\n| States (merged) | "...)
	buf = appendInt(buf, m.Stats.FinalStates)
	buf = append(buf, " |\n| Transitions | "...)
	buf = appendInt(buf, m.TransitionCount())
	buf = append(buf, " |\n| Start state | "...)
	buf = appendCode(buf, m.Start.Name, true)
	if m.Finish != nil {
		buf = append(buf, " |\n| Finish state | "...)
		buf = appendCode(buf, m.Finish.Name, true)
	}
	buf = append(buf, " |\n\nComponent encoding of state names: "...)
	buf = appendCode(buf, components, false)
	buf = append(buf, ".\n\n## States\n\n"...)

	// Each message's first cell is written once.
	var data [512]byte
	var end [17]int
	cells := frags{data[:0], append(end[:0], 0)}
	for _, msg := range m.Messages {
		cells.data = append(cells.data, "| "...)
		cells.data = appendCode(cells.data, msg, true)
		cells.data = append(cells.data, " | "...)
		cells.end = append(cells.end, len(cells.data))
	}
	for i, s := range m.States {
		buf = append(buf, "### "...)
		buf = appendCode(buf, s.Name, false)
		buf = append(buf, "\n\n"...)
		if len(s.MergedNames) > 1 {
			buf = append(buf, "Combines equivalent states: "...)
			buf = appendCodeList(buf, s.MergedNames, false)
			buf = append(buf, ".\n\n"...)
		}
		for _, line := range s.Annotations {
			buf = append(buf, line...)
			buf = append(buf, "  \n"...) // two-space markdown line break
		}
		if len(s.Annotations) > 0 {
			buf = append(buf, '\n')
		}
		switch {
		case len(t.Out(i)) > 0:
			buf = append(buf, "| Message | Actions | Next state |\n|---|---|---|\n"...)
		case s.Final:
			buf = append(buf, "_Terminal state._\n\n"...)
			continue
		default:
			buf = append(buf, "_No outgoing transitions._\n\n"...)
			continue
		}
		for _, e := range t.Out(i) {
			buf = append(buf, cells.at(e.Msg)...)
			if len(e.Actions) == 0 {
				buf = append(buf, "—"...)
			}
			buf = appendCodeList(buf, e.Actions, true)
			buf = append(buf, " | "...)
			buf = appendCode(buf, e.Target.Name, true)
			buf = append(buf, " |\n"...)
		}
		buf = append(buf, '\n')
	}
	return buf, nil
}

// appendCodeList writes the items as code spans separated by commas.
func appendCodeList(buf []byte, items []string, cell bool) []byte {
	for i, it := range items {
		if i > 0 {
			buf = append(buf, ", "...)
		}
		buf = appendCode(buf, it, cell)
	}
	return buf
}

// appendCode writes text as a markdown code span (CommonMark §6.1), fenced
// by one backtick more than the longest run of backticks in it. A blank
// goes inside each fence where the text starts or ends with a backtick, or
// starts and ends with a blank: a reader strips one blank from each end.
// In a table cell (cell) every '|' is escaped, which GFM reads back as a
// '|' of the code span.
func appendCode(buf []byte, text string, cell bool) []byte {
	fence, run, pipes := 1, 0, false
	for i := 0; i < len(text); i++ {
		switch text[i] {
		case '`':
			run++
			fence = max(fence, run+1)
			continue
		case '|':
			pipes = pipes || cell
		}
		run = 0
	}
	n := len(text)
	pad := n > 0 && (text[0] == '`' || text[n-1] == '`') ||
		n > 1 && text[0] == ' ' && text[n-1] == ' ' && strings.Trim(text, " ") != ""
	if fence == 1 && !pad && !pipes {
		buf = append(buf, '`')
		buf = append(buf, text...)
		return append(buf, '`')
	}
	buf = appendRepeat(buf, backticks, fence)
	if pad {
		buf = append(buf, ' ')
	}
	for i := 0; i < len(text); i++ {
		if text[i] == '|' && cell {
			buf = append(buf, '\\')
		}
		buf = append(buf, text[i])
	}
	if pad {
		buf = append(buf, ' ')
	}
	return appendRepeat(buf, backticks, fence)
}
