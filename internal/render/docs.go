package render

import (
	"strconv"

	"asagen/internal/core"
)

// DocRenderer renders a generated machine as a markdown document: an
// overview table followed by a catalogue of states with their generated
// commentary and transitions. This is the paper's "documentation" artefact
// class (§1: "various artefacts are generated ... including diagrams,
// source-level protocol implementations and documentation").
type DocRenderer struct {
	// Title overrides the document title; derived from the model when
	// empty.
	Title string
}

// NewDocRenderer returns a DocRenderer with default settings.
func NewDocRenderer() *DocRenderer { return &DocRenderer{} }

// Name implements Renderer.
func (r *DocRenderer) Name() string { return "doc" }

// Render produces the markdown document.
func (r *DocRenderer) Render(m *core.StateMachine) (Artifact, error) {
	t, err := table(r.Name(), m)
	if err != nil {
		return Artifact{}, err
	}
	z := t.Sizes
	b := newBuffer(512 + 58*z.States + z.StateNames + 3*z.Annotations + z.AnnotationLen +
		21*z.Edges + z.EdgeMessages + z.EdgeTargets + 4*z.Actions + z.ActionLen)
	title := r.Title
	if title == "" {
		title = "State machine `" + m.ModelName + "` (parameter " + strconv.Itoa(m.Parameter) + ")"
	}
	b.AddLn("# ", title)
	b.BlankLn()
	b.AddLn("Generated from the abstract model; do not edit.")
	b.BlankLn()
	b.AddLn("| Property | Value |")
	b.AddLn("|---|---|")
	b.AddLn("| Model | `", m.ModelName, "` |")
	b.AddLn("| Parameter | ", strconv.Itoa(m.Parameter), " |")
	b.Add("| Messages | ")
	b.codeList(m.Messages)
	b.AddLn(" |")
	b.AddLn("| States (raw) | ", strconv.Itoa(m.Stats.InitialStates), " |")
	b.AddLn("| States (reachable) | ", strconv.Itoa(m.Stats.ReachableStates), " |")
	b.AddLn("| States (merged) | ", strconv.Itoa(m.Stats.FinalStates), " |")
	b.AddLn("| Transitions | ", strconv.Itoa(m.TransitionCount()), " |")
	b.AddLn("| Start state | `", m.Start.Name, "` |")
	if m.Finish != nil {
		b.AddLn("| Finish state | `", m.Finish.Name, "` |")
	}
	b.BlankLn()
	b.AddLn("Component encoding of state names: `", componentList(m), "`.")
	b.BlankLn()

	b.AddLn("## States")
	b.BlankLn()
	for i, s := range m.States {
		b.AddLn("### `", s.Name, "`")
		b.BlankLn()
		if len(s.MergedNames) > 1 {
			b.Add("Combines equivalent states: ")
			b.codeList(s.MergedNames)
			b.AddLn(".")
			b.BlankLn()
		}
		for _, line := range s.Annotations {
			b.AddLn(line, "  ") // two-space markdown line break
		}
		if len(s.Annotations) > 0 {
			b.BlankLn()
		}
		if len(s.Transitions) == 0 {
			if s.Final {
				b.AddLn("_Terminal state._")
			} else {
				b.AddLn("_No outgoing transitions._")
			}
			b.BlankLn()
			continue
		}
		b.AddLn("| Message | Actions | Next state |")
		b.AddLn("|---|---|---|")
		for _, e := range t.Out(i) {
			b.Add("| `", m.Messages[e.Msg], "` | ")
			if len(e.Actions) == 0 {
				b.Add("—")
			}
			b.codeList(e.Actions)
			b.AddLn(" | `", e.Target.Name, "` |")
		}
		b.BlankLn()
	}
	return b.artifact(r.Name(), "text/markdown; charset=utf-8", ".md"), nil
}

// codeList writes the items as code spans separated by commas.
func (b *Buffer) codeList(items []string) {
	for i, it := range items {
		if i > 0 {
			b.Add(", ")
		}
		b.Add("`", it, "`")
	}
}
