package render

import (
	"fmt"
	"slices"

	"asagen/internal/core"
)

// TextRenderer renders a generated machine as the simple textual
// representation of the paper's Fig. 14: one section per state with its
// auto-generated commentary and outgoing transitions.
type TextRenderer struct {
	// IncludeDescriptions controls whether state annotations are emitted.
	IncludeDescriptions bool
	// IncludeMergedNames lists the original state names combined into a
	// merged state.
	IncludeMergedNames bool
}

// NewTextRenderer returns a renderer with descriptions enabled.
func NewTextRenderer() *TextRenderer {
	return &TextRenderer{IncludeDescriptions: true}
}

// Name implements Renderer.
func (r *TextRenderer) Name() string { return "text" }

// Render produces the textual representation of the whole machine.
func (r *TextRenderer) Render(m *core.StateMachine) (Artifact, error) {
	t, err := table(r.Name(), m)
	if err != nil {
		return Artifact{}, err
	}
	z := t.Sizes
	buf := make([]byte, 0, 256+45*z.States+2*z.StateNames+z.Annotations+z.AnnotationLen+
		30*z.Edges+z.EdgeMessages+z.EdgeTargets+11*z.Actions+z.ActionLen)
	buf = append(buf, "state machine: "...)
	buf = append(buf, m.ModelName...)
	buf = append(buf, "\nparameter: "...)
	buf = appendInt(buf, m.Parameter)
	buf = append(buf, "\nmessages: "...)
	buf = appendJoined(buf, m.Messages, ", ")
	buf = append(buf, "\nstates: "...)
	buf = appendInt(buf, len(m.States))
	buf = append(buf, "\n\n"...)
	var data [512]byte
	var end [17]int
	heads := messageHeads(frags{data[:0], append(end[:0], 0)}, m.Messages)
	for i, s := range m.States {
		buf = r.appendState(buf, s, t.Out(i), &heads)
	}
	return Artifact{Format: r.Name(), MediaType: "text/plain; charset=utf-8", Ext: ".txt", Data: buf}, nil
}

// messageHeads makes each message's first line of an edge.
func messageHeads(f frags, messages []string) frags {
	for _, msg := range messages {
		f.data = append(f.data, "\tmessage: "...)
		f.data = append(f.data, msg...)
		f.data = append(f.data, '\n')
		f.end = append(f.end, len(f.data))
	}
	return f
}

// RenderState produces the Fig. 14 style section for one of the machine's
// states.
func (r *TextRenderer) RenderState(m *core.StateMachine, s *core.State) (string, error) {
	t, err := table(r.Name(), m)
	if err != nil {
		return "", err
	}
	i := slices.Index(m.States, s)
	if i < 0 {
		return "", fmt.Errorf("render: state %q is not one of the machine's states", s.Name)
	}
	heads := messageHeads(frags{end: []int{0}}, m.Messages)
	return string(r.appendState(nil, s, t.Out(i), &heads)), nil
}

func (r *TextRenderer) appendState(buf []byte, s *core.State, out []core.Edge, heads *frags) []byte {
	buf = appendUnderlined(buf, "state: ", s.Name)
	if r.IncludeMergedNames && len(s.MergedNames) > 1 {
		buf = append(buf, "Combines: "...)
		buf = appendJoined(buf, s.MergedNames, ", ")
		buf = append(buf, '\n')
	}
	if r.IncludeDescriptions && len(s.Annotations) > 0 {
		buf = append(buf, "Description:\n\n"...)
		for _, line := range s.Annotations {
			buf = append(buf, line...)
			buf = append(buf, '\n')
		}
		buf = append(buf, '\n')
	}
	switch {
	case len(s.Transitions) > 0:
		buf = append(buf, "Transitions:\n\n"...)
	case s.Final:
		return append(buf, "Transitions:\n\n\t(terminal state)\n\n"...)
	default:
		return append(buf, "Transitions:\n\n\t(none)\n\n"...)
	}
	for _, e := range out {
		buf = append(buf, heads.at(e.Msg)...)
		buf = appendEdgeTail(buf, e.Actions, e.Target.Name)
	}
	return buf
}

// appendEdgeTail writes an edge's lines after its message: its actions and
// its target, and the blank line after it.
func appendEdgeTail(buf []byte, actions []string, target string) []byte {
	for _, a := range actions {
		buf = append(buf, "\t\taction: "...)
		buf = append(buf, a...)
		buf = append(buf, '\n')
	}
	buf = append(buf, "\t\ttransition to: "...)
	buf = append(buf, target...)
	return append(buf, "\n\n"...)
}

// appendUnderlined writes a heading and a rule of dashes as long under it.
func appendUnderlined(buf []byte, label, name string) []byte {
	buf = append(buf, label...)
	buf = append(buf, name...)
	buf = append(buf, '\n')
	buf = appendRepeat(buf, dashes, len(label)+len(name))
	return append(buf, '\n')
}

// RenderEFSMText renders an EFSM as a textual catalogue: per state, the
// guarded transitions with variable updates and actions.
func RenderEFSMText(e *core.EFSM) string { return string(efsmText(e)) }

func efsmText(e *core.EFSM) []byte {
	buf := append([]byte(nil), "extended state machine: "...)
	buf = append(buf, e.ModelName...)
	buf = append(buf, "\ngeneralised from parameter: "...)
	buf = appendInt(buf, e.Parameter)
	buf = append(buf, "\nvariables: "...)
	buf = appendJoined(buf, e.Variables, ", ")
	buf = append(buf, "\nstates: "...)
	buf = appendInt(buf, len(e.States))
	buf = append(buf, "\n\n"...)
	for _, s := range e.States {
		buf = appendUnderlined(buf, "state: ", s.Name)
		if s.Final {
			buf = append(buf, "\t(terminal state)\n\n"...)
			continue
		}
		for _, tr := range s.Transitions {
			buf = append(buf, "\tmessage: "...)
			buf = append(buf, tr.Message...)
			if !tr.Guard.Unconditional() {
				buf = append(buf, "\n\t\tguard: "...)
				buf = append(buf, tr.Guard.String()...)
			}
			for _, op := range tr.VarOps {
				buf = append(buf, "\n\t\tupdate: "...)
				buf = append(buf, op.String()...)
			}
			buf = append(buf, '\n')
			buf = appendEdgeTail(buf, tr.Actions, tr.Target.Name)
		}
	}
	return buf
}
