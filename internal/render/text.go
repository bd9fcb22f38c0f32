package render

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

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
	b := newBuffer(256 + 45*z.States + 2*z.StateNames + z.Annotations + z.AnnotationLen +
		30*z.Edges + z.EdgeMessages + z.EdgeTargets + 11*z.Actions + z.ActionLen)
	b.AddLn("state machine: ", m.ModelName)
	b.AddLn("parameter: ", strconv.Itoa(m.Parameter))
	b.AddLn("messages: ", strings.Join(m.Messages, ", "))
	b.AddLn("states: ", strconv.Itoa(len(m.States)))
	b.BlankLn()
	for i, s := range m.States {
		r.renderState(b, m, s, t.Out(i))
	}
	return b.artifact(r.Name(), "text/plain; charset=utf-8", ".txt"), nil
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
	b := NewBuffer()
	r.renderState(b, m, s, t.Out(i))
	return b.String(), nil
}

func (r *TextRenderer) renderState(b *Buffer, m *core.StateMachine, s *core.State, out []core.Edge) {
	b.underlined("state: ", s.Name)

	if r.IncludeMergedNames && len(s.MergedNames) > 1 {
		b.AddLn("Combines: ", strings.Join(s.MergedNames, ", "))
	}

	if r.IncludeDescriptions && len(s.Annotations) > 0 {
		b.AddLn("Description:")
		b.BlankLn()
		for _, line := range s.Annotations {
			b.AddLn(line)
		}
		b.BlankLn()
	}

	b.AddLn("Transitions:")
	b.BlankLn()
	if len(s.Transitions) == 0 {
		b.IncreaseIndent()
		if s.Final {
			b.AddLn("(terminal state)")
		} else {
			b.AddLn("(none)")
		}
		b.DecreaseIndent()
		b.BlankLn()
		return
	}
	for _, e := range out {
		b.IncreaseIndent()
		b.AddLn("message: ", m.Messages[e.Msg])
		b.IncreaseIndent()
		for _, a := range e.Actions {
			b.AddLn("action: ", a)
		}
		b.AddLn("transition to: ", e.Target.Name)
		b.DecreaseIndent()
		b.DecreaseIndent()
		b.BlankLn()
	}
}

// underlined writes a heading and a rule of dashes as long under it.
func (b *Buffer) underlined(label, name string) {
	b.AddLn(label, name)
	buf := b.appendIndent(b.buf)
	for range len(label) + len(name) {
		buf = append(buf, '-')
	}
	b.buf = buf
	b.BlankLn()
}

// RenderEFSMText renders an EFSM as a textual catalogue: per state, the
// guarded transitions with variable updates and actions.
func RenderEFSMText(e *core.EFSM) string { return efsmText(e).String() }

func efsmText(e *core.EFSM) *Buffer {
	b := NewBuffer()
	b.AddLn("extended state machine: ", e.ModelName)
	b.AddLn("generalised from parameter: ", strconv.Itoa(e.Parameter))
	b.AddLn("variables: ", strings.Join(e.Variables, ", "))
	b.AddLn("states: ", strconv.Itoa(len(e.States)))
	b.BlankLn()
	for _, s := range e.States {
		b.underlined("state: ", s.Name)
		if s.Final {
			b.IncreaseIndent()
			b.AddLn("(terminal state)")
			b.DecreaseIndent()
			b.BlankLn()
			continue
		}
		for _, tr := range s.Transitions {
			b.IncreaseIndent()
			b.AddLn("message: ", tr.Message)
			b.IncreaseIndent()
			if !tr.Guard.Unconditional() {
				b.AddLn("guard: ", tr.Guard.String())
			}
			for _, op := range tr.VarOps {
				b.AddLn("update: ", op.String())
			}
			for _, a := range tr.Actions {
				b.AddLn("action: ", a)
			}
			b.AddLn("transition to: ", tr.Target.Name)
			b.DecreaseIndent()
			b.DecreaseIndent()
			b.BlankLn()
		}
	}
	return b
}
