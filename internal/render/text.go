package render

import "asagen/internal/core"

// renderText writes the machine as the simple textual representation of
// the paper's Fig. 14: one section per state with its auto-generated
// commentary and outgoing transitions.
func renderText(m *core.StateMachine) ([]byte, error) {
	t, err := table("text", m)
	if err != nil {
		return nil, err
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
	// Each message's first line of an edge is made once.
	var data [512]byte
	var end [17]int
	heads := frags{data[:0], append(end[:0], 0)}
	for _, msg := range m.Messages {
		heads.data = append(heads.data, "\tmessage: "...)
		heads.data = append(heads.data, msg...)
		heads.data = append(heads.data, '\n')
		heads.end = append(heads.end, len(heads.data))
	}
	for i, s := range m.States {
		buf = appendUnderlined(buf, "state: ", s.Name)
		if len(s.Annotations) > 0 {
			buf = append(buf, "Description:\n\n"...)
			for _, line := range s.Annotations {
				buf = append(buf, line...)
				buf = append(buf, '\n')
			}
			buf = append(buf, '\n')
		}
		switch {
		case len(t.Out(i)) > 0:
			buf = append(buf, "Transitions:\n\n"...)
		case s.Final:
			buf = append(buf, "Transitions:\n\n\t(terminal state)\n\n"...)
			continue
		default:
			buf = append(buf, "Transitions:\n\n\t(none)\n\n"...)
			continue
		}
		for _, e := range t.Out(i) {
			buf = append(buf, heads.at(e.Msg)...)
			buf = appendEdgeTail(buf, e.Actions, e.Target.Name)
		}
	}
	return buf, nil
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

// efsmText writes an EFSM as a textual catalogue: per state, the guarded
// transitions with variable updates and actions.
func efsmText(e *core.EFSM) []byte {
	// The buffer's size is the bytes written below: the header, then per
	// state and transition its fixed text and slots.
	size := 76 + len(e.ModelName) + intLen(e.Parameter) + joinedLen(e.Variables, 2, 0) + intLen(len(e.States))
	for _, s := range e.States {
		size += 16 + 2*len(s.Name)
		if s.Final {
			size += 19
		}
		for _, tr := range s.Transitions {
			size += 30 + len(tr.Message) + len(tr.Target.Name) + joinedLen(tr.Actions, 0, 11)
			if !tr.Guard.Unconditional() {
				size += 10 + guardLen(tr.Guard)
			}
			for _, op := range tr.VarOps {
				size += 11 + opLen(op)
			}
		}
	}
	buf := append(make([]byte, 0, size), "extended state machine: "...)
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
				buf = tr.Guard.Append(buf)
			}
			for _, op := range tr.VarOps {
				buf = append(buf, "\n\t\tupdate: "...)
				buf = op.Append(buf)
			}
			buf = append(buf, '\n')
			buf = appendEdgeTail(buf, tr.Actions, tr.Target.Name)
		}
	}
	return buf
}
