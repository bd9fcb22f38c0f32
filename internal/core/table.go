package core

import "fmt"

// Table indexes a machine's transitions by position: per state, in the
// order of StateMachine.States, its outgoing transitions in the machine's
// message order, each with its message index and its target's position.
// It is what renderers walk instead of probing State.Transitions once per
// message and looking every target up in a map of their own; StateMachine
// computes it once, on first use (see StateMachine.Table).
type Table struct {
	// Start and Finish are the positions of the start and finish states;
	// -1 when the machine has none.
	Start, Finish int
	// Sizes are the sums every artefact's size is linear in.
	Sizes Sizes

	edges []Edge
	first []int32 // state i's edges are edges[first[i]:first[i+1]]
	err   error
}

// Edge is one transition in a Table.
type Edge struct {
	// Msg is the index of the transition's message in the machine's
	// Messages.
	Msg int32
	// To is the position of the target state in the machine's States; -1
	// for a target that is nil or not one of them.
	To int32
	*Transition
}

// Sizes are the sums an artefact's size is linear in; each renderer states
// its own bytes per item where it sizes its buffer.
type Sizes struct {
	States, StateNames         int // states and the bytes of their names
	Annotations, AnnotationLen int // state annotations and their bytes
	Edges                      int // transitions
	EdgeSources, EdgeTargets   int // bytes of their source and target state names
	EdgeMessages               int
	Actions, ActionLen         int // actions on transitions and their bytes
}

// Out returns the transitions of the state at position i, in message
// order.
func (t *Table) Out(i int) []Edge { return t.edges[t.first[i]:t.first[i+1]] }

// Table returns the machine's transition table, computing it on first use;
// first uses that race may each compute it. A machine is not changed once
// it is in use, so the table stays true to it.
//
// The error names a state the machine refers to — its start, its finish,
// the target of an edge — that is nil or not one of its States. The table
// is returned with it, such a reference at position -1, for a renderer
// that writes the whole artefact before it refuses it.
func (m *StateMachine) Table() (*Table, error) {
	t := m.table.Load()
	if t == nil {
		t = m.index()
		m.table.Store(t)
	}
	return t, t.err
}

func (m *StateMachine) index() *Table {
	pos := make(map[*State]int32, len(m.States))
	for i, s := range m.States {
		pos[s] = int32(i)
	}
	t := &Table{first: make([]int32, len(m.States)+1)}
	at := func(s *State) int32 {
		p, ok := pos[s]
		if !ok {
			name := "<nil>"
			if s != nil {
				name = s.Name
			}
			if t.err == nil {
				t.err = fmt.Errorf("state %q is referred to but is not one of the machine's states", name)
			}
			return -1
		}
		return p
	}
	t.Start, t.Finish = -1, -1
	if m.Start != nil {
		t.Start = int(at(m.Start))
	}
	if m.Finish != nil {
		t.Finish = int(at(m.Finish))
	}
	n := 0
	for _, s := range m.States {
		n += len(s.Transitions)
	}
	t.edges = make([]Edge, 0, n)
	z := &t.Sizes
	z.States = len(m.States)
	for i, s := range m.States {
		z.StateNames += len(s.Name)
		z.Annotations += len(s.Annotations)
		for _, a := range s.Annotations {
			z.AnnotationLen += len(a)
		}
		for j, msg := range m.Messages {
			tr := s.Transitions[msg]
			if tr == nil {
				continue
			}
			e := Edge{Msg: int32(j), To: at(tr.Target), Transition: tr}
			t.edges = append(t.edges, e)
			z.EdgeSources += len(s.Name)
			z.EdgeMessages += len(msg)
			if e.To >= 0 {
				z.EdgeTargets += len(tr.Target.Name)
			}
			z.Actions += len(tr.Actions)
			for _, a := range tr.Actions {
				z.ActionLen += len(a)
			}
		}
		t.first[i+1] = int32(len(t.edges))
	}
	z.Edges = len(t.edges)
	return t
}
