package core

import (
	"fmt"
	"slices"
)

// Table indexes a machine's transitions by position: per state, in the
// order of StateMachine.States, its outgoing transitions in the machine's
// message order, each with its message index and its target's position.
// It is what renderers walk instead of probing State.Transitions once per
// message and looking every target up in a map of their own, and what the
// interpreter delivers through: the machine's messages by name, and a
// dense column from (state position, message index) to the edge taken.
// StateMachine computes it once, on first use (see StateMachine.Table).
// It also holds the machine's annotation lines, each distinct line once,
// and each state's as ids into them (see LineIDs).
type Table struct {
	// Start and Finish are the positions of the start and finish states;
	// -1 when the machine has none.
	Start, Finish int
	// Sizes are the sums every artefact's size is linear in.
	Sizes Sizes

	edges []Edge
	first []int32 // state i's edges are edges[first[i]:first[i+1]]
	err   error

	msgs    map[string]int32
	next    []int32 // next[s*width+m]: the edge position, -1 for none
	width   int
	execErr error // why the column cannot execute the machine; see Executable

	// lines holds each distinct annotation line once; state i's
	// annotations are lines[id] for each id in
	// lineIDs[lineFirst[i]:lineFirst[i+1]].
	lines     []string
	lineIDs   []int32
	lineFirst []int32
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
	Lines, LineLen             int // distinct annotation lines and their bytes
	Merged, MergedNames        int // states that combine others, and the names they combine
	MergedLen                  int // the bytes of those names
	Edges                      int // transitions
	EdgeSources, EdgeTargets   int // bytes of their source and target state names
	EdgeMessages               int
	PhaseEdges                 int // transitions with actions
	Actions, ActionLen         int // actions on transitions and their bytes
}

// Out returns the transitions of the state at position i, in message
// order.
func (t *Table) Out(i int) []Edge { return t.edges[t.first[i]:t.first[i+1]] }

// Lines returns the machine's distinct annotation lines, each once.
func (t *Table) Lines() []string { return t.lines }

// LineIDs returns the annotations of the state at position i as indexes
// into Lines, in order: a writer frames each distinct line once and copies
// the frame into every state that carries it.
func (t *Table) LineIDs(i int) []int32 { return t.lineIDs[t.lineFirst[i]:t.lineFirst[i+1]] }

// Edge returns the transition at position e of the table, counting every
// state's edges in state order: the position Next returns.
func (t *Table) Edge(e int) *Edge { return &t.edges[e] }

// Message returns the index of msg in the machine's Messages; -1 when it
// is not one of them.
func (t *Table) Message(msg string) int {
	if i, ok := t.msgs[msg]; ok {
		return int(i)
	}
	return -1
}

// Next returns the position (see Edge) of the transition the state at
// position s takes on the message at index m, or -1 when it has none.
func (t *Table) Next(s, m int) int { return int(t.next[s*t.width+m]) }

// Executable reports whether Message and Next reach every transition of
// the machine. The error is the table's own, or names a message the
// machine declares twice, or a transition on a message it does not
// declare: the column would miss that transition, so such a machine
// cannot be executed through it.
func (t *Table) Executable() error {
	if t.err != nil {
		return t.err
	}
	return t.execErr
}

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
	// first, lineFirst and the delivery column share one allocation.
	ns, w := len(m.States), len(m.Messages)
	cells := make([]int32, 2*(ns+1)+ns*w)
	t := &Table{first: cells[:ns+1], lineFirst: cells[ns+1 : 2*(ns+1)], next: cells[2*(ns+1):], width: w}
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
	t.msgs = make(map[string]int32, w)
	for j, msg := range m.Messages {
		if _, dup := t.msgs[msg]; dup && t.execErr == nil {
			t.execErr = fmt.Errorf("message %q is declared twice", msg)
		}
		t.msgs[msg] = int32(j)
	}
	z := &t.Sizes
	z.States = len(m.States)
	for i, s := range m.States {
		z.StateNames += len(s.Name)
		z.Annotations += len(s.Annotations)
		for _, a := range s.Annotations {
			z.AnnotationLen += len(a)
		}
		t.lineFirst[i+1] = int32(z.Annotations)
		if len(s.MergedNames) > 1 {
			z.Merged++
			z.MergedNames += len(s.MergedNames)
			for _, name := range s.MergedNames {
				z.MergedLen += len(name)
			}
		}
		row := t.next[i*w : (i+1)*w]
		for j, msg := range m.Messages {
			tr := s.Transitions[msg]
			if tr == nil {
				row[j] = -1
				continue
			}
			row[j] = int32(len(t.edges))
			e := Edge{Msg: int32(j), To: at(tr.Target), Transition: tr}
			t.edges = append(t.edges, e)
			z.EdgeSources += len(s.Name)
			z.EdgeMessages += len(msg)
			if e.To >= 0 {
				z.EdgeTargets += len(tr.Target.Name)
			}
			if len(tr.Actions) > 0 {
				z.PhaseEdges++
			}
			z.Actions += len(tr.Actions)
			for _, a := range tr.Actions {
				z.ActionLen += len(a)
			}
		}
		t.first[i+1] = int32(len(t.edges))
		if t.execErr == nil && len(s.Transitions) != int(t.first[i+1]-t.first[i]) {
			undeclared := ""
			for msg := range s.Transitions {
				if _, ok := t.msgs[msg]; !ok && (undeclared == "" || msg < undeclared) {
					undeclared = msg
				}
			}
			t.execErr = fmt.Errorf("state %q has a transition on %q, which is not one of the machine's messages", s.Name, undeclared)
		}
	}
	z.Edges = len(t.edges)
	t.lines, t.lineIDs = internLines(m.States, z.Annotations)
	z.Lines = len(t.lines)
	for _, line := range t.lines {
		z.LineLen += len(line)
	}
	return t
}

// internLines numbers the distinct annotation lines of states, which
// carry n in all, and returns them with each state's lines as ids, in
// state order.
func internLines(states []*State, n int) (lines []string, ids []int32) {
	ids = make([]int32, 0, n)
	index := make(map[string]int32)
	var above []int32 // the previous state's ids
	for _, s := range states {
		from := len(ids)
		for j, a := range s.Annotations {
			// Neighbouring states mostly carry the same line at the same
			// place, and a generated machine's equal lines share their
			// bytes, so that comparison is cheaper than a lookup.
			if j < len(above) && lines[above[j]] == a {
				ids = append(ids, above[j])
				continue
			}
			id, seen := index[a]
			if !seen {
				id = int32(len(lines))
				index[a] = id
				lines = append(lines, a)
			}
			ids = append(ids, id)
		}
		above = ids[from:]
	}
	return slices.Clip(lines), ids
}
