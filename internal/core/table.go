package core

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// Table indexes a machine's transitions by position: per state, in the
// order of StateMachine.States, its outgoing transitions in the machine's
// message order, each with its message index and its target's position.
// It is what renderers walk instead of probing State.Transitions once per
// message and looking every target up in a map of their own; StateMachine
// computes it once, on first use (see StateMachine.Table). It also holds
// the machine's annotation lines, each distinct line once, and each
// state's as ids into them (see LineIDs).
type Table struct {
	// Start and Finish are the positions of the start and finish states;
	// -1 when the machine has none.
	Start, Finish int
	// Sizes are the sums every artefact's size is linear in.
	Sizes Sizes

	edges []Edge
	first []int32 // state i's edges are edges[first[i]:first[i+1]]
	err   error

	// lines holds each distinct annotation line once; state i's
	// annotations are lines[id] for each id in
	// lineIDs[lineFirst[i]:lineFirst[i+1]].
	lines     []string
	lineIDs   []int32
	lineFirst []int32

	states   []*State
	messages []string
	delivery atomic.Pointer[Delivery]
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
// state's edges in state order: the position Delivery.Next returns.
func (t *Table) Edge(e int) *Edge { return &t.edges[e] }

// Delivery is a Table's index for the interpreter: the machine's messages
// by name, and a dense column from (state position, message index) to the
// edge that state takes on that message. Table.Delivery builds it on first
// use, so a machine that is only rendered never pays for it.
type Delivery struct {
	msgs  map[string]int32
	next  []int32 // next[s*width+m]: the edge position, -1 for none
	width int
	err   error
}

// Message returns the index of msg in the machine's Messages; -1 when it
// is not one of them.
func (d *Delivery) Message(msg string) int {
	if i, ok := d.msgs[msg]; ok {
		return int(i)
	}
	return -1
}

// Next returns the position (see Table.Edge) of the transition the state
// at position s takes on the message at index m, or -1 when it has none.
func (d *Delivery) Next(s, m int) int { return int(d.next[s*d.width+m]) }

// Delivery returns the table's delivery index, building it on first use;
// first uses that race may each build it.
//
// The error is the table's own, or names a message the machine declares
// twice, or a transition on a message it does not declare: the column
// would miss that transition, so such a machine cannot be executed
// through it.
func (t *Table) Delivery() (*Delivery, error) {
	d := t.delivery.Load()
	if d == nil {
		d = t.indexDelivery()
		t.delivery.Store(d)
	}
	return d, d.err
}

func (t *Table) indexDelivery() *Delivery {
	d := &Delivery{msgs: make(map[string]int32, len(t.messages)), width: len(t.messages), err: t.err}
	for i, msg := range t.messages {
		if _, dup := d.msgs[msg]; dup && d.err == nil {
			d.err = fmt.Errorf("message %q is declared twice", msg)
		}
		d.msgs[msg] = int32(i)
	}
	d.next = make([]int32, len(t.states)*d.width)
	for i := range d.next {
		d.next[i] = -1
	}
	for i, s := range t.states {
		row := d.next[i*d.width : (i+1)*d.width]
		for e := t.first[i]; e < t.first[i+1]; e++ {
			row[t.edges[e].Msg] = e
		}
		if d.err == nil && len(s.Transitions) != int(t.first[i+1]-t.first[i]) {
			undeclared := ""
			for msg := range s.Transitions {
				if _, ok := d.msgs[msg]; !ok && (undeclared == "" || msg < undeclared) {
					undeclared = msg
				}
			}
			d.err = fmt.Errorf("state %q has a transition on %q, which is not one of the machine's messages", s.Name, undeclared)
		}
	}
	return d
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
	t := &Table{first: make([]int32, len(m.States)+1), states: m.States, messages: m.Messages}
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
	t.lineFirst = make([]int32, len(m.States)+1)
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
			if len(tr.Actions) > 0 {
				z.PhaseEdges++
			}
			z.Actions += len(tr.Actions)
			for _, a := range tr.Actions {
				z.ActionLen += len(a)
			}
		}
		t.first[i+1] = int32(len(t.edges))
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
