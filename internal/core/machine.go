package core

import "sync/atomic"

// FinishStateName is the name given to the synthetic terminal state that a
// model's finishing transitions target. The commit protocol, for example,
// finishes once f+1 commit messages have been received; the receiving
// transition leaves the encoded state space and enters this state.
const FinishStateName = "FINISHED"

// StateMachine is the abstract representation of one generated member of a
// machine family (the paper's class StateMachine, Fig. 5). It contains a
// collection of states linked by transitions; states and transitions carry
// annotations used by the documentation renderers.
type StateMachine struct {
	// ModelName identifies the abstract model that generated the machine.
	ModelName string
	// Parameter records the parameter value the model was executed with
	// (the replication factor for the commit protocol).
	Parameter int
	// Components are the state components the state names encode.
	Components []StateComponent
	// Messages lists the message types the machine reacts to.
	Messages []string
	// States holds every state, with the start state first. The finish
	// state, when present, is last.
	States []*State
	// Start is the machine's initial state.
	Start *State
	// Finish is the synthetic terminal state, or nil if the model never
	// finishes.
	Finish *State
	// Stats records the sizes of the intermediate generation stages.
	Stats Stats

	// explored retains the raw exploration (interned vectors plus
	// per-message effect columns) on machines Generate produced, so
	// Regenerate can patch it under a ModelDelta instead of re-exploring
	// from scratch. Nil on GenerateEnumerated machines.
	explored *exploration
	// table is the transition table, once Table has computed it.
	table atomic.Pointer[Table]
}

// Stats records the size of the state space at each stage of the generation
// pipeline, matching the columns of the paper's Table 1.
type Stats struct {
	// InitialStates is the raw cross-product size (32·r² for the commit
	// protocol). It is computed arithmetically, never by materialising the
	// cross product; when the product exceeds math.MaxInt the field
	// saturates at math.MaxInt and InitialOverflow is set.
	InitialStates int
	// InitialOverflow reports that the cross product exceeds math.MaxInt,
	// so InitialStates is a saturated lower bound rather than an exact
	// count. Only Generate can produce this; GenerateEnumerated fails with
	// ErrStateSpaceOverflow instead.
	InitialOverflow bool
	// ReachableStates is the count after pruning unreachable states,
	// including the finish state when one is reachable.
	ReachableStates int
	// FinalStates is the count after merging equivalent states.
	FinalStates int
}

// State is a single machine state (the paper's class State). Outgoing
// transitions are keyed by message type; messages that are not applicable in
// the state have no entry.
type State struct {
	// Name encodes the component values, e.g. "T/2/F/0/F/F/F", or
	// FinishStateName for the terminal state.
	Name string
	// Vector is the component assignment this state encodes; nil for the
	// synthetic finish state. After merging, the vector of the class
	// representative.
	Vector Vector
	// Transitions maps message type to the outgoing transition taken when
	// that message is received.
	Transitions map[string]*Transition
	// Annotations document the state in terms of the generic algorithm.
	Annotations []string
	// Final reports whether this is the synthetic finish state.
	Final bool
	// MergedNames lists the names of all original states combined into
	// this one (including its own); len > 1 only after merging.
	MergedNames []string
}

// Transition records the effect of one message in one state (the paper's
// class Transition).
type Transition struct {
	// Message is the received message type that triggers the transition.
	Message string
	// Target is the resulting state.
	Target *State
	// Actions lists outgoing messages and other effects performed during
	// the transition, e.g. "->vote". A non-empty list marks a phase
	// transition; an empty list is a simple transition.
	Actions []string
	// Annotations document why the transition behaves as it does.
	Annotations []string
}

// IsPhase reports whether the transition is a phase transition, i.e. one
// that performs actions (such as sending messages) rather than merely
// recording a received-message count.
func (t *Transition) IsPhase() bool { return len(t.Actions) > 0 }

// Transition returns the outgoing transition for the given message, or nil
// if the message is not applicable in this state.
func (s *State) Transition(msg string) *Transition {
	return s.Transitions[msg]
}

// SortedMessages returns the messages applicable in this state in the
// machine's canonical message order.
func (s *State) SortedMessages(order []string) []string {
	out := make([]string, 0, len(s.Transitions))
	for _, m := range order {
		if _, ok := s.Transitions[m]; ok {
			out = append(out, m)
		}
	}
	return out
}

// TransitionCount returns the total number of transitions in the machine.
func (m *StateMachine) TransitionCount() int {
	n := 0
	for _, s := range m.States {
		n += len(s.Transitions)
	}
	return n
}

// StateNames returns the names of all states in machine order.
func (m *StateMachine) StateNames() []string {
	names := make([]string, len(m.States))
	for i, s := range m.States {
		names[i] = s.Name
	}
	return names
}
