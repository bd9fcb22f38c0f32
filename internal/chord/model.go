package chord

// This file lifts the routing layer into the generative methodology: the
// ring-membership lifecycle of one overlay node is captured as an abstract
// model (core.Model) and executed to generate the node's membership state
// machine. The redundancy parameter is the successor-list length s — the
// overlay analogue of the commit protocol's replication factor: a node
// survives up to s−1 simultaneous successor failures before it must
// re-bootstrap, exactly as the seed Ring keeps routing alive while any
// successor-list entry is live.
//
// The generated machine is validated differentially: model_test.go replays
// it through the runtime interpreter against the hand-written Ring under
// randomized, simnet-scheduled churn, asserting the generated transitions
// track the live node's observed membership state event for event.

import (
	"fmt"
	"strconv"

	"asagen/internal/core"
)

// Message types received by a ring-membership machine. They are the
// node-local observations the Chord maintenance protocol reacts to.
const (
	// EvJoin bootstraps the node into the overlay.
	EvJoin = "JOIN"
	// EvStabilize reports a stabilisation round that adopted one further
	// live successor-list entry.
	EvStabilize = "STABILIZE"
	// EvNotify reports a notify exchange that established a predecessor.
	EvNotify = "NOTIFY"
	// EvSuccFail reports the loss of one live successor-list entry.
	EvSuccFail = "SUCC_FAIL"
	// EvPredFail reports the loss of the predecessor.
	EvPredFail = "PRED_FAIL"
	// EvLeave departs the overlay gracefully.
	EvLeave = "LEAVE"
)

// Actions performed on phase transitions.
const (
	// ActLookup routes a bootstrap lookup through an existing member (on
	// join, and again when the successor list is exhausted).
	ActLookup = "->lookup"
	// ActNotify notifies the adopted successor during stabilisation.
	ActNotify = "->notify"
	// ActHandoff transfers owned keys to the successor on departure.
	ActHandoff = "->transfer-keys"
)

// Component indices.
const (
	idxJoined = iota
	idxSuccessors
	idxHasPred
	numComponents
)

// Model is the ring-membership abstract model for a fixed successor-list
// length s. It implements core.Model.
type Model struct {
	s int
}

var _ core.Model = (*Model)(nil)

// NewModel returns the membership model for successor-list length s.
func NewModel(s int) (*Model, error) {
	if s < 1 {
		return nil, fmt.Errorf("chord: successor-list length %d < 1", s)
	}
	return &Model{s: s}, nil
}

// SuccessorListLen returns s.
func (m *Model) SuccessorListLen() int { return m.s }

// FaultTolerance returns s−1: the number of simultaneous successor
// failures a node absorbs from its list before connectivity is lost and a
// re-bootstrap lookup is required.
func (m *Model) FaultTolerance() int { return m.s - 1 }

// Name implements core.Model.
func (m *Model) Name() string { return "chord-membership" }

// Parameter implements core.Model.
func (m *Model) Parameter() int { return m.s }

// Components implements core.Model.
func (m *Model) Components() []core.StateComponent {
	return []core.StateComponent{
		core.NewBoolComponent("joined"),
		core.NewIntComponent("successors", m.s),
		core.NewBoolComponent("has_predecessor"),
	}
}

// Messages implements core.Model.
func (m *Model) Messages() []string {
	return []string{EvJoin, EvStabilize, EvNotify, EvSuccFail, EvPredFail, EvLeave}
}

// Start implements core.Model: outside the overlay, no routing state.
func (m *Model) Start() core.Vector { return make(core.Vector, numComponents) }

// Apply implements core.Model.
func (m *Model) Apply(v core.Vector, msg string) (core.Effect, bool) {
	s := v.Clone()
	var actions, notes []string
	finished := false

	switch msg {
	case EvJoin:
		if s[idxJoined] != 0 {
			return core.Effect{}, false // already a member
		}
		s[idxJoined] = 1
		actions = append(actions, ActLookup)
		notes = append(notes, "Bootstrap: locate the successor by routing a lookup through an existing member.")

	case EvStabilize:
		if s[idxJoined] == 0 || s[idxSuccessors] == m.s {
			return core.Effect{}, false // list already full
		}
		s[idxSuccessors]++
		actions = append(actions, ActNotify)
		notes = append(notes, fmt.Sprintf("Stabilisation adopted one further live successor (%d of %d).", s[idxSuccessors], m.s))

	case EvNotify:
		if s[idxJoined] == 0 || s[idxHasPred] != 0 {
			return core.Effect{}, false
		}
		s[idxHasPred] = 1
		notes = append(notes, "Adopted the notifying node as predecessor.")

	case EvSuccFail:
		if s[idxSuccessors] == 0 {
			return core.Effect{}, false // nothing left to lose
		}
		s[idxSuccessors]--
		notes = append(notes, "One successor-list entry failed.")
		if s[idxSuccessors] == 0 {
			actions = append(actions, ActLookup)
			notes = append(notes, fmt.Sprintf("Successor list exhausted (tolerance %d exceeded): re-bootstrap lookup.", m.s-1))
		}

	case EvPredFail:
		if s[idxHasPred] == 0 {
			return core.Effect{}, false
		}
		s[idxHasPred] = 0
		notes = append(notes, "Predecessor failure detected; await the next notify.")

	case EvLeave:
		if s[idxJoined] == 0 {
			return core.Effect{}, false
		}
		finished = true
		actions = append(actions, ActHandoff)
		notes = append(notes, "Graceful departure: link predecessor to successor and hand off owned keys.")

	default:
		return core.Effect{}, false
	}
	return core.Effect{Target: s, Actions: actions, Annotations: notes, Finished: finished}, true
}

// DescribeState implements core.Model.
func (m *Model) DescribeState(v core.Vector) []string {
	membership := "outside the overlay"
	if v[idxJoined] != 0 {
		membership = "an overlay member"
	}
	pred := "no predecessor"
	if v[idxHasPred] != 0 {
		pred = "a live predecessor"
	}
	return []string{
		"Node is " + membership + " with " + pred + ".",
		strconv.Itoa(v[idxSuccessors]) + " of " + strconv.Itoa(m.s) + " successor-list entries live.",
	}
}

// Abstraction coalesces the successor-list counter for EFSM generation:
// the abstract states track only membership and predecessor linkage, and
// the list occupancy becomes a guarded counter variable.
type Abstraction struct {
	model *Model
}

var _ core.EFSMAbstraction = (*Abstraction)(nil)

// NewAbstraction returns the EFSM abstraction for the model.
func NewAbstraction(m *Model) *Abstraction { return &Abstraction{model: m} }

// StateLabel implements core.EFSMAbstraction.
func (a *Abstraction) StateLabel(v core.Vector) string {
	switch {
	case v[idxJoined] == 0:
		return "UNJOINED"
	case v[idxHasPred] == 0:
		return "IN_RING_NO_PRED"
	default:
		return "IN_RING"
	}
}

// GuardComponent implements core.EFSMAbstraction.
func (a *Abstraction) GuardComponent(msg string) int {
	switch msg {
	case EvStabilize, EvSuccFail:
		return idxSuccessors
	default:
		return -1
	}
}

// VarOps implements core.EFSMAbstraction.
func (a *Abstraction) VarOps(msg string) []core.VarOp {
	switch msg {
	case EvStabilize:
		return []core.VarOp{{Variable: "successors", Delta: 1}}
	case EvSuccFail:
		return []core.VarOp{{Variable: "successors", Delta: -1}}
	default:
		return nil
	}
}

// Symbol implements core.EFSMAbstraction.
func (a *Abstraction) Symbol(component, value int) string {
	switch value {
	case 0:
		return "0"
	case 1:
		return "1"
	case a.model.s:
		return "s"
	case a.model.s - 1:
		return "s-1"
	}
	return ""
}
