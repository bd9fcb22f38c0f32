// Package consensus applies the generative state-machine methodology to a
// second message-counting algorithm, as §5.2 of the paper proposes: a
// simplified Chandra–Toueg-style single-decree consensus with a coordinator
// collecting estimates and acknowledgements under majority thresholds.
//
// Like the commit protocol, the algorithm counts messages against
// thresholds that depend on a parameter (the number of processes n), so it
// cannot be expressed as one FSM; the abstract model generates the family
// member for any n. The EFSM generalisation collapses the family to a
// fixed-size machine, exactly as for the commit protocol.
package consensus

import (
	"fmt"
	"strconv"

	"asagen/internal/core"
)

// Message types received by a consensus machine.
const (
	// MsgPropose is the local kick-off: the process submits its estimate.
	MsgPropose = "PROPOSE"
	// MsgEstimate is a participant's estimate, counted by the coordinator.
	MsgEstimate = "ESTIMATE"
	// MsgProposal is the coordinator's chosen value.
	MsgProposal = "PROPOSAL"
	// MsgAck acknowledges the proposal, counted by the coordinator.
	MsgAck = "ACK"
	// MsgDecide announces the decision.
	MsgDecide = "DECIDE"
)

// Actions performed on phase transitions.
const (
	ActSendEstimate = "->estimate"
	ActSendProposal = "->proposal"
	ActSendAck      = "->ack"
	ActSendDecide   = "->decide"
)

// Component indices.
const (
	idxEstimateSent = iota
	idxEstimatesReceived
	idxProposalReceived
	idxAckSent
	idxAcksReceived
	numComponents
)

// MinProcesses is the smallest sensible process count (a majority of one
// process is degenerate).
const MinProcesses = 3

// Model is the consensus abstract model for a fixed process count n. It
// implements core.Model. The machine unions the coordinator and participant
// roles: estimate and ack counting only ever progresses on the coordinator,
// but the state space covers both, as the paper's commit machine covers
// chosen and unchosen members.
type Model struct {
	n int
}

var _ core.Model = (*Model)(nil)

// NewModel returns the consensus model for n processes.
func NewModel(n int) (*Model, error) {
	if n < MinProcesses {
		return nil, fmt.Errorf("consensus: process count %d < minimum %d", n, MinProcesses)
	}
	return &Model{n: n}, nil
}

// Processes returns n.
func (m *Model) Processes() int { return m.n }

// Majority returns ⌊n/2⌋+1, the threshold for both estimate collection and
// acknowledgement collection.
func (m *Model) Majority() int { return m.n/2 + 1 }

// Name implements core.Model.
func (m *Model) Name() string { return "ct-consensus" }

// Parameter implements core.Model.
func (m *Model) Parameter() int { return m.n }

// Components implements core.Model.
func (m *Model) Components() []core.StateComponent {
	return []core.StateComponent{
		core.NewBoolComponent("estimate_sent"),
		core.NewIntComponent("estimates_received", m.n-1),
		core.NewBoolComponent("proposal_received"),
		core.NewBoolComponent("ack_sent"),
		core.NewIntComponent("acks_received", m.n-1),
	}
}

// Messages implements core.Model.
func (m *Model) Messages() []string {
	return []string{MsgPropose, MsgEstimate, MsgProposal, MsgAck, MsgDecide}
}

// Start implements core.Model.
func (m *Model) Start() core.Vector { return make(core.Vector, numComponents) }

// Apply implements core.Model.
func (m *Model) Apply(v core.Vector, msg string) (core.Effect, bool) {
	s := v.Clone()
	var actions []string
	var notes []string
	finished := false

	switch msg {
	case MsgPropose:
		if s[idxEstimateSent] != 0 {
			return core.Effect{}, false // already proposed
		}
		s[idxEstimateSent] = 1
		actions = append(actions, ActSendEstimate)
		notes = append(notes, "Submit the local estimate to the coordinator.")

	case MsgEstimate:
		if s[idxEstimatesReceived] == m.n-1 {
			return core.Effect{}, false
		}
		s[idxEstimatesReceived]++
		notes = append(notes, "Record one further estimate received.")
		// The coordinator's own estimate counts towards the majority.
		if s[idxEstimatesReceived]+s[idxEstimateSent] == m.Majority() {
			actions = append(actions, ActSendProposal)
			notes = append(notes, fmt.Sprintf("Majority (%d) of estimates gathered: propose.", m.Majority()))
		}

	case MsgProposal:
		if s[idxProposalReceived] != 0 {
			return core.Effect{}, false
		}
		s[idxProposalReceived] = 1
		if s[idxAckSent] == 0 {
			s[idxAckSent] = 1
			actions = append(actions, ActSendAck)
			notes = append(notes, "Acknowledge the coordinator's proposal.")
		}

	case MsgAck:
		if s[idxAcksReceived] == m.n-1 {
			return core.Effect{}, false
		}
		s[idxAcksReceived]++
		notes = append(notes, "Record one further acknowledgement received.")
		if s[idxAcksReceived]+s[idxAckSent] == m.Majority() {
			actions = append(actions, ActSendDecide)
			notes = append(notes, fmt.Sprintf("Majority (%d) of acks gathered: decide.", m.Majority()))
			finished = true
		}

	case MsgDecide:
		finished = true
		notes = append(notes, "Adopt the announced decision.")

	default:
		return core.Effect{}, false
	}

	if !finished && s.Equal(v) && len(actions) == 0 {
		return core.Effect{}, false
	}
	return core.Effect{Target: s, Actions: actions, Annotations: notes, Finished: finished}, true
}

// DescribeState implements core.Model.
func (m *Model) DescribeState(v core.Vector) []string {
	lines := make([]string, 0, 4)
	if v[idxEstimateSent] != 0 {
		lines = append(lines, "Have submitted the local estimate.")
	} else {
		lines = append(lines, "Have not yet submitted the local estimate.")
	}
	lines = append(lines, "Have received "+strconv.Itoa(v[idxEstimatesReceived])+" estimates and "+
		strconv.Itoa(v[idxAcksReceived])+" acks.")
	if v[idxProposalReceived] != 0 {
		lines = append(lines, "Have received the coordinator's proposal.")
	}
	if v[idxAckSent] != 0 {
		lines = append(lines, "Have acknowledged the proposal.")
	}
	return lines
}

// Abstraction coalesces the count components for EFSM generation.
type Abstraction struct {
	model *Model
}

var _ core.EFSMAbstraction = (*Abstraction)(nil)

// NewAbstraction returns the EFSM abstraction for the model.
func NewAbstraction(m *Model) *Abstraction { return &Abstraction{model: m} }

// StateLabel implements core.EFSMAbstraction.
func (a *Abstraction) StateLabel(v core.Vector) string {
	b := func(i int) byte {
		if v[i] != 0 {
			return 'T'
		}
		return 'F'
	}
	return fmt.Sprintf("EST%c/PROP%c/ACK%c", b(idxEstimateSent), b(idxProposalReceived), b(idxAckSent))
}

// GuardComponent implements core.EFSMAbstraction.
func (a *Abstraction) GuardComponent(msg string) int {
	switch msg {
	case MsgEstimate:
		return idxEstimatesReceived
	case MsgAck:
		return idxAcksReceived
	default:
		return -1
	}
}

// VarOps implements core.EFSMAbstraction.
func (a *Abstraction) VarOps(msg string) []core.VarOp {
	switch msg {
	case MsgEstimate:
		return []core.VarOp{{Variable: "estimates_received", Delta: 1}}
	case MsgAck:
		return []core.VarOp{{Variable: "acks_received", Delta: 1}}
	default:
		return nil
	}
}

// Symbol implements core.EFSMAbstraction.
func (a *Abstraction) Symbol(component, value int) string {
	maj := a.model.Majority()
	switch value {
	case 0:
		return "0"
	case maj:
		return "majority"
	case maj - 1:
		return "majority-1"
	case maj - 2:
		return "majority-2"
	case a.model.n - 1:
		return "n-1"
	case a.model.n - 2:
		return "n-2"
	}
	return ""
}
