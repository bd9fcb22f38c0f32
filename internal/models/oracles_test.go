package models

// The hand-written adapters the consensus, chord and storage entries were
// before they became the spec documents embedded in this package. They
// are differential oracles now: TestEmbeddedSpecsRenderLikeTheirAdapters
// holds every artefact of every sweep member of a document to what its
// adapter renders. The termination adapter is still product code
// (internal/termination), because the benchmark prices interpretation
// against it.

import (
	"fmt"
	"strconv"

	"asagen/internal/core"
)

// oracle is a hand-written family member and its EFSM abstraction.
type oracle interface {
	core.Model
	abstraction() core.EFSMAbstraction
}

// flag renders a boolean component for an abstract-state label.
func flag(v int) byte {
	if v != 0 {
		return 'T'
	}
	return 'F'
}

// consensusOracle is the Chandra–Toueg-style single-decree consensus model
// for n processes: a coordinator collecting estimates and acknowledgements
// under majority thresholds, unioned with the participant role.
type consensusOracle struct{ n int }

const (
	conEstimateSent = iota
	conEstimatesReceived
	conProposalReceived
	conAckSent
	conAcksReceived
)

func newConsensusOracle(n int) (oracle, error) {
	if n < 3 {
		return nil, fmt.Errorf("consensus: process count %d < minimum 3", n)
	}
	return &consensusOracle{n: n}, nil
}

func (m *consensusOracle) majority() int  { return m.n/2 + 1 }
func (m *consensusOracle) Name() string   { return "ct-consensus" }
func (m *consensusOracle) Parameter() int { return m.n }

func (m *consensusOracle) Components() []core.StateComponent {
	return []core.StateComponent{
		core.NewBoolComponent("estimate_sent"),
		core.NewIntComponent("estimates_received", m.n-1),
		core.NewBoolComponent("proposal_received"),
		core.NewBoolComponent("ack_sent"),
		core.NewIntComponent("acks_received", m.n-1),
	}
}

func (m *consensusOracle) Messages() []string {
	return []string{"PROPOSE", "ESTIMATE", "PROPOSAL", "ACK", "DECIDE"}
}

func (m *consensusOracle) Start() core.Vector { return make(core.Vector, 5) }

func (m *consensusOracle) Apply(v core.Vector, mi int, out *core.Effect) bool {
	msg := m.Messages()[mi]
	s := v.Clone()
	var actions, notes []string
	finished := false
	switch msg {
	case "PROPOSE":
		if s[conEstimateSent] != 0 {
			return false
		}
		s[conEstimateSent] = 1
		actions = append(actions, "->estimate")
		notes = append(notes, "Submit the local estimate to the coordinator.")
	case "ESTIMATE":
		if s[conEstimatesReceived] == m.n-1 {
			return false
		}
		s[conEstimatesReceived]++
		notes = append(notes, "Record one further estimate received.")
		// The coordinator's own estimate counts towards the majority.
		if s[conEstimatesReceived]+s[conEstimateSent] == m.majority() {
			actions = append(actions, "->proposal")
			notes = append(notes, fmt.Sprintf("Majority (%d) of estimates gathered: propose.", m.majority()))
		}
	case "PROPOSAL":
		if s[conProposalReceived] != 0 {
			return false
		}
		s[conProposalReceived] = 1
		if s[conAckSent] == 0 {
			s[conAckSent] = 1
			actions = append(actions, "->ack")
			notes = append(notes, "Acknowledge the coordinator's proposal.")
		}
	case "ACK":
		if s[conAcksReceived] == m.n-1 {
			return false
		}
		s[conAcksReceived]++
		notes = append(notes, "Record one further acknowledgement received.")
		if s[conAcksReceived]+s[conAckSent] == m.majority() {
			actions = append(actions, "->decide")
			notes = append(notes, fmt.Sprintf("Majority (%d) of acks gathered: decide.", m.majority()))
			finished = true
		}
	case "DECIDE":
		finished = true
		notes = append(notes, "Adopt the announced decision.")
	default:
		return false
	}
	*out = core.Effect{Target: s, Actions: actions, Annotations: notes, Finished: finished}
	return true
}

func (m *consensusOracle) DescribeState(v core.Vector, t *core.Text) {
	for _, line := range m.describe(v) {
		t.Line(line)
	}
}

func (m *consensusOracle) describe(v core.Vector) []string {
	lines := make([]string, 0, 4)
	if v[conEstimateSent] != 0 {
		lines = append(lines, "Have submitted the local estimate.")
	} else {
		lines = append(lines, "Have not yet submitted the local estimate.")
	}
	lines = append(lines, "Have received "+strconv.Itoa(v[conEstimatesReceived])+" estimates and "+
		strconv.Itoa(v[conAcksReceived])+" acks.")
	if v[conProposalReceived] != 0 {
		lines = append(lines, "Have received the coordinator's proposal.")
	}
	if v[conAckSent] != 0 {
		lines = append(lines, "Have acknowledged the proposal.")
	}
	return lines
}

func (m *consensusOracle) abstraction() core.EFSMAbstraction { return consensusAbstraction{m} }

type consensusAbstraction struct{ m *consensusOracle }

func (a consensusAbstraction) StateLabel(v core.Vector) string {
	return fmt.Sprintf("EST%c/PROP%c/ACK%c", flag(v[conEstimateSent]), flag(v[conProposalReceived]), flag(v[conAckSent]))
}

func (a consensusAbstraction) GuardComponent(msg string) int {
	switch msg {
	case "ESTIMATE":
		return conEstimatesReceived
	case "ACK":
		return conAcksReceived
	}
	return -1
}

func (a consensusAbstraction) VarOps(msg string) []core.VarOp {
	switch msg {
	case "ESTIMATE":
		return []core.VarOp{{Variable: "estimates_received", Delta: 1}}
	case "ACK":
		return []core.VarOp{{Variable: "acks_received", Delta: 1}}
	}
	return nil
}

func (a consensusAbstraction) Symbol(component, value int) string {
	maj := a.m.majority()
	switch value {
	case 0:
		return "0"
	case maj:
		return "majority"
	case maj - 1:
		return "majority-1"
	case maj - 2:
		return "majority-2"
	case a.m.n - 1:
		return "n-1"
	case a.m.n - 2:
		return "n-2"
	}
	return ""
}

// chordOracle is the ring-membership lifecycle of one overlay node for
// successor-list length s: it survives s−1 successor failures before it
// must re-bootstrap.
type chordOracle struct{ s int }

const (
	chordJoined = iota
	chordSuccessors
	chordHasPred
)

func newChordOracle(s int) (oracle, error) {
	if s < 1 {
		return nil, fmt.Errorf("chord: successor-list length %d < 1", s)
	}
	return &chordOracle{s: s}, nil
}

func (m *chordOracle) Name() string   { return "chord-membership" }
func (m *chordOracle) Parameter() int { return m.s }

func (m *chordOracle) Components() []core.StateComponent {
	return []core.StateComponent{
		core.NewBoolComponent("joined"),
		core.NewIntComponent("successors", m.s),
		core.NewBoolComponent("has_predecessor"),
	}
}

func (m *chordOracle) Messages() []string {
	return []string{"JOIN", "STABILIZE", "NOTIFY", "SUCC_FAIL", "PRED_FAIL", "LEAVE"}
}

func (m *chordOracle) Start() core.Vector { return make(core.Vector, 3) }

func (m *chordOracle) Apply(v core.Vector, mi int, out *core.Effect) bool {
	msg := m.Messages()[mi]
	s := v.Clone()
	var actions, notes []string
	finished := false
	switch msg {
	case "JOIN":
		if s[chordJoined] != 0 {
			return false
		}
		s[chordJoined] = 1
		actions = append(actions, "->lookup")
		notes = append(notes, "Bootstrap: locate the successor by routing a lookup through an existing member.")
	case "STABILIZE":
		if s[chordJoined] == 0 || s[chordSuccessors] == m.s {
			return false
		}
		s[chordSuccessors]++
		actions = append(actions, "->notify")
		notes = append(notes, fmt.Sprintf("Stabilisation adopted one further live successor (%d of %d).", s[chordSuccessors], m.s))
	case "NOTIFY":
		if s[chordJoined] == 0 || s[chordHasPred] != 0 {
			return false
		}
		s[chordHasPred] = 1
		notes = append(notes, "Adopted the notifying node as predecessor.")
	case "SUCC_FAIL":
		if s[chordSuccessors] == 0 {
			return false
		}
		s[chordSuccessors]--
		notes = append(notes, "One successor-list entry failed.")
		if s[chordSuccessors] == 0 {
			actions = append(actions, "->lookup")
			notes = append(notes, fmt.Sprintf("Successor list exhausted (tolerance %d exceeded): re-bootstrap lookup.", m.s-1))
		}
	case "PRED_FAIL":
		if s[chordHasPred] == 0 {
			return false
		}
		s[chordHasPred] = 0
		notes = append(notes, "Predecessor failure detected; await the next notify.")
	case "LEAVE":
		if s[chordJoined] == 0 {
			return false
		}
		finished = true
		actions = append(actions, "->transfer-keys")
		notes = append(notes, "Graceful departure: link predecessor to successor and hand off owned keys.")
	default:
		return false
	}
	*out = core.Effect{Target: s, Actions: actions, Annotations: notes, Finished: finished}
	return true
}

func (m *chordOracle) DescribeState(v core.Vector, t *core.Text) {
	for _, line := range m.describe(v) {
		t.Line(line)
	}
}

func (m *chordOracle) describe(v core.Vector) []string {
	membership := "outside the overlay"
	if v[chordJoined] != 0 {
		membership = "an overlay member"
	}
	pred := "no predecessor"
	if v[chordHasPred] != 0 {
		pred = "a live predecessor"
	}
	return []string{
		"Node is " + membership + " with " + pred + ".",
		strconv.Itoa(v[chordSuccessors]) + " of " + strconv.Itoa(m.s) + " successor-list entries live.",
	}
}

func (m *chordOracle) abstraction() core.EFSMAbstraction { return chordAbstraction{m} }

type chordAbstraction struct{ m *chordOracle }

func (a chordAbstraction) StateLabel(v core.Vector) string {
	switch {
	case v[chordJoined] == 0:
		return "UNJOINED"
	case v[chordHasPred] == 0:
		return "IN_RING_NO_PRED"
	}
	return "IN_RING"
}

func (a chordAbstraction) GuardComponent(msg string) int {
	if msg == "STABILIZE" || msg == "SUCC_FAIL" {
		return chordSuccessors
	}
	return -1
}

func (a chordAbstraction) VarOps(msg string) []core.VarOp {
	switch msg {
	case "STABILIZE":
		return []core.VarOp{{Variable: "successors", Delta: 1}}
	case "SUCC_FAIL":
		return []core.VarOp{{Variable: "successors", Delta: -1}}
	}
	return nil
}

func (a chordAbstraction) Symbol(component, value int) string {
	switch value {
	case 0:
		return "0"
	case 1:
		return "1"
	case a.m.s:
		return "s"
	case a.m.s - 1:
		return "s-1"
	}
	return ""
}

// storageOracle is the per-block store/retrieve lifecycle of a replicated
// block-store endpoint for replication factor r, f = ⌊(r−1)/3⌋: a store
// completes on r−f acknowledgements, and a retrieve tolerates f failed
// replica attempts.
type storageOracle struct{ r, f int }

const (
	stoStoreSent = iota
	stoAcks
	stoFetching
	stoMisses
)

func newStorageOracle(r int) (oracle, error) {
	if r < 4 {
		return nil, fmt.Errorf("storage: replication factor %d < 4", r)
	}
	return &storageOracle{r: r, f: (r - 1) / 3}, nil
}

func (m *storageOracle) quorum() int    { return m.r - m.f }
func (m *storageOracle) Name() string   { return "replicated-store" }
func (m *storageOracle) Parameter() int { return m.r }

func (m *storageOracle) Components() []core.StateComponent {
	return []core.StateComponent{
		core.NewBoolComponent("store_sent"),
		core.NewIntComponent("acks_received", m.quorum()),
		core.NewBoolComponent("fetch_outstanding"),
		core.NewIntComponent("misses", m.f),
	}
}

func (m *storageOracle) Messages() []string {
	return []string{"STORE", "STORE_ACK", "FETCH", "FETCH_MISS", "FETCH_OK"}
}

func (m *storageOracle) Start() core.Vector { return make(core.Vector, 4) }

func (m *storageOracle) Apply(v core.Vector, mi int, out *core.Effect) bool {
	msg := m.Messages()[mi]
	s := v.Clone()
	var actions, notes []string
	finished := false
	switch msg {
	case "STORE":
		if s[stoStoreSent] != 0 {
			return false
		}
		s[stoStoreSent] = 1
		actions = append(actions, "->store")
		notes = append(notes, fmt.Sprintf("Compute the block's PID and send a copy to its %d replica owners.", m.r))
	case "STORE_ACK":
		if s[stoStoreSent] == 0 || s[stoAcks] == m.quorum() {
			return false
		}
		s[stoAcks]++
		notes = append(notes, "Record one further store acknowledgement.")
		if s[stoAcks] == m.quorum() {
			notes = append(notes, fmt.Sprintf("Quorum (r−f = %d) reached: at least f+1 = %d honest replicas hold the block.",
				m.quorum(), m.f+1))
		}
	case "FETCH":
		if s[stoAcks] != m.quorum() || s[stoFetching] != 0 {
			return false
		}
		s[stoFetching] = 1
		actions = append(actions, "->fetch")
		notes = append(notes, "Locate the replicas and ask one for the block.")
	case "FETCH_MISS":
		if s[stoFetching] == 0 || s[stoMisses] == m.f {
			return false
		}
		s[stoMisses]++
		actions = append(actions, "->fetch")
		notes = append(notes, fmt.Sprintf("Replica silent, empty or corrupt (%d of at most f = %d): try the next.", s[stoMisses], m.f))
	case "FETCH_OK":
		if s[stoFetching] == 0 {
			return false
		}
		finished = true
		notes = append(notes, "A replica's content verified against the PID: retrieve complete.")
	default:
		return false
	}
	*out = core.Effect{Target: s, Actions: actions, Annotations: notes, Finished: finished}
	return true
}

func (m *storageOracle) DescribeState(v core.Vector, t *core.Text) {
	for _, line := range m.describe(v) {
		t.Line(line)
	}
}

func (m *storageOracle) describe(v core.Vector) []string {
	lines := make([]string, 0, 3)
	if v[stoStoreSent] == 0 {
		lines = append(lines, "No store operation in flight.")
	} else {
		lines = append(lines, "Store sent to "+strconv.Itoa(m.r)+" replicas; "+strconv.Itoa(v[stoAcks])+" of "+
			strconv.Itoa(m.quorum())+" acknowledgements received.")
	}
	if v[stoFetching] != 0 {
		lines = append(lines, "Retrieve in progress; "+strconv.Itoa(v[stoMisses])+" failed attempts (tolerates "+strconv.Itoa(m.f)+").")
	}
	return lines
}

func (m *storageOracle) abstraction() core.EFSMAbstraction { return storageAbstraction{m} }

type storageAbstraction struct{ m *storageOracle }

func (a storageAbstraction) StateLabel(v core.Vector) string {
	switch {
	case v[stoStoreSent] == 0:
		return "IDLE"
	case v[stoFetching] == 0:
		return "STORING"
	}
	return "READING"
}

func (a storageAbstraction) GuardComponent(msg string) int {
	switch msg {
	case "STORE_ACK", "FETCH":
		return stoAcks
	case "FETCH_MISS":
		return stoMisses
	}
	return -1
}

func (a storageAbstraction) VarOps(msg string) []core.VarOp {
	switch msg {
	case "STORE_ACK":
		return []core.VarOp{{Variable: "acks_received", Delta: 1}}
	case "FETCH_MISS":
		return []core.VarOp{{Variable: "misses", Delta: 1}}
	}
	return nil
}

func (a storageAbstraction) Symbol(component, value int) string {
	if component == stoAcks {
		switch value {
		case 0:
			return "0"
		case a.m.quorum():
			return "r-f"
		case a.m.quorum() - 1:
			return "r-f-1"
		}
		return ""
	}
	switch value {
	case 0:
		return "0"
	case a.m.f:
		return "f"
	case a.m.f - 1:
		return "f-1"
	}
	return ""
}
