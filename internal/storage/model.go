package storage

// This file lifts the data-storage endpoint protocol (§2.1) into the
// generative methodology: the per-block store/retrieve lifecycle run by
// Endpoint is captured as an abstract model (core.Model) and executed to
// generate the endpoint's protocol machine. The redundancy parameter is
// the replication factor r with f = ⌊(r−1)/3⌋, exactly as for the commit
// protocol: a store completes on r−f acknowledgements (so at least f+1
// honest replicas hold the block even if f acknowledgements were lies),
// and a retrieve tolerates up to f failed replica attempts before the
// hash-verified reply — one honest replica suffices.
//
// The generated machine is validated differentially: model_test.go replays
// it through the runtime interpreter against the hand-written Endpoint
// running over simnet with randomized Byzantine replica behaviours,
// asserting the generated transitions track the live operation's observed
// acknowledgement and fetch-attempt counts event for event.

import (
	"fmt"
	"strconv"

	"asagen/internal/core"
)

// Message types received by a storage-endpoint machine. They are the
// endpoint-local protocol events of one block's lifecycle.
const (
	// EvStore is the client's request to store the block.
	EvStore = "STORE"
	// EvStoreAck is one replica's store acknowledgement.
	EvStoreAck = "STORE_ACK"
	// EvFetch is the client's request to retrieve the block.
	EvFetch = "FETCH"
	// EvFetchMiss is one failed replica attempt: a silent, empty or
	// corrupt replica detected by the PID hash check.
	EvFetchMiss = "FETCH_MISS"
	// EvFetchOK is a replica reply whose content verified against the PID.
	EvFetchOK = "FETCH_OK"
)

// Actions performed on phase transitions.
const (
	// ActStoreBlock sends the block to its r replica owners.
	ActStoreBlock = "->store"
	// ActFetchReplica asks the next replica for the block.
	ActFetchReplica = "->fetch"
)

// Component indices.
const (
	idxStoreSent = iota
	idxAcks
	idxFetching
	idxMisses
	numModelComponents
)

// Model is the storage-endpoint abstract model for a fixed replication
// factor r. It implements core.Model.
type Model struct {
	r int
	f int
}

var _ core.Model = (*Model)(nil)

// NewModel returns the endpoint model for replication factor r. Like
// NewEndpoint it requires r ≥ 4 so the scheme tolerates at least one
// Byzantine replica (r > 3f with f = ⌊(r−1)/3⌋).
func NewModel(r int) (*Model, error) {
	if r < 4 {
		return nil, fmt.Errorf("storage: replication factor %d < 4", r)
	}
	return &Model{r: r, f: (r - 1) / 3}, nil
}

// ReplicationFactor returns r.
func (m *Model) ReplicationFactor() int { return m.r }

// FaultTolerance returns f = ⌊(r−1)/3⌋, the number of Byzantine replicas
// tolerated by both the store quorum and the retrieve retry loop.
func (m *Model) FaultTolerance() int { return m.f }

// StoreQuorum returns r−f, the acknowledgement count that completes a
// store.
func (m *Model) StoreQuorum() int { return m.r - m.f }

// Name implements core.Model.
func (m *Model) Name() string { return "replicated-store" }

// Parameter implements core.Model.
func (m *Model) Parameter() int { return m.r }

// Components implements core.Model.
func (m *Model) Components() []core.StateComponent {
	return []core.StateComponent{
		core.NewBoolComponent("store_sent"),
		core.NewIntComponent("acks_received", m.StoreQuorum()),
		core.NewBoolComponent("fetch_outstanding"),
		core.NewIntComponent("misses", m.f),
	}
}

// Messages implements core.Model.
func (m *Model) Messages() []string {
	return []string{EvStore, EvStoreAck, EvFetch, EvFetchMiss, EvFetchOK}
}

// Start implements core.Model: nothing sent, nothing counted.
func (m *Model) Start() core.Vector { return make(core.Vector, numModelComponents) }

// Apply implements core.Model.
func (m *Model) Apply(v core.Vector, msg string) (core.Effect, bool) {
	s := v.Clone()
	var actions, notes []string
	finished := false

	switch msg {
	case EvStore:
		if s[idxStoreSent] != 0 {
			return core.Effect{}, false // operation already in flight
		}
		s[idxStoreSent] = 1
		actions = append(actions, ActStoreBlock)
		notes = append(notes, fmt.Sprintf("Compute the block's PID and send a copy to its %d replica owners.", m.r))

	case EvStoreAck:
		if s[idxStoreSent] == 0 || s[idxAcks] == m.StoreQuorum() {
			// Before the store, or after the quorum: the endpoint has
			// discarded the pending acknowledgement set.
			return core.Effect{}, false
		}
		s[idxAcks]++
		notes = append(notes, "Record one further store acknowledgement.")
		if s[idxAcks] == m.StoreQuorum() {
			notes = append(notes, fmt.Sprintf("Quorum (r−f = %d) reached: at least f+1 = %d honest replicas hold the block.",
				m.StoreQuorum(), m.f+1))
		}

	case EvFetch:
		if s[idxAcks] != m.StoreQuorum() || s[idxFetching] != 0 {
			return core.Effect{}, false // block not yet durable, or already fetching
		}
		s[idxFetching] = 1
		actions = append(actions, ActFetchReplica)
		notes = append(notes, "Locate the replicas and ask one for the block.")

	case EvFetchMiss:
		if s[idxFetching] == 0 || s[idxMisses] == m.f {
			// More than f misses would exceed the fault model: the
			// delivery is rejected rather than transitioned.
			return core.Effect{}, false
		}
		s[idxMisses]++
		actions = append(actions, ActFetchReplica)
		notes = append(notes, fmt.Sprintf("Replica silent, empty or corrupt (%d of at most f = %d): try the next.", s[idxMisses], m.f))

	case EvFetchOK:
		if s[idxFetching] == 0 {
			return core.Effect{}, false
		}
		finished = true
		notes = append(notes, "A replica's content verified against the PID: retrieve complete.")

	default:
		return core.Effect{}, false
	}
	return core.Effect{Target: s, Actions: actions, Annotations: notes, Finished: finished}, true
}

// DescribeState implements core.Model.
func (m *Model) DescribeState(v core.Vector) []string {
	lines := make([]string, 0, 3)
	if v[idxStoreSent] == 0 {
		lines = append(lines, "No store operation in flight.")
	} else {
		lines = append(lines, "Store sent to "+strconv.Itoa(m.r)+" replicas; "+strconv.Itoa(v[idxAcks])+" of "+
			strconv.Itoa(m.StoreQuorum())+" acknowledgements received.")
	}
	if v[idxFetching] != 0 {
		lines = append(lines, "Retrieve in progress; "+strconv.Itoa(v[idxMisses])+" failed attempts (tolerates "+strconv.Itoa(m.f)+").")
	}
	return lines
}

// Abstraction coalesces the acknowledgement and miss counters for EFSM
// generation: the abstract states track only the operation phase, and the
// counts become guarded counter variables.
type Abstraction struct {
	model *Model
}

var _ core.EFSMAbstraction = (*Abstraction)(nil)

// NewAbstraction returns the EFSM abstraction for the model.
func NewAbstraction(m *Model) *Abstraction { return &Abstraction{model: m} }

// StateLabel implements core.EFSMAbstraction.
func (a *Abstraction) StateLabel(v core.Vector) string {
	switch {
	case v[idxStoreSent] == 0:
		return "IDLE"
	case v[idxFetching] == 0:
		return "STORING"
	default:
		return "READING"
	}
}

// GuardComponent implements core.EFSMAbstraction.
func (a *Abstraction) GuardComponent(msg string) int {
	switch msg {
	case EvStoreAck, EvFetch:
		return idxAcks
	case EvFetchMiss:
		return idxMisses
	default:
		return -1
	}
}

// VarOps implements core.EFSMAbstraction.
func (a *Abstraction) VarOps(msg string) []core.VarOp {
	switch msg {
	case EvStoreAck:
		return []core.VarOp{{Variable: "acks_received", Delta: 1}}
	case EvFetchMiss:
		return []core.VarOp{{Variable: "misses", Delta: 1}}
	default:
		return nil
	}
}

// Symbol implements core.EFSMAbstraction.
func (a *Abstraction) Symbol(component, value int) string {
	if component == idxAcks {
		switch value {
		case 0:
			return "0"
		case a.model.StoreQuorum():
			return "r-f"
		case a.model.StoreQuorum() - 1:
			return "r-f-1"
		}
		return ""
	}
	switch value {
	case 0:
		return "0"
	case a.model.f:
		return "f"
	case a.model.f - 1:
		return "f-1"
	}
	return ""
}
