// Package termination applies the generative state-machine methodology to
// distributed termination detection, the second §5.2 candidate: most
// termination algorithms are based on message counting (a computation has
// terminated when every process is locally idle and no messages are in
// transit), so their per-process state is amenable to the same treatment.
//
// The model is a Dijkstra–Scholten-style per-process detector: a process is
// activated by a task, may spawn up to k child tasks, counts child
// completions, and signals its own completion once it is idle and all
// children have completed. The parameter k (maximum outstanding children)
// plays the role the replication factor plays in the commit protocol.
package termination

import (
	"fmt"
	"strconv"

	"asagen/internal/core"
)

// Message types received by a termination-detection machine.
const (
	// MsgTask activates the process.
	MsgTask = "TASK"
	// MsgSpawn makes the active process delegate a child task.
	MsgSpawn = "SPAWN"
	// MsgChildDone reports a delegated task's completion.
	MsgChildDone = "CHILD_DONE"
	// MsgIdle marks the local work as finished.
	MsgIdle = "IDLE"
)

// Actions performed on phase transitions.
const (
	// ActSendTask delegates a task to a child process.
	ActSendTask = "->task"
	// ActSendDone signals completion to the parent.
	ActSendDone = "->done"
)

// Component indices.
const (
	idxActive = iota
	idxOutstanding
	numComponents
)

// Model is the termination-detection abstract model for a fixed fan-out
// bound k. It implements core.Model.
type Model struct {
	k int
}

var _ core.Model = (*Model)(nil)

// NewModel returns the model for a maximum of k outstanding children.
func NewModel(k int) (*Model, error) {
	if k < 1 {
		return nil, fmt.Errorf("termination: fan-out bound %d < 1", k)
	}
	return &Model{k: k}, nil
}

// FanOut returns k.
func (m *Model) FanOut() int { return m.k }

// Name implements core.Model.
func (m *Model) Name() string { return "termination-detection" }

// Parameter implements core.Model.
func (m *Model) Parameter() int { return m.k }

// Components implements core.Model.
func (m *Model) Components() []core.StateComponent {
	return []core.StateComponent{
		core.NewBoolComponent("active"),
		core.NewIntComponent("outstanding", m.k),
	}
}

// Messages implements core.Model.
func (m *Model) Messages() []string {
	return []string{MsgTask, MsgSpawn, MsgChildDone, MsgIdle}
}

// Start implements core.Model: idle with no children; the first task
// activates the process.
func (m *Model) Start() core.Vector { return make(core.Vector, numComponents) }

// Apply implements core.Model.
func (m *Model) Apply(v core.Vector, msg string) (core.Effect, bool) {
	s := v.Clone()
	var actions, notes []string
	finished := false

	switch msg {
	case MsgTask:
		if s[idxActive] != 0 {
			return core.Effect{}, false // already active
		}
		s[idxActive] = 1
		notes = append(notes, "Activated by an incoming task.")

	case MsgSpawn:
		if s[idxActive] == 0 || s[idxOutstanding] == m.k {
			return core.Effect{}, false
		}
		s[idxOutstanding]++
		actions = append(actions, ActSendTask)
		notes = append(notes, "Delegate a child task and count it outstanding.")

	case MsgChildDone:
		if s[idxOutstanding] == 0 {
			return core.Effect{}, false
		}
		s[idxOutstanding]--
		notes = append(notes, "One delegated task completed.")
		if s[idxOutstanding] == 0 && s[idxActive] == 0 {
			actions = append(actions, ActSendDone)
			notes = append(notes, "Idle with no outstanding children: report completion.")
			finished = true
		}

	case MsgIdle:
		if s[idxActive] == 0 {
			return core.Effect{}, false
		}
		s[idxActive] = 0
		notes = append(notes, "Local work finished.")
		if s[idxOutstanding] == 0 {
			actions = append(actions, ActSendDone)
			notes = append(notes, "No outstanding children: report completion.")
			finished = true
		}

	default:
		return core.Effect{}, false
	}
	return core.Effect{Target: s, Actions: actions, Annotations: notes, Finished: finished}, true
}

// DescribeState implements core.Model.
func (m *Model) DescribeState(v core.Vector) []string {
	state := "idle"
	if v[idxActive] != 0 {
		state = "active"
	}
	return []string{
		"Process is " + state + ".",
		strconv.Itoa(v[idxOutstanding]) + " delegated tasks outstanding (bound " + strconv.Itoa(m.k) + ").",
	}
}

// Abstraction coalesces the outstanding-children counter for EFSM
// generation.
type Abstraction struct {
	model *Model
}

var _ core.EFSMAbstraction = (*Abstraction)(nil)

// NewAbstraction returns the EFSM abstraction for the model.
func NewAbstraction(m *Model) *Abstraction { return &Abstraction{model: m} }

// StateLabel implements core.EFSMAbstraction.
func (a *Abstraction) StateLabel(v core.Vector) string {
	if v[idxActive] != 0 {
		return "ACTIVE"
	}
	return "IDLE_WAITING"
}

// GuardComponent implements core.EFSMAbstraction.
func (a *Abstraction) GuardComponent(msg string) int {
	switch msg {
	case MsgSpawn, MsgChildDone, MsgIdle:
		// Idle's outcome (report done or wait for children) also depends
		// on the outstanding count.
		return idxOutstanding
	default:
		return -1
	}
}

// VarOps implements core.EFSMAbstraction.
func (a *Abstraction) VarOps(msg string) []core.VarOp {
	switch msg {
	case MsgSpawn:
		return []core.VarOp{{Variable: "outstanding", Delta: 1}}
	case MsgChildDone:
		return []core.VarOp{{Variable: "outstanding", Delta: -1}}
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
	case a.model.k:
		return "k"
	case a.model.k - 1:
		return "k-1"
	}
	return ""
}
