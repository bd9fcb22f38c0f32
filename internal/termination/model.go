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

// The index of each message in Messages.
const (
	miTask = iota
	miSpawn
	miChildDone
	miIdle
)

// Apply implements core.Model.
func (m *Model) Apply(v core.Vector, msg int, eff *core.Effect) bool {
	s := eff.Target
	switch msg {
	case miTask:
		if s[idxActive] != 0 {
			return false // already active
		}
		s[idxActive] = 1
		eff.Annotations = append(eff.Annotations, "Activated by an incoming task.")

	case miSpawn:
		if s[idxActive] == 0 || s[idxOutstanding] == m.k {
			return false
		}
		s[idxOutstanding]++
		eff.Actions = append(eff.Actions, ActSendTask)
		eff.Annotations = append(eff.Annotations, "Delegate a child task and count it outstanding.")

	case miChildDone:
		if s[idxOutstanding] == 0 {
			return false
		}
		s[idxOutstanding]--
		eff.Annotations = append(eff.Annotations, "One delegated task completed.")
		if s[idxOutstanding] == 0 && s[idxActive] == 0 {
			eff.Actions = append(eff.Actions, ActSendDone)
			eff.Annotations = append(eff.Annotations, "Idle with no outstanding children: report completion.")
			eff.Finished = true
		}

	case miIdle:
		if s[idxActive] == 0 {
			return false
		}
		s[idxActive] = 0
		eff.Annotations = append(eff.Annotations, "Local work finished.")
		if s[idxOutstanding] == 0 {
			eff.Actions = append(eff.Actions, ActSendDone)
			eff.Annotations = append(eff.Annotations, "No outstanding children: report completion.")
			eff.Finished = true
		}

	default:
		return false
	}
	return true
}

// DescribeState implements core.Model.
func (m *Model) DescribeState(v core.Vector, t *core.Text) {
	if v[idxActive] != 0 {
		t.Line("Process is active.")
	} else {
		t.Line("Process is idle.")
	}
	b := strconv.AppendInt(t.Scratch(), int64(v[idxOutstanding]), 10)
	b = append(b, " delegated tasks outstanding (bound "...)
	b = strconv.AppendInt(b, int64(m.k), 10)
	t.LineBytes(append(b, ")."...))
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
