// Package runtime executes generated state machines. A peer-set member
// creates one Instance per ongoing update (§3.1); incoming messages drive
// the machine along its transitions, and the actions attached to phase
// transitions are dispatched to an ActionHandler supplied by the embedding
// application (the paper's §5.1: "the rendering code is parameterised with
// a class defining appropriate action methods").
//
// The interpreter is the dynamic-deployment path of §4.2: instead of
// compiling generated source on the fly (the paper uses the Java 6 runtime
// compiler), the abstract machine representation is bound dynamically and
// interpreted. The equivalence of the interpreted machine, the generated Go
// source, and the generic algorithm is established by differential tests.
package runtime

import (
	"errors"
	"fmt"

	"asagen/internal/core"
)

// Errors reported by Instance.Deliver.
var (
	// ErrFinished is returned when a message is delivered to an instance
	// whose machine has already reached the finish state.
	ErrFinished = errors.New("runtime: machine already finished")
)

// IgnoredError reports a message that is not applicable in the machine's
// current state (the generated model records no transition for it). The
// paper's generated code simply has no case branch for such combinations.
type IgnoredError struct {
	// StateName is the machine state at delivery time.
	StateName string
	// Message is the inapplicable message type.
	Message string
}

func (e *IgnoredError) Error() string {
	return fmt.Sprintf("runtime: message %s not applicable in state %s", e.Message, e.StateName)
}

// ActionHandler receives the actions performed on phase transitions.
// Implementations typically send protocol messages to the other peer-set
// members.
type ActionHandler interface {
	// Act is invoked once per action, in transition order, e.g. with
	// "->vote" or "->commit".
	Act(action string)
}

// ActionFunc adapts a function to the ActionHandler interface.
type ActionFunc func(action string)

// Act implements ActionHandler.
func (f ActionFunc) Act(action string) { f(action) }

var _ ActionHandler = ActionFunc(nil)

// Instance is a running occurrence of a generated state machine: current
// state plus the machine structure it walks. The state is a position in
// the machine's core.Table, and every delivery fires through the table's
// column: one array index per (state, message).
type Instance struct {
	machine *core.StateMachine
	table   *core.Table
	state   int           // position of the current state in machine.States
	current *core.State   // machine.States[state]
	handler ActionHandler // nil discards actions without a call
}

// New returns an Instance positioned at the machine's start state. A nil
// handler discards actions. A machine its table cannot index fully is
// refused: one that refers to a state that is not one of its States, or
// declares a message twice, or has a transition on a message it does not
// declare.
func New(machine *core.StateMachine, handler ActionHandler) (*Instance, error) {
	if machine == nil {
		return nil, errors.New("runtime: nil machine")
	}
	if machine.Start == nil {
		return nil, errors.New("runtime: machine has no start state")
	}
	table, _ := machine.Table() // Executable reports the table's error too
	if err := table.Executable(); err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	in := &Instance{machine: machine, table: table, handler: handler}
	in.Reset()
	return in, nil
}

// State returns the machine's current state.
func (in *Instance) State() *core.State { return in.current }

// Position returns the position of the current state in the machine's
// States and Table.
func (in *Instance) Position() int { return in.state }

// StateName returns the name of the current state.
func (in *Instance) StateName() string { return in.current.Name }

// Finished reports whether the machine has reached its finish state.
func (in *Instance) Finished() bool { return in.current.Final }

// Machine returns the machine definition being executed.
func (in *Instance) Machine() *core.StateMachine { return in.machine }

// Table returns the machine's transition table, whose edge positions Step
// returns.
func (in *Instance) Table() *core.Table { return in.table }

// Deliver feeds one message to the machine. It returns the actions
// performed (already dispatched to the handler, in order). A message that
// is not applicable in the current state returns an *IgnoredError and
// leaves the state unchanged; delivering to a finished machine returns
// ErrFinished.
func (in *Instance) Deliver(msg string) ([]string, error) {
	tr, err := in.Fire(msg)
	if err != nil {
		return nil, err
	}
	return tr.Actions, nil
}

// Fire is Deliver returning the transition taken instead of its actions,
// for callers that key work on the transition itself.
func (in *Instance) Fire(msg string) (*core.Transition, error) {
	e, err := in.fire(in.table.Message(msg), msg)
	if err != nil {
		return nil, err
	}
	return in.table.Edge(e).Transition, nil
}

// Message returns the index of msg in the machine's Messages, the index
// Step takes; -1 when the machine has no such message.
func (in *Instance) Message(msg string) int { return in.table.Message(msg) }

// Step is Fire for the message at index i of the machine's Messages (see
// Message; i must be one of its indices), returning the position of the
// transition taken in the machine's Table. It is how a caller that
// resolved a message once delivers it many times.
func (in *Instance) Step(i int) (int, error) { return in.fire(i, "") }

// fire is the one delivery path, for the message at index i of the
// machine's Messages, or for msg, one the machine does not have, when i
// is -1.
func (in *Instance) fire(i int, msg string) (int, error) {
	if in.current.Final {
		return -1, ErrFinished
	}
	e := -1
	if i >= 0 {
		e = in.table.Next(in.state, i)
	}
	if e < 0 {
		if i >= 0 {
			msg = in.machine.Messages[i]
		}
		return -1, &IgnoredError{StateName: in.current.Name, Message: msg}
	}
	edge := in.table.Edge(e)
	in.state, in.current = int(edge.To), edge.Target
	if in.handler != nil {
		for _, a := range edge.Actions {
			in.handler.Act(a)
		}
	}
	return e, nil
}

// Reset returns the machine to its start state.
func (in *Instance) Reset() { in.state, in.current = in.table.Start, in.machine.Start }
