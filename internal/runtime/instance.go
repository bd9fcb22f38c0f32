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

// NopHandler discards all actions.
type NopHandler struct{}

// Act implements ActionHandler.
func (NopHandler) Act(string) {}

var _ ActionHandler = NopHandler{}

// Instance is a running occurrence of a generated state machine: current
// state plus the machine structure it walks.
type Instance struct {
	machine *core.StateMachine
	state   *core.State
	handler ActionHandler
}

// New returns an Instance positioned at the machine's start state. A nil
// handler discards actions.
func New(machine *core.StateMachine, handler ActionHandler) (*Instance, error) {
	if machine == nil {
		return nil, errors.New("runtime: nil machine")
	}
	if machine.Start == nil {
		return nil, errors.New("runtime: machine has no start state")
	}
	if handler == nil {
		handler = NopHandler{}
	}
	return &Instance{machine: machine, state: machine.Start, handler: handler}, nil
}

// State returns the machine's current state.
func (in *Instance) State() *core.State { return in.state }

// StateName returns the name of the current state.
func (in *Instance) StateName() string { return in.state.Name }

// Finished reports whether the machine has reached its finish state.
func (in *Instance) Finished() bool { return in.state.Final }

// Machine returns the machine definition being executed.
func (in *Instance) Machine() *core.StateMachine { return in.machine }

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
	if in.state.Final {
		return nil, ErrFinished
	}
	tr := in.state.Transition(msg)
	if tr == nil {
		return nil, &IgnoredError{StateName: in.state.Name, Message: msg}
	}
	in.state = tr.Target
	for _, a := range tr.Actions {
		in.handler.Act(a)
	}
	return tr, nil
}

// Reset returns the machine to its start state.
func (in *Instance) Reset() { in.state = in.machine.Start }
