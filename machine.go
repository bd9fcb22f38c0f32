package asagen

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"asagen/internal/core"
	"asagen/internal/render"
	"asagen/internal/runtime"
)

// Machine is one generated finite state machine family member: the result
// of executing an abstract model for a concrete parameter value. It can be
// rendered into any registered machine-artefact format and executed
// through an Instance. A Machine is immutable and safe for concurrent
// use.
type Machine struct {
	name    string
	param   int
	machine *core.StateMachine
	model   core.Model
	fp      core.Fingerprint
}

// MachineStats records the size of the state space at each stage of the
// generation pipeline, matching the columns of the paper's Table 1.
type MachineStats struct {
	// InitialStates is the raw component cross-product size, computed
	// arithmetically. When the product exceeds the addressable range it
	// saturates and InitialOverflow is set.
	InitialStates   int
	InitialOverflow bool
	// ReachableStates counts states reachable from the start state;
	// FinalStates the count after merging equivalent states.
	ReachableStates int
	FinalStates     int
	// Transitions is the total transition count of the final machine.
	Transitions int
}

// ModelName returns the registry name of the model that generated the
// machine.
func (m *Machine) ModelName() string { return m.name }

// Parameter returns the parameter value the model was executed with.
func (m *Machine) Parameter() int { return m.param }

// Messages returns the message types the machine reacts to.
func (m *Machine) Messages() []string {
	return append([]string(nil), m.machine.Messages...)
}

// StateNames returns the machine's state names, start state first.
func (m *Machine) StateNames() []string { return m.machine.StateNames() }

// StartState returns the name of the machine's initial state.
func (m *Machine) StartState() string { return m.machine.Start.Name }

// Stats returns the generation-stage state counts.
func (m *Machine) Stats() MachineStats {
	return MachineStats{
		InitialStates:   m.machine.Stats.InitialStates,
		InitialOverflow: m.machine.Stats.InitialOverflow,
		ReachableStates: m.machine.Stats.ReachableStates,
		FinalStates:     m.machine.Stats.FinalStates,
		Transitions:     m.machine.TransitionCount(),
	}
}

// Fingerprint returns the hex fingerprint identifying this family member
// together with the generation options that produced it. Equal
// fingerprints guarantee bit-identical artefacts in every format.
func (m *Machine) Fingerprint() string { return m.fp.String() }

// FaultTolerance returns the model's tolerated fault count and true when
// the model exposes one (e.g. the commit protocol's f = ⌊(r−1)/3⌋).
func (m *Machine) FaultTolerance() (int, bool) {
	if ft, ok := m.model.(interface{ FaultTolerance() int }); ok {
		return ft.FaultTolerance(), true
	}
	return 0, false
}

// Render produces the artefact for one machine-artefact format. EFSM
// formats generalise the whole family rather than one member: asking for
// one here is ErrUnknownFormat; request those through Client.Render.
// Rendering is not memoised here — use Client.Render for the cached path.
func (m *Machine) Render(format string, opts ...RenderOption) (Result, error) {
	out := Result{Model: m.name, Param: m.param, Format: format, Fingerprint: m.fp.String()}
	if render.IsEFSMFormat(format) {
		out.Err = wrapSentinel(ErrUnknownFormat, fmt.Errorf(
			"asagen: format %q generalises the model family, not one machine; request it through Client.Render", format))
		return out, out.Err
	}
	f, err := render.New(format)
	if err != nil {
		out.Err = mapErr(err)
		return out, out.Err
	}
	var art render.Artifact
	if format == "go" {
		var goPackage string
		for _, opt := range opts {
			if opt.goPackage != "" {
				goPackage = opt.goPackage
			}
		}
		art, err = render.GoSource(m.machine, goPackage)
	} else {
		art, err = f.Render(m.machine)
	}
	if err != nil {
		out.Err = wrapSentinel(ErrRender, err)
		return out, out.Err
	}
	sum := sha256.Sum256(art.Data)
	out.MediaType = art.MediaType
	out.Ext = art.Ext
	out.Data = art.Data
	out.ContentHash = hex.EncodeToString(sum[:])
	return out, nil
}

// NewInstance returns a running occurrence of the machine, positioned at
// its start state. onAction, when non-nil, receives the actions performed
// on each transition (e.g. "->vote"), in order.
func (m *Machine) NewInstance(onAction func(action string)) (*Instance, error) {
	var handler runtime.ActionHandler
	if onAction != nil {
		handler = runtime.ActionFunc(onAction)
	}
	inst, err := runtime.New(m.machine, handler)
	if err != nil {
		return nil, err
	}
	return &Instance{inst: inst}, nil
}

// Instance executes a generated machine by interpretation: incoming
// messages drive it along its transitions (the paper's dynamic-deployment
// path, §4.2).
type Instance struct {
	inst *runtime.Instance
}

// Deliver feeds one message to the machine and returns the actions
// performed (already dispatched to the action handler, in order). A
// rejected delivery leaves the state unchanged and returns a typed
// error: *IgnoredError (match with errors.As) when the message is not
// applicable in the current state, ErrFinished (match with errors.Is)
// when the machine has already finished.
func (i *Instance) Deliver(msg string) ([]string, error) {
	actions, err := i.inst.Deliver(msg)
	if err != nil {
		return nil, mapDeliverErr(err)
	}
	return actions, nil
}

// mapDeliverErr lifts runtime delivery failures to the public typed
// errors.
func mapDeliverErr(err error) error {
	var ignored *runtime.IgnoredError
	switch {
	case errors.Is(err, runtime.ErrFinished):
		return wrapSentinel(ErrFinished, err)
	case errors.As(err, &ignored):
		return &IgnoredError{State: ignored.StateName, Message: ignored.Message}
	default:
		return err
	}
}

// StateName returns the name of the current state.
func (i *Instance) StateName() string { return i.inst.StateName() }

// Finished reports whether the machine has reached its finish state.
func (i *Instance) Finished() bool { return i.inst.Finished() }

// Reset returns the machine to its start state.
func (i *Instance) Reset() { i.inst.Reset() }
