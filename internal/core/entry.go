package core

import (
	"context"
	"fmt"
)

// Builder constructs the abstract model for a parameter value.
type Builder func(param int) (Model, error)

// Abstraction returns the EFSM abstraction (§5.3) of the family member for
// the given parameter value: how GeneralizeEFSM coalesces that member's
// generated machine into the parameter-independent EFSM. It builds its own
// model instance rather than taking the one Build returned, which a caller
// may have decorated.
type Abstraction func(param int) (EFSMAbstraction, error)

// Entry describes one model family as the registry holds it: the builder,
// the optional EFSM abstraction, and the metadata commands need to present
// it. It lives here, below both the registry and the spec compiler, so the
// registry can hold entries compiled from spec documents.
type Entry struct {
	// Name is the registry key, e.g. "commit".
	Name string
	// Description is a one-line summary shown in command help.
	Description string
	// ParamName names the model parameter, e.g. "replication factor".
	ParamName string
	// DefaultParam is the parameter used when the caller passes none.
	DefaultParam int
	// SweepParams are representative parameter values for sweep tables and
	// differential tests, in ascending order.
	SweepParams []int
	// Build constructs the abstract model for a parameter value.
	Build Builder
	// Abstraction names how the family generalises to a
	// parameter-independent EFSM, or is nil when the model declares none.
	Abstraction Abstraction
	// Vocabulary names the message vocabulary the generated machines
	// react to, e.g. "commit" for models the version-service runtime can
	// execute. Empty for models with a vocabulary of their own that no
	// runtime layer consumes.
	Vocabulary string
	// Spec optionally carries the declarative source document the entry
	// was compiled from (a spec.Doc), opaque to this package. Layers that
	// replace models in place read it to diff the old and new documents
	// for incremental regeneration. Nil for hand-written models.
	Spec any
}

// Model builds the entry's model, substituting DefaultParam when param <= 0.
func (e Entry) Model(param int) (Model, error) {
	if param <= 0 {
		param = e.DefaultParam
	}
	return e.Build(param)
}

// EFSM generalises the family member for param from a generation of its
// own (GenerateEFSM). The artefact pipeline generalises the member's cached
// machine instead; this is the reference that view is compared against.
func (e Entry) EFSM(ctx context.Context, param int) (*EFSM, error) {
	if e.Abstraction == nil {
		return nil, fmt.Errorf("models: model %q declares no EFSM abstraction", e.Name)
	}
	m, err := e.Build(param)
	if err != nil {
		return nil, err
	}
	abs, err := e.Abstraction(param)
	if err != nil {
		return nil, err
	}
	return GenerateEFSM(ctx, m, abs)
}
