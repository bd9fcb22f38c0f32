package asagen

import (
	"context"
	"errors"
	"fmt"

	"asagen/internal/artifact"
	"asagen/internal/render"
)

// Sentinel errors classifying SDK failures. Every error returned by the
// package matches at most one of these under errors.Is; context
// cancellation surfaces as context.Canceled / context.DeadlineExceeded.
var (
	// ErrUnknownModel reports a model name absent from the registry. The
	// error message names the registered models.
	ErrUnknownModel = errors.New("asagen: unknown model")
	// ErrUnknownFormat reports an artefact format absent from the format
	// table (the error message names the known formats), or an EFSM
	// format asked of Machine.Render, which renders one family member:
	// EFSM formats generalise the family and come from Client.Render.
	ErrUnknownFormat = errors.New("asagen: unknown format")
	// ErrNoEFSM reports an EFSM artefact requested for a model that
	// declares no EFSM generalisation.
	ErrNoEFSM = errors.New("asagen: model declares no EFSM generalisation")
	// ErrRender reports a renderer failure on a well-formed request — a
	// library defect rather than a caller mistake.
	ErrRender = errors.New("asagen: render failed")
	// ErrModelExists reports a RegisterModel call whose spec name is
	// already registered (built-in or dynamic). Unregister the existing
	// model first to replace it.
	ErrModelExists = errors.New("asagen: model already registered")
	// ErrInvalidSpec reports a model spec rejected by compilation. The
	// error message lists every diagnostic with its document path.
	ErrInvalidSpec = errors.New("asagen: invalid model spec")
	// ErrFinished reports a message delivered to an Instance whose
	// machine has already reached its finish state. The state is
	// unchanged; match with errors.Is.
	ErrFinished = errors.New("asagen: machine already finished")
	// ErrBadTrace reports a Check configuration whose trace format,
	// transition pattern or tolerance is invalid. Undecodable trace
	// content is not an error return — it streams as a VerdictMalformed
	// verdict.
	ErrBadTrace = errors.New("asagen: bad trace")
)

// IgnoredError reports a message that is not applicable in the machine's
// current state: the generated model records no transition for it there
// (guard-rejected or out of vocabulary). The delivery left the state
// unchanged. Match with errors.As to recover the state and message.
type IgnoredError struct {
	// State is the machine state at delivery time.
	State string
	// Message is the inapplicable message type.
	Message string
}

func (e *IgnoredError) Error() string {
	return fmt.Sprintf("asagen: message %s not applicable in state %s", e.Message, e.State)
}

// apiError binds an internal error's message to a public sentinel: Error()
// and Unwrap() expose the detailed cause, while errors.Is matches the
// sentinel.
type apiError struct {
	sentinel error
	cause    error
}

func (e *apiError) Error() string { return e.cause.Error() }

func (e *apiError) Is(target error) bool { return target == e.sentinel }

func (e *apiError) Unwrap() error { return e.cause }

// wrapSentinel attaches sentinel to cause, keeping cause's message.
func wrapSentinel(sentinel, cause error) error {
	return &apiError{sentinel: sentinel, cause: cause}
}

// mapErr classifies an internal-layer error under the package's public
// sentinels. Context errors and unclassified errors (e.g. a model rejecting
// its parameter value) pass through unchanged.
func mapErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return err
	case errors.Is(err, artifact.ErrUnknownModel):
		return wrapSentinel(ErrUnknownModel, err)
	case errors.Is(err, artifact.ErrUnknownFormat), errors.Is(err, render.ErrUnknownFormat):
		return wrapSentinel(ErrUnknownFormat, err)
	case errors.Is(err, artifact.ErrNoEFSM):
		return wrapSentinel(ErrNoEFSM, err)
	case errors.Is(err, artifact.ErrRender):
		return wrapSentinel(ErrRender, err)
	default:
		return err
	}
}
