package render

import "asagen/internal/core"

// EFSM renderer types: the §5.3 artefact classes as registry formats. The
// underlying string renderers (RenderEFSMText, RenderEFSMDot) remain
// exported for direct use.

// EFSMTextRenderer renders an EFSM as the textual guarded-transition
// catalogue.
type EFSMTextRenderer struct{}

// NewEFSMTextRenderer returns the textual EFSM renderer.
func NewEFSMTextRenderer() *EFSMTextRenderer { return &EFSMTextRenderer{} }

// Name implements EFSMRenderer.
func (r *EFSMTextRenderer) Name() string { return "efsm" }

// RenderEFSM implements EFSMRenderer.
func (r *EFSMTextRenderer) RenderEFSM(e *core.EFSM) (Artifact, error) {
	return Artifact{Format: r.Name(), MediaType: "text/plain; charset=utf-8", Ext: ".txt", Data: efsmText(e)}, nil
}

// EFSMDotRenderer renders an EFSM as a Graphviz DOT diagram with
// guard/update labels.
type EFSMDotRenderer struct{}

// NewEFSMDotRenderer returns the DOT EFSM renderer.
func NewEFSMDotRenderer() *EFSMDotRenderer { return &EFSMDotRenderer{} }

// Name implements EFSMRenderer.
func (r *EFSMDotRenderer) Name() string { return "efsm-dot" }

// RenderEFSM implements EFSMRenderer.
func (r *EFSMDotRenderer) RenderEFSM(e *core.EFSM) (Artifact, error) {
	return Artifact{Format: r.Name(), MediaType: "text/vnd.graphviz; charset=utf-8", Ext: ".dot", Data: efsmDot(e)}, nil
}
