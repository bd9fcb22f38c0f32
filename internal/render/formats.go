package render

import (
	"errors"
	"fmt"

	"asagen/internal/core"
)

// The paper generates "various artefacts ... including diagrams,
// source-level protocol implementations and documentation" (§1) from one
// machine. Each artefact class is a row of the format table below: a name,
// the metadata a consumer needs to store or serve the bytes, and the
// function that writes them. Commands, the artefact pipeline and the serve
// tier select and enumerate formats through it.

// Artifact is one rendered artefact: the bytes plus the metadata consumers
// need to store or serve it.
type Artifact struct {
	// Format is the name of the format that produced it.
	Format string
	// MediaType is the artefact's MIME type, for HTTP responses.
	MediaType string
	// Ext is the suggested filename extension, including the dot.
	Ext string
	// Data is the rendered content.
	Data []byte
}

// String returns the artefact content as a string.
func (a Artifact) String() string { return string(a.Data) }

// ErrUnknownFormat reports a format name absent from the table.
var ErrUnknownFormat = errors.New("render: unknown format")

// Format is one row of the format table. A machine format writes a
// concrete machine; an EFSM format writes the parameter-independent EFSM
// generalisation (§5.3). Exactly one of machine and efsm is set.
type Format struct {
	name, mediaType, ext string
	machine              func(*core.StateMachine) ([]byte, error)
	efsm                 func(*core.EFSM) []byte
}

// formats is every format, sorted by name.
var formats = [...]Format{
	{"doc", "text/markdown; charset=utf-8", ".md", renderDoc, nil},
	{"dot", "text/vnd.graphviz; charset=utf-8", ".dot", renderDot, nil},
	{"efsm", "text/plain; charset=utf-8", ".txt", nil, efsmText},
	{"efsm-dot", "text/vnd.graphviz; charset=utf-8", ".dot", nil, efsmDot},
	{"go", "text/x-go; charset=utf-8", ".go", func(m *core.StateMachine) ([]byte, error) { return goSource(m, "") }, nil},
	{"text", "text/plain; charset=utf-8", ".txt", renderText, nil},
	{"xml", "application/xml; charset=utf-8", ".xml", renderXML, nil},
}

// lookup returns the named row, nil when there is none. Over seven names
// a scan is quicker than a map, and the row is not copied.
func lookup(name string) *Format {
	for i := range formats {
		if formats[i].name == name {
			return &formats[i]
		}
	}
	return nil
}

// New returns the machine format of that name.
func New(name string) (*Format, error) {
	f := lookup(name)
	switch {
	case f == nil:
		return nil, fmt.Errorf("%w: %q (known: %v)", ErrUnknownFormat, name, Formats())
	case f.machine == nil:
		return nil, fmt.Errorf("render: format %q renders EFSMs; use NewEFSM", name)
	}
	return f, nil
}

// NewEFSM returns the EFSM format of that name.
func NewEFSM(name string) (*Format, error) {
	f := lookup(name)
	switch {
	case f == nil:
		return nil, fmt.Errorf("%w: %q (known: %v)", ErrUnknownFormat, name, Formats())
	case f.efsm == nil:
		return nil, fmt.Errorf("render: format %q renders machines; use New", name)
	}
	return f, nil
}

// Render writes the machine in a machine format (see New).
func (f *Format) Render(m *core.StateMachine) (Artifact, error) {
	return f.artifact(f.machine(m))
}

// RenderEFSM writes the EFSM in an EFSM format (see NewEFSM).
func (f *Format) RenderEFSM(e *core.EFSM) (Artifact, error) {
	return f.artifact(f.efsm(e), nil)
}

// artifact labels the bytes a format wrote; a failed render has none.
func (f *Format) artifact(data []byte, err error) (Artifact, error) {
	if err != nil {
		return Artifact{}, err
	}
	return Artifact{Format: f.name, MediaType: f.mediaType, Ext: f.ext, Data: data}, nil
}

// Known reports whether the format name is in the table.
func Known(name string) bool { return lookup(name) != nil }

// IsEFSMFormat reports whether the format renders the EFSM generalisation
// rather than a concrete machine.
func IsEFSMFormat(name string) bool {
	f := lookup(name)
	return f != nil && f.efsm != nil
}

// Formats returns every format name, sorted.
func Formats() []string {
	names := make([]string, len(formats))
	for i := range formats {
		names[i] = formats[i].name
	}
	return names
}
