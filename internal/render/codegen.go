// Package render turns abstract machine representations into concrete
// artefacts: textual state catalogues (Fig. 14), state-transition diagrams
// in Graphviz DOT and an XML interchange format (Fig. 15), generated Go
// source implementing the protocol (Fig. 16), and markdown documentation.
//
// Generative code is notoriously hard to read; following §4.1 the package
// restricts itself to string manipulation structured by a small set of
// buffer utilities (add, addLn, enterBlock, exitBlock — Fig. 18) that keep
// both the generative and the generated code legible. Every renderer
// writes its artefact once, in its final form, into one Buffer whose bytes
// become Artifact.Data.
package render

import (
	"fmt"

	"asagen/internal/core"
)

// Buffer accumulates generated text with managed indentation, providing the
// utility methods of the paper's Fig. 18.
type Buffer struct {
	buf    []byte
	indent int
	// IndentWith is the string emitted per indentation level; tab when
	// empty.
	IndentWith  string
	atLineStart bool
}

// NewBuffer returns an empty buffer at indentation level zero.
func NewBuffer() *Buffer {
	return &Buffer{atLineStart: true}
}

// newBuffer returns a buffer with room for size bytes: an artefact whose
// size was estimated well is written without regrowing, and its bytes
// become Artifact.Data as they are.
func newBuffer(size int) *Buffer {
	return &Buffer{buf: make([]byte, 0, size), atLineStart: true}
}

// artifact hands the accumulated bytes over as the artefact's data; the
// buffer is not written to again.
func (b *Buffer) artifact(format, mediaType, ext string) Artifact {
	return Artifact{Format: format, MediaType: mediaType, Ext: ext, Data: b.buf}
}

// table returns the machine's transition table for a renderer, or its
// error naming a reference the machine cannot resolve.
func table(format string, m *core.StateMachine) (*core.Table, error) {
	t, err := m.Table()
	if err != nil {
		return nil, fmt.Errorf("render: %s for %s: %w", format, m.ModelName, err)
	}
	return t, nil
}

// appendIndent appends the current indentation to buf and returns it; the
// line is no longer at its start.
func (b *Buffer) appendIndent(buf []byte) []byte {
	unit := b.IndentWith
	if unit == "" {
		unit = "\t"
	}
	for i := 0; i < b.indent; i++ {
		buf = append(buf, unit...)
	}
	b.atLineStart = false
	return buf
}

// Add appends the items to the output buffer. It appends into a local
// slice and stores it back once, not once per item.
func (b *Buffer) Add(items ...string) {
	buf := b.buf
	for _, it := range items {
		if it == "" {
			continue
		}
		if b.atLineStart {
			buf = b.appendIndent(buf)
		}
		buf = append(buf, it...)
	}
	b.buf = buf
}

// AddLn appends the items to the output buffer followed by a newline.
func (b *Buffer) AddLn(items ...string) {
	b.Add(items...)
	b.BlankLn()
}

// BlankLn emits an empty line.
func (b *Buffer) BlankLn() {
	b.buf = append(b.buf, '\n')
	b.atLineStart = true
}

// EnterBlock opens a new brace block and increases the indent level.
func (b *Buffer) EnterBlock(header ...string) {
	b.Add(header...)
	if len(header) > 0 {
		b.Add(" ")
	}
	b.AddLn("{")
	b.IncreaseIndent()
}

// ExitBlock closes the current brace block and decreases the indent level.
func (b *Buffer) ExitBlock(trailer ...string) {
	b.DecreaseIndent()
	b.Add("}")
	b.AddLn(trailer...)
}

// IncreaseIndent increases the indentation level.
func (b *Buffer) IncreaseIndent() { b.indent++ }

// DecreaseIndent decreases the indentation level; it saturates at zero.
func (b *Buffer) DecreaseIndent() {
	if b.indent > 0 {
		b.indent--
	}
}

// ResetIndent returns the indentation level to zero.
func (b *Buffer) ResetIndent() { b.indent = 0 }

// Len returns the number of bytes accumulated.
func (b *Buffer) Len() int { return len(b.buf) }

// String returns the accumulated output.
func (b *Buffer) String() string { return string(b.buf) }
