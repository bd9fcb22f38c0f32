// Package render turns abstract machine representations into concrete
// artefacts: textual state catalogues (Fig. 14), state-transition diagrams
// in Graphviz DOT and an XML interchange format (Fig. 15), generated Go
// source implementing the protocol (Fig. 16), and markdown documentation.
//
// Generative code is notoriously hard to read; following §4.1 the package
// restricts itself to string manipulation, and writes each artefact in
// frames: straight-line appends to the artefact's bytes, where every run
// of fixed text between two model slots — indentation included — is one
// constant, and a fragment that repeats per message or per state is built
// once per render. The bytes become Artifact.Data as they are. The
// indenting buffer of the paper's Fig. 18 (add, addLn, enterBlock,
// exitBlock) writes the same artefacts piece by piece in the tests, as
// the oracle the frames are held to.
package render

import (
	"fmt"
	"strconv"

	"asagen/internal/core"
)

// table returns the machine's transition table for a renderer, or its
// error naming a reference the machine cannot resolve.
func table(format string, m *core.StateMachine) (*core.Table, error) {
	t, err := m.Table()
	if err != nil {
		return nil, fmt.Errorf("render: %s for %s: %w", format, m.ModelName, err)
	}
	return t, nil
}

// frags holds one fragment per index — per message — built once per
// render: fragment i is data[end[i]:end[i+1]]. A renderer backs it with
// arrays in its own frame and appends to it there, so a machine with few
// messages allocates nothing for it.
type frags struct {
	data []byte
	end  []int
}

func (f *frags) at(i int32) []byte { return f.data[f.end[i]:f.end[i+1]] }

// appendJoined appends the items separated by sep.
func appendJoined(buf []byte, items []string, sep string) []byte {
	for i, it := range items {
		if i > 0 {
			buf = append(buf, sep...)
		}
		buf = append(buf, it...)
	}
	return buf
}

// Runs of one byte that appendRepeat copies from.
const (
	dashes    = "----------------------------------------------------------------"
	blanks    = "                                                                "
	backticks = "````````````````"
)

// appendRepeat appends n bytes of run, which is one byte repeated.
func appendRepeat(buf []byte, run string, n int) []byte {
	for ; n > len(run); n -= len(run) {
		buf = append(buf, run...)
	}
	return append(buf, run[:max(n, 0)]...)
}

// appendInt appends n in decimal.
func appendInt(buf []byte, n int) []byte { return strconv.AppendInt(buf, int64(n), 10) }
