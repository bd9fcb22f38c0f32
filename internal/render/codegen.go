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

// frags holds one fragment per index — per message, or per distinct
// annotation line — built once per render: fragment i is
// data[end[i]:end[i+1]]. For messages a renderer backs it with arrays in
// its own frame and appends to it there, so a machine with few messages
// allocates nothing for it.
type frags struct {
	data []byte
	end  []int
}

func (f *frags) at(i int32) []byte { return f.data[f.end[i]:f.end[i+1]] }

// lineFrags frames each of the table's distinct annotation lines once, in
// the order of Table.Lines, so that a writer that gates or escapes a line
// copies fragment id into every state whose Table.LineIDs name it; size is
// about the bytes of the frames.
func lineFrags(t *core.Table, size int, frame func(buf []byte, line string) []byte) frags {
	f := frags{make([]byte, 0, size), make([]int, 1, len(t.Lines())+1)}
	for _, line := range t.Lines() {
		f.data = frame(f.data, line)
		f.end = append(f.end, len(f.data))
	}
	return f
}

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

// intLen returns how many bytes appendInt writes for n.
func intLen(n int) int {
	l := 1
	if n < 0 {
		l, n = 2, -n
	}
	for ; n >= 10; n /= 10 {
		l++
	}
	return l
}

// guardLen returns the length of g.String() for a guard that is not
// unconditional; a few bytes more when one bound is symbolic and the other
// a number that reads the same.
func guardLen(g core.Guard) int {
	lo, hi := len(g.MinSym), len(g.MaxSym)
	if lo == 0 {
		lo = intLen(g.Min)
	}
	if hi == 0 {
		hi = intLen(g.Max)
	}
	if g.MinSym == g.MaxSym && (g.MinSym != "" || g.Min == g.Max) {
		return len(g.Variable) + 4 + lo // "v == lo"
	}
	return lo + len(g.Variable) + hi + 8 // "lo <= v <= hi"
}

// opLen returns the length of op.String().
func opLen(op core.VarOp) int {
	if op.Delta == 1 || op.Delta == -1 {
		return len(op.Variable) + 2 // "v++", "v--"
	}
	return len(op.Variable) + 4 + intLen(op.Delta) // "v += d"
}

// joinedLen returns how many bytes appendJoined writes for items and a
// separator of sep bytes, each item framed by frame bytes more.
func joinedLen(items []string, sep, frame int) int {
	n := max(len(items)-1, 0) * sep
	for _, it := range items {
		n += len(it) + frame
	}
	return n
}
