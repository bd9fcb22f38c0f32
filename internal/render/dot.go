package render

import (
	"strings"

	"asagen/internal/core"
)

// DotRenderer renders a generated machine as a Graphviz DOT state-transition
// diagram (the Fig. 15 artefact; the paper targeted a proprietary
// diagramming tool, this repository targets dot and the XML renderer).
// Simple transitions are drawn as thin edges; phase transitions — those
// performing actions — as bold edges, matching the Fig. 8 convention.
type DotRenderer struct {
	// RankDir sets the graph direction; "LR" when empty.
	RankDir string
	// IncludeActions labels phase-transition edges with their actions.
	IncludeActions bool
}

// NewDotRenderer returns a renderer with action labels enabled.
func NewDotRenderer() *DotRenderer {
	return &DotRenderer{IncludeActions: true}
}

// Name implements Renderer.
func (r *DotRenderer) Name() string { return "dot" }

// Render produces the DOT document.
func (r *DotRenderer) Render(m *core.StateMachine) (Artifact, error) {
	t, err := table(r.Name(), m)
	if err != nil {
		return Artifact{}, err
	}
	z := t.Sizes
	b := newBuffer(256 + 6*z.States + z.StateNames +
		25*z.Edges + z.EdgeSources + z.EdgeTargets + z.EdgeMessages + 16*z.Actions + z.ActionLen)
	rank := r.RankDir
	if rank == "" {
		rank = "LR"
	}
	b.dotOpen(m.ModelName, rank)
	// Each state name is escaped once, and one label head is made per
	// message, not one per edge.
	names := make([]string, len(m.States))
	for i, s := range m.States {
		names[i] = escapeDot(s.Name)
		b.dotNode(names[i], s == m.Start, s.Final)
	}
	heads := make([]string, len(m.Messages))
	for i, msg := range m.Messages {
		heads[i] = "<-" + strings.ToLower(msg)
	}
	var label []string
	for i := range m.States {
		for _, e := range t.Out(i) {
			label = append(label[:0], heads[e.Msg])
			if r.IncludeActions {
				label = append(label, e.Actions...)
			}
			b.dotEdge(names[i], names[e.To], label, e.IsPhase())
		}
	}
	b.ExitBlock()
	return b.artifact(r.Name(), "text/vnd.graphviz; charset=utf-8", ".dot"), nil
}

// RenderEFSMDot renders an EFSM as a DOT diagram with guard/update labels.
func RenderEFSMDot(e *core.EFSM) string { return efsmDot(e).String() }

func efsmDot(e *core.EFSM) *Buffer {
	b := NewBuffer()
	b.dotOpen(e.ModelName+"-efsm", "LR")
	for _, s := range e.States {
		b.dotNode(escapeDot(s.Name), s == e.Start, s.Final)
	}
	for _, s := range e.States {
		for _, tr := range s.Transitions {
			label := []string{"<-" + strings.ToLower(tr.Message)}
			if !tr.Guard.Unconditional() {
				label = append(label, "["+tr.Guard.String()+"]")
			}
			for _, op := range tr.VarOps {
				label = append(label, op.String())
			}
			b.dotEdge(escapeDot(s.Name), escapeDot(tr.Target.Name), append(label, tr.Actions...), len(tr.Actions) > 0)
		}
	}
	b.ExitBlock()
	return b
}

func (b *Buffer) dotOpen(name, rankDir string) {
	b.IndentWith = "  "
	b.EnterBlock("digraph \"" + escapeDot(name) + "\"")
	b.AddLn("rankdir=", rankDir, ";")
	b.AddLn("node [shape=box, fontname=\"Helvetica\"];")
}

// dotNode writes one node; name is escaped already.
func (b *Buffer) dotNode(name string, start, final bool) {
	b.Add("\"", name, "\"")
	switch {
	case start:
		b.Add(" [style=filled, fillcolor=lightblue]")
	case final:
		b.Add(" [shape=doublecircle]")
	}
	b.AddLn(";")
}

// dotEdge writes one edge between two escaped names, its label parts on
// lines of their own; bold marks a phase transition with a thick arrow.
func (b *Buffer) dotEdge(from, to string, label []string, bold bool) {
	b.Add("\"", from, "\" -> \"", to, "\" [label=\"")
	for i, part := range label {
		if i > 0 {
			b.Add("\\n")
		}
		b.Add(escapeDot(part))
	}
	b.Add("\"")
	if bold {
		b.Add(", penwidth=2.2")
	}
	b.AddLn("];")
}

// escapeDot escapes a string for a double-quoted DOT identifier; a
// backslash-n in it stays the line break DOT reads it as. A string with
// neither a backslash nor a quote is returned as it is.
func escapeDot(s string) string {
	if strings.IndexAny(s, `\"`) < 0 {
		return s
	}
	s = strings.ReplaceAll(s, "\\", "\\\\")
	s = strings.ReplaceAll(s, "\\\\n", "\\n")
	return strings.ReplaceAll(s, "\"", "\\\"")
}
