package render

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"go/doc/comment"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"

	"asagen/internal/core"
)

// The renderers write each artefact in frames. The writers here are the
// piecewise form they replaced: the paper's Fig. 18 buffer, one Add per
// token and the indentation kept by the buffer, laid out the way a reader
// of the format would say it. They are the oracle the frames are held to
// (TestRenderersMatchOracle, FuzzRenderersMatchOracle); the escapers and
// gates are the product's own, each held to its reference elsewhere
// (byteclass_test.go, gate_test.go).

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

// Add appends the items to the output buffer; an empty item writes
// nothing, not even the indentation.
func (b *Buffer) Add(items ...string) {
	for _, it := range items {
		if it == "" {
			continue
		}
		if b.atLineStart {
			b.buf = b.appendIndent(b.buf)
		}
		b.buf = append(b.buf, it...)
	}
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

// underlined writes a heading and a rule of dashes as long under it.
func (b *Buffer) underlined(label, name string) {
	b.AddLn(label, name)
	b.buf = b.appendIndent(b.buf)
	for range len(label) + len(name) {
		b.buf = append(b.buf, '-')
	}
	b.BlankLn()
}

// oracle renders m or e as the piecewise writer of the format does; the
// go format writes package pkg.
func oracle(format string, m *core.StateMachine, e *core.EFSM, pkg string) ([]byte, error) {
	switch format {
	case "text":
		return pieceText(m)
	case "dot":
		return pieceDot(m)
	case "xml":
		return pieceXML(m)
	case "go":
		return pieceGo(m, pkg)
	case "doc":
		return pieceDoc(m)
	case "efsm":
		return pieceEFSMText(e).buf, nil
	case "efsm-dot":
		return pieceEFSMDot(e).buf, nil
	}
	panic("no oracle for " + format)
}

func pieceText(m *core.StateMachine) ([]byte, error) {
	t, err := table("text", m)
	if err != nil {
		return nil, err
	}
	b := NewBuffer()
	b.AddLn("state machine: ", m.ModelName)
	b.AddLn("parameter: ", strconv.Itoa(m.Parameter))
	b.AddLn("messages: ", strings.Join(m.Messages, ", "))
	b.AddLn("states: ", strconv.Itoa(len(m.States)))
	b.BlankLn()
	for i, s := range m.States {
		pieceTextState(b, m, s, t.Out(i))
	}
	return b.buf, nil
}

func pieceTextState(b *Buffer, m *core.StateMachine, s *core.State, out []core.Edge) {
	b.underlined("state: ", s.Name)
	if len(s.Annotations) > 0 {
		b.AddLn("Description:")
		b.BlankLn()
		for _, line := range s.Annotations {
			b.AddLn(line)
		}
		b.BlankLn()
	}
	b.AddLn("Transitions:")
	b.BlankLn()
	if len(s.Transitions) == 0 {
		b.IncreaseIndent()
		if s.Final {
			b.AddLn("(terminal state)")
		} else {
			b.AddLn("(none)")
		}
		b.DecreaseIndent()
		b.BlankLn()
		return
	}
	for _, e := range out {
		b.IncreaseIndent()
		b.AddLn("message: ", m.Messages[e.Msg])
		b.IncreaseIndent()
		for _, a := range e.Actions {
			b.AddLn("action: ", a)
		}
		b.AddLn("transition to: ", e.Target.Name)
		b.DecreaseIndent()
		b.DecreaseIndent()
		b.BlankLn()
	}
}

func pieceEFSMText(e *core.EFSM) *Buffer {
	b := NewBuffer()
	b.AddLn("extended state machine: ", e.ModelName)
	b.AddLn("generalised from parameter: ", strconv.Itoa(e.Parameter))
	b.AddLn("variables: ", strings.Join(e.Variables, ", "))
	b.AddLn("states: ", strconv.Itoa(len(e.States)))
	b.BlankLn()
	for _, s := range e.States {
		b.underlined("state: ", s.Name)
		if s.Final {
			b.IncreaseIndent()
			b.AddLn("(terminal state)")
			b.DecreaseIndent()
			b.BlankLn()
			continue
		}
		for _, tr := range s.Transitions {
			b.IncreaseIndent()
			b.AddLn("message: ", tr.Message)
			b.IncreaseIndent()
			if !tr.Guard.Unconditional() {
				b.AddLn("guard: ", tr.Guard.String())
			}
			for _, op := range tr.VarOps {
				b.AddLn("update: ", op.String())
			}
			for _, a := range tr.Actions {
				b.AddLn("action: ", a)
			}
			b.AddLn("transition to: ", tr.Target.Name)
			b.DecreaseIndent()
			b.DecreaseIndent()
			b.BlankLn()
		}
	}
	return b
}

func pieceDot(m *core.StateMachine) ([]byte, error) {
	t, err := table("dot", m)
	if err != nil {
		return nil, err
	}
	b := NewBuffer()
	b.dotOpen(m.ModelName)
	for _, s := range m.States {
		b.dotNode(escapeDot(s.Name), s == m.Start, s.Final)
	}
	for i, s := range m.States {
		for _, e := range t.Out(i) {
			label := append([]string{"<-" + strings.ToLower(m.Messages[e.Msg])}, e.Actions...)
			b.dotEdge(escapeDot(s.Name), escapeDot(e.Target.Name), label, e.IsPhase())
		}
	}
	b.ExitBlock()
	return b.buf, nil
}

func pieceEFSMDot(e *core.EFSM) *Buffer {
	b := NewBuffer()
	b.dotOpen(e.ModelName + "-efsm")
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

func (b *Buffer) dotOpen(name string) {
	b.IndentWith = "  "
	b.EnterBlock("digraph \"" + escapeDot(name) + "\"")
	b.AddLn("rankdir=LR;")
	b.AddLn("node [shape=box, fontname=\"Helvetica\"];")
}

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

// xmlPieces writes a document tag by tag, laid out as encoding/xml
// indents one: every start tag on a line of its own, an end tag on its
// own line unless it closes an element without child elements.
type xmlPieces struct {
	*Buffer
	children bool // the open element has a child element
	esc      xmlWriter
}

func (x *xmlPieces) open(name string, attrs ...string) {
	if !x.atLineStart {
		x.BlankLn()
	}
	x.Add("<", name)
	for i := 0; i < len(attrs); i += 2 {
		x.Add(" ", attrs[i], `="`)
		x.text(attrs[i+1])
		x.Add(`"`)
	}
	x.IncreaseIndent()
	x.children = false
}

func (x *xmlPieces) close(name string) {
	x.DecreaseIndent()
	if x.children {
		x.BlankLn()
	}
	x.Add("</", name, ">")
	x.children = true // of the parent, from here on
}

func (x *xmlPieces) leaves(name string, texts []string, omitEmpty bool) {
	for _, t := range texts {
		if t != "" || !omitEmpty {
			x.open(name)
			x.Add(">")
			x.text(t)
			x.close(name)
		}
	}
}

func (x *xmlPieces) text(s string) { x.buf = x.esc.text(x.buf, s) }

func pieceXML(m *core.StateMachine) ([]byte, error) {
	t, err := table("xml", m)
	if err != nil {
		return nil, err
	}
	x := &xmlPieces{Buffer: NewBuffer()}
	x.IndentWith = "  "
	ids := make([]string, len(m.States))
	for i := range ids {
		ids[i] = fmt.Sprintf("s%d", i)
	}
	x.buf = append(x.buf, xml.Header...)
	x.open("stateMachineDiagram", "model", m.ModelName, "parameter", strconv.Itoa(m.Parameter))
	x.Add(">")
	x.open("messages")
	x.Add(">")
	x.leaves("message", m.Messages, false)
	x.close("messages")
	x.open("states")
	x.Add(">")
	for i, s := range m.States {
		x.open("state", "id", ids[i], "name", s.Name)
		if s == m.Start {
			x.Add(` start="true"`)
		}
		if s.Final {
			x.Add(` final="true"`)
		}
		x.Add(">")
		x.leaves("annotation", s.Annotations, true)
		x.close("state")
	}
	x.close("states")
	x.open("transitions")
	x.Add(">")
	for i := range m.States {
		for _, e := range t.Out(i) {
			x.open("transition", "from", ids[i], "to", ids[e.To], "message", m.Messages[e.Msg])
			if e.IsPhase() {
				x.Add(` phase="true"`)
			}
			x.Add(">")
			x.leaves("action", e.Actions, true)
			x.close("transition")
		}
	}
	x.close("transitions")
	x.close("stateMachineDiagram")
	x.BlankLn()
	return x.buf, nil
}

func pieceDoc(m *core.StateMachine) ([]byte, error) {
	t, err := table("doc", m)
	if err != nil {
		return nil, err
	}
	b := NewBuffer()
	b.AddLn("# State machine ", pieceCode(m.ModelName, false), " (parameter ", strconv.Itoa(m.Parameter), ")")
	b.BlankLn()
	b.AddLn("Generated from the abstract model; do not edit.")
	b.BlankLn()
	b.AddLn("| Property | Value |")
	b.AddLn("|---|---|")
	b.AddLn("| Model | ", pieceCode(m.ModelName, true), " |")
	b.AddLn("| Parameter | ", strconv.Itoa(m.Parameter), " |")
	b.Add("| Messages | ")
	b.codeList(m.Messages, true)
	b.AddLn(" |")
	b.AddLn("| States (raw) | ", strconv.Itoa(m.Stats.InitialStates), " |")
	b.AddLn("| States (reachable) | ", strconv.Itoa(m.Stats.ReachableStates), " |")
	b.AddLn("| States (merged) | ", strconv.Itoa(m.Stats.FinalStates), " |")
	b.AddLn("| Transitions | ", strconv.Itoa(m.TransitionCount()), " |")
	b.AddLn("| Start state | ", pieceCode(m.Start.Name, true), " |")
	if m.Finish != nil {
		b.AddLn("| Finish state | ", pieceCode(m.Finish.Name, true), " |")
	}
	b.BlankLn()
	b.AddLn("Component encoding of state names: ", pieceCode(componentList(m), false), ".")
	b.BlankLn()

	b.AddLn("## States")
	b.BlankLn()
	for i, s := range m.States {
		b.AddLn("### ", pieceCode(s.Name, false))
		b.BlankLn()
		if len(s.MergedNames) > 1 {
			b.Add("Combines equivalent states: ")
			b.codeList(s.MergedNames, false)
			b.AddLn(".")
			b.BlankLn()
		}
		for _, line := range s.Annotations {
			b.AddLn(line, "  ") // two-space markdown line break
		}
		if len(s.Annotations) > 0 {
			b.BlankLn()
		}
		if len(s.Transitions) == 0 {
			if s.Final {
				b.AddLn("_Terminal state._")
			} else {
				b.AddLn("_No outgoing transitions._")
			}
			b.BlankLn()
			continue
		}
		b.AddLn("| Message | Actions | Next state |")
		b.AddLn("|---|---|---|")
		for _, e := range t.Out(i) {
			b.Add("| ", pieceCode(m.Messages[e.Msg], true), " | ")
			if len(e.Actions) == 0 {
				b.Add("—")
			}
			b.codeList(e.Actions, true)
			b.AddLn(" | ", pieceCode(e.Target.Name, true), " |")
		}
		b.BlankLn()
	}
	return b.buf, nil
}

// codeList writes the items as code spans separated by commas.
func (b *Buffer) codeList(items []string, cell bool) {
	for i, it := range items {
		if i > 0 {
			b.Add(", ")
		}
		b.Add(pieceCode(it, cell))
	}
}

// pieceCode is text as a markdown code span: a fence one backtick longer
// than the longest run of backticks in it, a blank inside each fence where
// the text starts or ends with a backtick or both starts and ends with a
// blank (a reader strips one from each end), and, in a table cell, every
// '|' escaped.
func pieceCode(text string, cell bool) string {
	longest, run := 0, 0
	for _, c := range text {
		if c == '`' {
			run++
			longest = max(longest, run)
		} else {
			run = 0
		}
	}
	fence := strings.Repeat("`", longest+1)
	pad := ""
	if strings.HasPrefix(text, "`") || strings.HasSuffix(text, "`") ||
		len(text) > 1 && text[0] == ' ' && text[len(text)-1] == ' ' && strings.Trim(text, " ") != "" {
		pad = " "
	}
	if cell {
		text = strings.ReplaceAll(text, "|", `\|`)
	}
	return fence + pad + text + pad + fence
}

// goPieces is goWriter writing piece by piece.
type goPieces struct {
	*Buffer
	table   *core.Table
	consts  []string
	methods map[string]string
	names   GoNames
	fault   error
}

// pieceGo returns the source written as far as the gate let it, with the
// gate's first refusal: the frames must agree on both.
func pieceGo(m *core.StateMachine, pkg string) ([]byte, error) {
	if m.Start == nil || len(m.States) == 0 {
		return nil, fmt.Errorf("render: go source: machine has no states")
	}
	if pkg == "" {
		pkg = defaultPackageName(m)
	}
	param := strconv.Itoa(m.Parameter)
	t, err := m.Table()
	g := &goPieces{
		Buffer:  NewBuffer(),
		table:   t,
		consts:  make([]string, len(m.States)),
		methods: map[string]string{},
		names:   GoNames{},
	}
	g.fail(err)
	g.fail(g.names.Declare("package name", "package ", pkg, pkg))
	for i, s := range m.States {
		g.consts[i] = pieceStateConst(s)
		g.fail(g.names.Declare("state", "", g.consts[i], s.Name))
	}
	var actions []string
	for i := range m.States {
		for _, e := range t.Out(i) {
			for _, a := range e.Actions {
				if _, seen := g.methods[a]; !seen {
					g.methods[a] = DefaultActionMethod(a)
					g.fail(g.names.Declare("action", "Actions.", g.methods[a], a))
					actions = append(actions, a)
				}
			}
		}
	}

	g.comment("Code generated by asagen fsmgen (model ", m.ModelName, ", parameter ", param, "). DO NOT EDIT.")
	g.BlankLn()
	g.docComment("Package "+pkg+" is a generated state-machine implementation of the",
		m.ModelName+" protocol for parameter "+param+".")
	g.AddLn("package ", pkg)
	g.BlankLn()
	g.docComment("State enumerates the machine states. State names encode the values of",
		"the model's state components: "+componentList(m)+".")
	g.AddLn("type State int")
	g.BlankLn()
	g.emitStates(m.States)
	g.emitActions(actions)
	g.emitMachine(m)
	g.emitHandlers(m)

	if g.fault != nil {
		return g.buf, fmt.Errorf("render: go source for %s: %w", m.ModelName, g.fault)
	}
	return g.buf, nil
}

func (g *goPieces) fail(err error) {
	if err != nil && g.fault == nil {
		g.fault = err
	}
}

func (g *goPieces) ref(pos int) string {
	if pos < 0 {
		return ""
	}
	return g.consts[pos]
}

func (g *goPieces) comment(text ...string) {
	g.check(text)
	g.Add("// ")
	g.Add(text...)
	g.buf = bytes.TrimRightFunc(g.buf, unicode.IsSpace)
	g.BlankLn()
}

func (g *goPieces) check(text []string) {
	for _, t := range text {
		g.fail(CommentText(t))
	}
}

func (g *goPieces) docComment(lines ...string) {
	g.check(lines)
	var p comment.Parser
	var pr comment.Printer
	out := strings.TrimSuffix(string(pr.Comment(p.Parse(strings.Join(lines, "\n")+"\n"))), "\n")
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "\t") {
			g.check([]string{line})
			g.AddLn("//", strings.TrimRightFunc(line, unicode.IsSpace))
		} else {
			g.comment(line)
		}
	}
}

func (g *goPieces) pad(cell, column int) {
	for ; cell <= column; cell++ {
		g.buf = append(g.buf, ' ')
	}
}

func (g *goPieces) emitStates(states []*core.State) {
	g.AddLn("// Machine states. The zero State is invalid.")
	g.AddLn("const (")
	g.IncreaseIndent()
	g.AddLn("StateInvalid State = iota")
	for i, s := range states {
		for _, line := range s.Annotations {
			g.comment(line)
		}
		g.AddLn(g.consts[i])
	}
	g.DecreaseIndent()
	g.AddLn(")")
	g.BlankLn()
	g.AddLn("// stateNames maps states to their encoded names.")
	g.AddLn("var stateNames = map[State]string{")
	g.IncreaseIndent()
	section := func(from, to int) {
		column := 0
		for _, c := range g.consts[from:to] {
			column = max(column, utf8.RuneCountInString(c))
		}
		for i, c := range g.consts[from:to] {
			g.Add(c, ":")
			g.pad(utf8.RuneCountInString(c), column)
			g.buf = strconv.AppendQuote(g.buf, states[from+i].Name)
			g.AddLn(",")
		}
	}
	const smallSize, r = 40, 2.5
	start, lnsum := 0, 0.0
	for i, c := range g.consts {
		size := len(c)
		if i > 0 && (size > smallSize || len(g.consts[i-1]) > smallSize) {
			ratio := float64(size) / math.Exp(lnsum/float64(i-start))
			if r*ratio <= 1 || r <= ratio {
				section(start, i)
				start, lnsum = i, 0
			}
		}
		lnsum += math.Log(float64(size))
	}
	section(start, len(g.consts))
	g.DecreaseIndent()
	g.Add(`}

// String returns the encoded state name.
func (s State) String() string {
	if name, ok := stateNames[s]; ok {
		return name
	}
	return "INVALID"
}

`)
}

func (g *goPieces) emitActions(actions []string) {
	g.AddLn("// Actions receives the outgoing messages sent on phase transitions. The")
	g.AddLn("// embedding application supplies the transport.")
	g.EnterBlock("type Actions interface")
	column := 0
	for _, a := range actions {
		column = max(column, utf8.RuneCountInString(g.methods[a]))
	}
	for _, a := range actions {
		g.Add(g.methods[a], "()")
		g.pad(utf8.RuneCountInString(g.methods[a]), column)
		g.comment(a)
	}
	g.ExitBlock()
	g.BlankLn()
	g.AddLn("// NopActions discards all actions.")
	g.AddLn("type NopActions struct{}")
	g.BlankLn()
	for _, a := range actions {
		g.AddLn("// ", g.methods[a], " implements Actions.")
		g.shortFunc("func (NopActions) "+g.methods[a]+"()", "")
		g.BlankLn()
	}
}

func (g *goPieces) shortFunc(header, stmt string) {
	switch {
	case len(header)+1+len(stmt) > 100:
		g.EnterBlock(header)
		if stmt != "" {
			g.AddLn(stmt)
		}
		g.ExitBlock()
	case stmt == "":
		g.AddLn(header, " {}")
	default:
		g.AddLn(header, " { ", stmt, " }")
	}
}

func (g *goPieces) emitMachine(m *core.StateMachine) {
	g.Add(`// Machine is the generated protocol implementation: the current state plus
// the action sink.
type Machine struct {
	state   State
	actions Actions
}

// New returns a machine positioned at the start state. A nil actions sink
// discards outgoing messages.
func New(actions Actions) *Machine {
	if actions == nil {
		actions = NopActions{}
	}
	return &Machine{state: `, g.ref(g.table.Start), `, actions: actions}
}

// State returns the current machine state.
func (m *Machine) State() State { return m.state }

`)
	if m.Finish != nil {
		g.AddLn("// Finished reports whether the machine has reached the finish state.")
		g.shortFunc("func (m *Machine) Finished() bool", "return m.state == "+g.ref(g.table.Finish))
	} else {
		g.AddLn("// Finished reports whether the machine has reached a terminal state;")
		g.AddLn("// this machine has none.")
		g.AddLn("func (m *Machine) Finished() bool { return false }")
	}
	g.BlankLn()
}

func (g *goPieces) emitHandlers(m *core.StateMachine) {
	receive := make([]string, len(m.Messages))
	next := make([]int, len(m.States))
	for i, msg := range m.Messages {
		receive[i] = ReceiveMethod(msg)
		g.fail(g.names.Declare("message", "Machine.", receive[i], msg))
		g.docComment(receive[i]+" handles an incoming "+msg+" message. States in which",
			"the message is not applicable ignore it.")
		g.EnterBlock("func (m *Machine) ", receive[i], "()")
		g.AddLn("switch m.state {")
		g.BlankLn()
		for p := range m.States {
			out := g.table.Out(p)
			if next[p] == len(out) || out[next[p]].Msg != int32(i) {
				continue
			}
			e := out[next[p]]
			next[p]++
			g.AddLn("case ", g.consts[p], ":")
			g.IncreaseIndent()
			for _, a := range e.Actions {
				g.AddLn("m.actions.", g.methods[a], "()")
			}
			g.AddLn("m.state = ", g.ref(int(e.To)))
			g.DecreaseIndent()
			g.BlankLn()
		}
		g.AddLn("}")
		g.ExitBlock()
		g.BlankLn()
	}
	g.AddLn("// Receive dispatches a message by its model name. It reports whether the")
	g.AddLn("// message type is known to the machine.")
	g.EnterBlock("func (m *Machine) Receive(msg string) bool")
	g.AddLn("switch msg {")
	for i, msg := range m.Messages {
		g.AddLn("case ", strconv.Quote(msg), ":")
		g.AddLn("\tm.", receive[i], "()")
	}
	g.AddLn("default:")
	g.AddLn("\treturn false")
	g.AddLn("}")
	g.AddLn("return true")
	g.ExitBlock()
}

// SweepEFSMs generalises every registry model at every sweep parameter;
// sweep_test.go sets it, as it sets SweepMachines.
var SweepEFSMs func(testing.TB) map[string]*core.EFSM

// oracleMachines are allMachines and the shapes only the frames branch
// on: no transitions at all, a state that is only the finish, empty
// annotation and action strings, and every text byteTexts holds in every
// slot.
func oracleMachines(t testing.TB) map[string]*core.StateMachine {
	out := allMachines(t)
	out["no-transitions"] = handMachine("quiet", []string{"GO", "STOP"}, []string{"a", "b"})
	finish := handMachine("finish", []string{"GO"}, []string{"done"})
	finish.States[0].Final, finish.Finish = true, finish.States[0]
	out["finish-only"] = finish
	empty := handMachine("empty", []string{"GO", "STOP"}, []string{"a", "b"}, "a|GO|b||->x|", "b|STOP|a|", "b|GO|b")
	empty.States[0].Annotations = []string{"", "note", ""}
	empty.States[1].Annotations = []string{""}
	empty.States[1].MergedNames = []string{"b", "", "c"}
	out["empty-strings"] = empty
	out["hostile"] = hostileMachine(byteTexts())
	for i, line := range repeatedLines {
		out[fmt.Sprintf("repeated/%d", i)] = repeatedLineMachine(line, repeatedLines[(i+3)%len(repeatedLines)])
	}
	return out
}

// repeatedLines are annotation lines a writer does more with than copy:
// XML escaping, markdown care, or the Go gate's refusal or trim.
var repeatedLines = []string{
	`a & b < "c" > 'd'`, "bad\xffutf8", "\x01 control",
	"a | b", "`code` and ``more``",
	"trailing blanks \t ", "é and 日本語", "+build linux", "line\rbreak", "",
}

// repeatedLineMachine is four states that carry line again and again,
// among other and a plain line: one distinct line recurs across states
// and within one, and a writer that frames it once copies the frame into
// each.
func repeatedLineMachine(line, other string) *core.StateMachine {
	m := handMachine("repeat", []string{"GO"}, []string{"a", "b", "c", "d"}, "a|GO|b", "b|GO|c|->x", "c|GO|d", "d|GO|a")
	m.States[0].Annotations = []string{"plain", line}
	m.States[1].Annotations = []string{line, other, line}
	m.States[2].Annotations = []string{other}
	m.States[3].Annotations = []string{line, "plain", other, line}
	return m
}

// hostileMachine carries each text as a state name, an annotation, an
// action and, for the first few, a message.
func hostileMachine(texts []string) *core.StateMachine {
	seen := map[string]bool{}
	var names []string
	for _, text := range texts {
		if !seen[text] {
			seen[text] = true
			names = append(names, text)
		}
	}
	m := handMachine(strings.Join(names[:40], ""), names[:16], names)
	for i, s := range m.States {
		next := m.States[(i+1)%len(m.States)]
		msg := m.Messages[i%len(m.Messages)]
		s.Transitions[msg] = &core.Transition{Message: msg, Target: next, Actions: []string{next.Name, s.Name}}
		s.Annotations = []string{names[(i+7)%len(names)], s.Name}
		s.MergedNames = []string{s.Name, names[(i+3)%len(names)]}
		s.Final = i%5 == 4
	}
	m.Finish = m.States[4]
	m.Components = []core.StateComponent{core.NewBoolComponent(names[20]), core.NewBoolComponent(names[33])}
	return m
}

// oracleEFSMs are the sweep's EFSMs and hand-built ones carrying hostile
// text in every slot.
func oracleEFSMs(t testing.TB) map[string]*core.EFSM {
	out := SweepEFSMs(t)
	texts := byteTexts()
	for i := 0; i+4 < len(texts); i += 97 {
		out[fmt.Sprintf("hostile/%d", i)] = hostileEFSM(texts[i], texts[i+1], texts[i+2], texts[i+3], texts[i+4], i)
	}
	out["empty"] = hostileEFSM("", "", "", "", "", 0)
	return out
}

// hostileEFSM is two states, a guarded and an unguarded edge, and a final
// state, written with the given texts.
func hostileEFSM(model, state, msg, variable, action string, n int) *core.EFSM {
	a := &core.EState{Name: state}
	b := &core.EState{Name: state + "'"}
	c := &core.EState{Name: model, Final: true}
	a.Transitions = []*core.ETransition{
		{Message: msg, Guard: core.Guard{Variable: variable, Min: n, Max: n + 2, MaxSym: action}, VarOps: []core.VarOp{{Variable: variable, Delta: 1}}, Actions: []string{action, ""}, Target: b},
		{Message: action, Target: c},
	}
	b.Transitions = []*core.ETransition{
		{Message: msg, Guard: core.Guard{Variable: variable, Min: n, Max: n}, VarOps: []core.VarOp{{Variable: msg, Delta: -1}, {Variable: action, Delta: n}}, Target: a},
	}
	return &core.EFSM{ModelName: model, Parameter: n, Variables: []string{variable, msg}, Messages: []string{msg, action},
		States: []*core.EState{a, b, c}, Start: a, Finish: c}
}

// machineFormats are the formats that write a concrete machine.
var machineFormats = slices.DeleteFunc(Formats(), IsEFSMFormat)

// framed renders m as the format's frames do; the Go writer's bytes come
// back with its refusal, as the oracle's do. The go format writes package
// pkg.
func framed(format string, m *core.StateMachine, pkg string) ([]byte, error) {
	if format == "go" {
		return goSource(m, pkg)
	}
	f, err := New(format)
	if err != nil {
		return nil, err
	}
	art, err := f.Render(m)
	return art.Data, err
}

// agree fails the test unless the frames and the oracle give the same
// bytes and the same error.
func agree(t testing.TB, name string, got, want []byte, gotErr, wantErr error) {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Errorf("%s: err = %v, oracle's %v", name, gotErr, wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: differs from the oracle:\n%s", name, firstDifference(got, want))
	}
}

// TestRenderersMatchOracle: every format writes, byte for byte and error
// for error, what its piecewise writer writes, on the sweep, the edge
// machines and the hostile ones; the go format with a derived and with a
// given package name.
func TestRenderersMatchOracle(t *testing.T) {
	for name, m := range oracleMachines(t) {
		for _, format := range machineFormats {
			got, err := framed(format, m, "")
			want, wantErr := oracle(format, m, nil, "")
			agree(t, name+" "+format, got, want, err, wantErr)
		}
		got, err := framed("go", m, "p")
		want, wantErr := oracle("go", m, nil, "p")
		agree(t, name+" go package p", got, want, err, wantErr)
	}
	for name, e := range oracleEFSMs(t) {
		efsmAgree(t, name, e)
	}
}

// TestRepeatedLinesAreFramedOnce: where one annotation line recurs across
// states, the frames still write the oracle's bytes, the Go gate still
// refuses the first refused line in state order with the error it gave
// when it read every line where it stood, and two machines rendered in
// turn each read a line table of their own: each state's line ids name
// its own annotations, and the table holds each distinct line once.
func TestRepeatedLinesAreFramedOnce(t *testing.T) {
	refusal := map[int]string{
		1: `render: go source for repeat: comment text "bad\xffutf8" contains NUL, a byte order mark or invalid UTF-8`,
		4: `render: go source for repeat: comment text "+build linux" would be a +build line`,
		5: `render: go source for repeat: comment text "line\rbreak" contains a line break`,
		7: `render: go source for repeat: comment text "+build linux" would be a +build line`,
		8: `render: go source for repeat: comment text "line\rbreak" contains a line break`,
	}
	for i, line := range repeatedLines {
		m := repeatedLineMachine(line, repeatedLines[(i+3)%len(repeatedLines)])
		want, ok := refusal[i]
		if !ok {
			want = "<nil>"
		}
		if _, err := goSource(m, ""); fmt.Sprint(err) != want {
			t.Errorf("%q: go source err = %v, want %s", line, err, want)
		}
	}
	a := repeatedLineMachine(repeatedLines[0], repeatedLines[3])
	b := repeatedLineMachine(repeatedLines[4], repeatedLines[6])
	for _, format := range machineFormats {
		for k, m := range []*core.StateMachine{a, b, a} {
			got, err := framed(format, m, "")
			want, wantErr := oracle(format, m, nil, "")
			agree(t, fmt.Sprintf("%s, render %d in turn", format, k), got, want, err, wantErr)
		}
	}
	for _, m := range []*core.StateMachine{a, b} {
		table, err := m.Table()
		if err != nil {
			t.Fatal(err)
		}
		var distinct []string
		for i, s := range m.States {
			ids := table.LineIDs(i)
			if len(ids) != len(s.Annotations) {
				t.Fatalf("state %s: %d line ids for %d annotations", s.Name, len(ids), len(s.Annotations))
			}
			for j, id := range ids {
				if table.Lines()[id] != s.Annotations[j] {
					t.Errorf("state %s line %d: id %d reads %q, want %q", s.Name, j, id, table.Lines()[id], s.Annotations[j])
				}
				if !slices.Contains(distinct, s.Annotations[j]) {
					distinct = append(distinct, s.Annotations[j])
				}
			}
		}
		if got := slices.Sorted(slices.Values(table.Lines())); !slices.Equal(got, slices.Sorted(slices.Values(distinct))) {
			t.Errorf("lines = %q, want each distinct annotation once: %q", table.Lines(), distinct)
		}
	}
}

// efsmAgree checks both EFSM formats against their piecewise writers.
func efsmAgree(t testing.TB, name string, e *core.EFSM) {
	t.Helper()
	for _, format := range []string{"efsm", "efsm-dot"} {
		f, err := NewEFSM(format)
		if err != nil {
			t.Fatal(err)
		}
		art, err := f.RenderEFSM(e)
		want, wantErr := oracle(format, nil, e, "")
		agree(t, name+" "+format, art.Data, want, err, wantErr)
	}
}

// FuzzRenderersMatchOracle: whatever text a hand-built machine or an EFSM
// carries, every format writes what its piecewise writer writes. The
// machine is the one the diagram describes; a diagram no machine could
// have written — a message declared twice or empty — is skipped.
//
//	go test ./internal/render -run='^$' -fuzz=FuzzRenderersMatchOracle -fuzztime=1m
func FuzzRenderersMatchOracle(f *testing.F) {
	f.Add("m", "a", "b", "GO", "STOP", "a note", "->x", "->y", uint8(0))
	f.Add("`m|", "|a`", "``b", "GO|NOW", "x`y", "", "->a|b", "->x`y", uint8(1))
	f.Add(`<m a="1">&amp;`, `"q"\n`, "t\tab", "<GO>", `A\B`, " ", `->"w"&`, "", uint8(2))
	f.Add("bad\xffutf8", " ", "\r\n", "\x00", "é", " x ", "+build x", "\ufeff", uint8(3))
	for _, line := range repeatedLines {
		f.Add("m", "a", "b", "GO", "STOP", line, "->x", "+build y", uint8(4))
	}
	f.Fuzz(func(t *testing.T, model, state1, state2, msg1, msg2, note, act1, act2 string, flags uint8) {
		if msg1 != msg2 && msg1 != "" && msg2 != "" {
			doc := &XMLDiagram{Model: model, Parameter: int(flags), Messages: []string{msg1, msg2},
				States: []XMLState{
					{ID: "s0", Name: state1, Start: true, Annotations: []string{note, ""}},
					{ID: "s1", Name: state2, Final: flags&1 != 0, Annotations: []string{act1}},
				},
				Edges: []XMLTransition{
					{From: "s0", To: "s1", Message: msg1, Actions: []string{act1, "", act2}},
					{From: "s1", To: "s0", Message: msg2, Actions: []string{act2}},
				}}
			if flags&2 != 0 {
				doc.Edges = append(doc.Edges, XMLTransition{From: "s1", To: "s1", Message: msg1})
			}
			if flags&4 != 0 { // the note recurs across the states and within one
				doc.States[1].Annotations = append(doc.States[1].Annotations, note, act2, note)
			}
			m := DiagramMachine(doc)
			for _, format := range machineFormats {
				got, err := framed(format, m, "")
				want, wantErr := oracle(format, m, nil, "")
				agree(t, format, got, want, err, wantErr)
			}
		}
		e := hostileEFSM(model, state1, msg1, note, act1, int(flags))
		e.States[1].Name = state2
		efsmAgree(t, "hostile", e)
	})
}

// pieceStateConst is the Go constant name for a state, built on its own.
func pieceStateConst(s *core.State) string {
	var b strings.Builder
	b.WriteString("State_")
	for _, r := range s.Name {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(r)
		} else {
			b.WriteRune('_')
		}
	}
	return b.String()
}
