package render

import (
	"bytes"
	"fmt"
	"go/doc/comment"
	"go/token"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"asagen/internal/core"
)

// DefaultActionMethod converts an action string to a Go method name:
// "->vote" becomes "SendVote", "->not free" becomes "SendNotFree".
func DefaultActionMethod(action string) string {
	return "Send" + camel(strings.TrimPrefix(action, "->"))
}

// defaultPackageName derives a package name from the machine identity:
// the model name sanitized to a valid Go identifier plus the parameter,
// e.g. "bftcommit4" for the commit model at r=4. Model names are
// user-controlled (dynamically registered specs), so the derivation must
// produce a compilable package clause for any input.
func defaultPackageName(m *core.StateMachine) string {
	return sanitizePackageName(m.ModelName) + strconv.Itoa(m.Parameter)
}

// sanitizePackageName maps an arbitrary model name onto a valid Go
// package identifier: lower-cased, every rune that is not a Unicode
// letter or digit dropped, "machine" when nothing survives, and an "m"
// prefix when the survivors start with a digit or collide with a Go
// keyword (neither is a legal identifier).
func sanitizePackageName(name string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(name) {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(r)
		}
	}
	if b.Len() == 0 {
		return "machine"
	}
	s := b.String()
	for _, first := range s {
		if unicode.IsDigit(first) {
			s = "m" + s
		}
		break
	}
	if token.IsKeyword(s) {
		s = "m" + s
	}
	return s
}

// goWriter is what the sections of one Go artefact share: identifiers
// derived once per state and action, not once per transition. Each section
// appends to the file and returns it.
//
// It is also the gate between the model and the artefact. The emitted file
// is a fixed skeleton of Go tokens; the only bytes a model controls are
// identifiers (names.Declare), quoted string literals (strconv.Quote,
// always a literal), line-comment text (CommentText) and references to states
// (ref). A file whose every slot passed its gate parses and type-checks,
// so nothing parses it again: go/parser, go/format and go/types are the
// test and fuzz oracles of that claim (FuzzGoSourceGate), not part of the
// render.
type goWriter struct {
	table   *core.Table
	consts  []string // by state position
	methods map[string]string
	names   GoNames
	// notes are the annotation lines framed as comments, by line id, and
	// noteErrs the gate's verdict on each; nil when it admits all of them.
	notes    frags
	noteErrs []error
	// fault is the first slot the gate refused; nil when there is none.
	fault error
}

// GoNames is the set of identifiers one generated file derives from model
// strings, each under the scope it is declared in ("" for the package,
// "Actions." and "Machine." for the two method sets), mapped to the model
// string it came from. spec.Compile holds a document's messages and
// actions to it at registration, so what compiles renders.
type GoNames map[string]string

// Declare admits ident, derived from the model string from, into scope. It
// must be an identifier — token.IsIdentifier: letters, digits and '_', no
// leading digit, no keyword — that can be referred to, so not the blank
// one, and nothing else in the scope may have it: not the skeleton's own
// dispatcher, not a name another model string derived.
func (n GoNames) Declare(kind, scope, ident, from string) error {
	name := scope + ident
	switch prev, taken := n[name]; {
	case !token.IsIdentifier(ident) || ident == "_":
		return fmt.Errorf("%s %q: derived name %q is not a usable Go identifier", kind, from, ident)
	case name == "Machine.Receive":
		return fmt.Errorf("%s %q: derived name %s is the generated dispatcher's own", kind, from, name)
	case taken:
		return fmt.Errorf("%ss %q and %q both derive the Go name %s", kind, prev, from, name)
	}
	n[name] = from
	return nil
}

// GoSource writes the machine as a compilable Go source implementation
// of the protocol (the paper's Fig. 16) in package pkg, or in the package
// defaultPackageName derives when pkg is empty: one handler method per
// message type, each a switch over the machine states, with phase
// transitions invoking the methods DefaultActionMethod names on an
// application-supplied Actions interface (§5.1). The writer is generic
// with respect to the algorithm being modelled: it consumes only the
// abstract machine representation.
//
// The source is written directly in the form gofmt leaves unchanged.
// Rendering fails if the machine is empty or if a model-controlled slot of
// the file is refused by the gate: a derived name that is not an
// identifier or is taken, comment text that would end its comment or that
// Go source cannot hold, a reference to a state the machine does not list.
func GoSource(m *core.StateMachine, pkg string) (Artifact, error) {
	return lookup("go").artifact(goSource(m, pkg))
}

// goSource writes the source, every slot through its gate. A refused slot
// fails the render, and the file written past it comes back with the
// error: the tests hold it up to go/parser and go/types, whose verdict
// the gate must anticipate.
func goSource(m *core.StateMachine, pkg string) ([]byte, error) {
	if m.Start == nil || len(m.States) == 0 {
		return nil, fmt.Errorf("render: go source: machine has no states")
	}
	if pkg == "" {
		pkg = defaultPackageName(m)
	}
	param := strconv.Itoa(m.Parameter)
	// The table's error refuses a reference to a state the machine does
	// not list; the file is still written, the reference as nothing (see
	// ref), and thrown away.
	t, err := m.Table()
	z := t.Sizes
	g := &goWriter{
		table:   t,
		consts:  stateConsts(m.States, z.StateNames),
		methods: map[string]string{},
		names:   make(GoNames, len(m.States)+len(m.Messages)+8),
	}
	g.fail(err)
	g.fail(g.names.Declare("package name", "package ", pkg, pkg))
	for i, s := range m.States {
		g.fail(g.names.Declare("state", "", g.consts[i], s.Name))
	}
	var actions []string // in first-use order
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

	g.fail(CommentText(m.ModelName))
	buf := make([]byte, 0, 2000+256*len(m.Messages)+22*z.States+3*z.StateNames+5*z.Annotations+z.AnnotationLen+
		34*z.Edges+z.EdgeSources+z.EdgeTargets+17*z.Actions+z.ActionLen)
	buf = append(buf, "// Code generated by asagen fsmgen (model "...)
	buf = append(buf, m.ModelName...)
	buf = append(buf, ", parameter "...)
	buf = append(buf, param...)
	buf = append(buf, "). DO NOT EDIT.\n\n"...)
	buf = g.docComment(buf, "Package "+pkg+" is a generated state-machine implementation of the",
		m.ModelName+" protocol for parameter "+param+".")
	buf = append(buf, "package "...)
	buf = append(buf, pkg...)
	buf = append(buf, "\n\n"...)
	buf = g.docComment(buf, "State enumerates the machine states. State names encode the values of",
		"the model's state components: "+componentList(m)+".")
	buf = append(buf, "type State int\n\n"...)
	buf = g.emitStates(buf, m.States)
	buf = g.emitActions(buf, actions)
	buf = g.emitMachine(buf, m)
	buf = g.emitHandlers(buf, m)
	if g.fault != nil {
		return buf, fmt.Errorf("render: go source for %s: %w", m.ModelName, g.fault)
	}
	return buf, nil
}

// fail keeps the first refusal; the rest of the file is still written,
// and thrown away.
func (g *goWriter) fail(err error) {
	if err != nil && g.fault == nil {
		g.fault = err
	}
}

// ref returns the constant of the state at a position the table gives for
// a reference — the start, the finish, the target of an edge. A reference
// the table could not resolve (position -1) has none, and an assignment
// with nothing after it is not Go.
func (g *goWriter) ref(pos int) string {
	if pos < 0 {
		return ""
	}
	return g.consts[pos]
}

// comment writes one line comment, its indentation and slashes given as
// head, as gofmt leaves it: trailing white space trimmed.
func (g *goWriter) comment(buf []byte, head, text string) []byte {
	g.fail(CommentText(text))
	return appendComment(buf, head, text)
}

// frameNotes puts each distinct annotation line through the gate and
// frames it as a state constant's comment, once per line: the trim cannot
// reach past the slashes, so a frame is what comment writes in place.
func (g *goWriter) frameNotes() {
	for id, line := range g.table.Lines() {
		if err := CommentText(line); err != nil {
			if g.noteErrs == nil {
				g.noteErrs = make([]error, len(g.table.Lines()))
			}
			g.noteErrs[id] = err
		}
	}
	z := g.table.Sizes
	g.notes = lineFrags(g.table, 5*z.Lines+z.LineLen, func(buf []byte, line string) []byte {
		return appendComment(buf, "\t// ", line)
	})
}

// appendComment writes a line comment as comment does, with no gate.
func appendComment(buf []byte, head, text string) []byte {
	buf = append(buf, head...)
	buf = append(buf, text...)
	if c := buf[len(buf)-1]; c == ' ' || '\t' <= c && c <= '\r' || c >= utf8.RuneSelf {
		buf = bytes.TrimRightFunc(buf, unicode.IsSpace)
	}
	return append(buf, '\n')
}

// commentSuspect marks the bytes that may make comment text unwritable: a
// line break, NUL, and every byte of a non-ASCII rune, the byte order mark
// and invalid UTF-8 included.
var commentSuspect = func() (suspect [256]bool) {
	for _, c := range []byte{'\n', '\r', '\f', 0} {
		suspect[c] = true
	}
	for c := 0x80; c < 0x100; c++ {
		suspect[c] = true
	}
	return suspect
}()

// CommentText reports why text cannot be written after "// " as a line
// comment of generated Go source, nil when it can. A line break would end
// the comment and continue as code that may well parse (a form feed is a
// line break to go/printer, and go/scanner drops a carriage return); NUL,
// a byte order mark and invalid UTF-8 are errors to go/scanner wherever
// they stand; and gofmt moves a "+build" line from anywhere in a file to
// its head, as a build constraint. Everything else is comment text: the
// slashes and the blank written before it keep it from being a //line or
// //go: directive.
//
// The text is read once, byte by byte; only a line break, NUL or a byte
// outside ASCII sends it through the checks that name the fault.
func CommentText(text string) error {
	for i := 0; i < len(text); i++ {
		if commentSuspect[text[i]] {
			switch {
			case strings.ContainsAny(text, "\n\r\f"):
				return fmt.Errorf("comment text %q contains a line break", text)
			case strings.IndexByte(text, 0) >= 0 || strings.Contains(text, "\ufeff") || !utf8.ValidString(text):
				return fmt.Errorf("comment text %q contains NUL, a byte order mark or invalid UTF-8", text)
			}
			break
		}
	}
	if rest, ok := strings.CutPrefix(strings.TrimSpace(text), "+build"); ok {
		if r, _ := utf8.DecodeRuneInString(rest); rest == "" || unicode.IsSpace(r) {
			return fmt.Errorf("comment text %q would be a +build line", text)
		}
	}
	return nil
}

// docComment writes a top-level doc comment that carries model text.
// These are the comments gofmt lays out again through go/doc/comment
// (“quotes”, lists, indented text as code blocks), so the same library
// lays them out here, on two lines instead of the whole file.
func (g *goWriter) docComment(buf []byte, lines ...string) []byte {
	for _, line := range lines {
		g.fail(CommentText(line))
	}
	var p comment.Parser
	var pr comment.Printer
	out := strings.TrimSuffix(string(pr.Comment(p.Parse(strings.Join(lines, "\n")+"\n"))), "\n")
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "\t") { // a code block: the tab follows the slashes
			g.fail(CommentText(line))
			buf = append(buf, "//"...)
			buf = append(buf, strings.TrimRightFunc(line, unicode.IsSpace)...)
			buf = append(buf, '\n')
		} else {
			buf = g.comment(buf, "// ", line)
		}
	}
	return buf
}

// pad appends the blanks that fill a cell of the given rune width up to
// its column's width, plus the one blank that separates columns.
func pad(buf []byte, cell, column int) []byte {
	return appendRepeat(buf, blanks, column-cell+1)
}

func componentList(m *core.StateMachine) string {
	names := make([]string, len(m.Components))
	for i, c := range m.Components {
		names[i] = c.Name()
	}
	return strings.Join(names, "/")
}

// emitStates writes the state constants and the stateNames literal, whose
// values are aligned as go/printer's exprList aligns key: value pairs: one
// column per section, measured in runes, where a new section starts at a
// key that is not small (it or the previous key is over 40 bytes) and
// whose size is at least 2.5 times, or at most 1/2.5 of, the geometric
// mean of the key sizes before it in the section.
func (g *goWriter) emitStates(buf []byte, states []*core.State) []byte {
	buf = append(buf, "// Machine states. The zero State is invalid.\nconst (\n\tStateInvalid State = iota\n"...)
	g.frameNotes()
	for i := range states {
		for _, id := range g.table.LineIDs(i) {
			if g.noteErrs != nil {
				g.fail(g.noteErrs[id])
			}
			buf = append(buf, g.notes.at(id)...)
		}
		buf = append(buf, '\t')
		buf = append(buf, g.consts[i]...)
		buf = append(buf, '\n')
	}
	buf = append(buf, ")\n\n// stateNames maps states to their encoded names.\nvar stateNames = map[State]string{\n"...)
	section := func(buf []byte, from, to int) []byte {
		column := 0
		for _, c := range g.consts[from:to] {
			column = max(column, utf8.RuneCountInString(c))
		}
		for i, c := range g.consts[from:to] {
			buf = append(buf, '\t')
			buf = append(buf, c...)
			buf = append(buf, ':')
			buf = pad(buf, utf8.RuneCountInString(c), column)
			buf = appendQuote(buf, states[from+i].Name)
			buf = append(buf, ",\n"...)
		}
		return buf
	}
	const smallSize, r = 40, 2.5 // go/printer's constants
	start, lnsum := 0, 0.0
	for i, c := range g.consts {
		size := len(c)
		if i > 0 && (size > smallSize || len(g.consts[i-1]) > smallSize) {
			ratio := float64(size) / math.Exp(lnsum/float64(i-start))
			if r*ratio <= 1 || r <= ratio {
				buf = section(buf, start, i)
				start, lnsum = i, 0
			}
		}
		lnsum += math.Log(float64(size))
	}
	buf = section(buf, start, len(g.consts))
	buf = append(buf, `}

// String returns the encoded state name.
func (s State) String() string {
	if name, ok := stateNames[s]; ok {
		return name
	}
	return "INVALID"
}

`...)
	return buf
}

// emitActions writes the Actions interface, the trailing comments in one
// column a blank past the widest method (go/printer separates a trailing
// comment with a tab cell), and the no-op implementation.
func (g *goWriter) emitActions(buf []byte, actions []string) []byte {
	buf = append(buf, `// Actions receives the outgoing messages sent on phase transitions. The
// embedding application supplies the transport.
type Actions interface {
`...)
	column := 0
	for _, a := range actions {
		column = max(column, utf8.RuneCountInString(g.methods[a]))
	}
	for _, a := range actions {
		buf = append(buf, '\t')
		buf = append(buf, g.methods[a]...)
		buf = append(buf, "()"...)
		buf = pad(buf, utf8.RuneCountInString(g.methods[a]), column)
		buf = g.comment(buf, "// ", a)
	}
	buf = append(buf, "}\n\n// NopActions discards all actions.\ntype NopActions struct{}\n\n"...)
	for _, a := range actions {
		buf = append(buf, "// "...)
		buf = append(buf, g.methods[a]...)
		buf = append(buf, " implements Actions.\n"...)
		buf = shortFunc(buf, "func (NopActions) "+g.methods[a]+"()", "")
		buf = append(buf, '\n')
	}
	return buf
}

// shortFunc writes a function of at most one statement as go/printer
// does: on one line while header, the blank after it and the statement are
// within 100 bytes (funcBody's maxSize), as a block otherwise.
func shortFunc(buf []byte, header, stmt string) []byte {
	buf = append(buf, header...)
	switch {
	case len(header)+1+len(stmt) > 100 && stmt == "":
		buf = append(buf, " {\n}\n"...)
	case len(header)+1+len(stmt) > 100:
		buf = append(buf, " {\n\t"...)
		buf = append(buf, stmt...)
		buf = append(buf, "\n}\n"...)
	case stmt == "":
		buf = append(buf, " {}\n"...)
	default:
		buf = append(buf, " { "...)
		buf = append(buf, stmt...)
		buf = append(buf, " }\n"...)
	}
	return buf
}

func (g *goWriter) emitMachine(buf []byte, m *core.StateMachine) []byte {
	buf = append(buf, `// Machine is the generated protocol implementation: the current state plus
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
	return &Machine{state: `...)
	buf = append(buf, g.ref(g.table.Start)...)
	buf = append(buf, `, actions: actions}
}

// State returns the current machine state.
func (m *Machine) State() State { return m.state }

`...)
	if m.Finish != nil {
		buf = append(buf, "// Finished reports whether the machine has reached the finish state.\n"...)
		buf = shortFunc(buf, "func (m *Machine) Finished() bool", "return m.state == "+g.ref(g.table.Finish))
	} else {
		buf = append(buf, `// Finished reports whether the machine has reached a terminal state;
// this machine has none.
func (m *Machine) Finished() bool { return false }
`...)
	}
	return append(buf, '\n')
}

// emitHandlers writes one Receive method per message and the dispatcher
// over them.
func (g *goWriter) emitHandlers(buf []byte, m *core.StateMachine) []byte {
	receive := make([]string, len(m.Messages))
	// next[p] is the first edge of the state at position p that no handler
	// has written yet: the handlers go in message order, and so do a
	// state's edges.
	next := make([]int, len(m.States))
	for i, msg := range m.Messages {
		receive[i] = ReceiveMethod(msg)
		g.fail(g.names.Declare("message", "Machine.", receive[i], msg))
		buf = g.docComment(buf, receive[i]+" handles an incoming "+msg+" message. States in which",
			"the message is not applicable ignore it.")
		buf = append(buf, "func (m *Machine) "...)
		buf = append(buf, receive[i]...)
		buf = append(buf, "() {\n\tswitch m.state {\n\n"...)
		for p := range m.States {
			out := g.table.Out(p)
			if next[p] == len(out) || out[next[p]].Msg != int32(i) {
				continue
			}
			e := out[next[p]]
			next[p]++
			buf = append(buf, "\tcase "...)
			buf = append(buf, g.consts[p]...)
			buf = append(buf, ":\n"...)
			for _, a := range e.Actions {
				buf = append(buf, "\t\tm.actions."...)
				buf = append(buf, g.methods[a]...)
				buf = append(buf, "()\n"...)
			}
			buf = append(buf, "\t\tm.state = "...)
			buf = append(buf, g.ref(int(e.To))...)
			buf = append(buf, "\n\n"...)
		}
		buf = append(buf, "\t}\n}\n\n"...)
	}
	buf = append(buf, `// Receive dispatches a message by its model name. It reports whether the
// message type is known to the machine.
func (m *Machine) Receive(msg string) bool {
	switch msg {
`...)
	for i, msg := range m.Messages {
		buf = append(buf, "\tcase "...)
		buf = strconv.AppendQuote(buf, msg)
		buf = append(buf, ":\n\t\tm."...)
		buf = append(buf, receive[i]...)
		buf = append(buf, "()\n"...)
	}
	buf = append(buf, "\tdefault:\n\t\treturn false\n\t}\n\treturn true\n}\n"...)
	return buf
}

// appendQuote appends s as strconv.Quote writes it: printable ASCII other
// than a quote or a backslash, which is all a state name usually holds,
// stands for itself.
func appendQuote(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			return strconv.AppendQuote(buf, s)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

// ReceiveMethod returns the name of the handler method generated for a
// message: "NOT_FREE" becomes "ReceiveNotFree".
func ReceiveMethod(msg string) string { return "Receive" + camel(msg) }

// stateConsts returns the Go constant name of each state, all cut from
// one string: the encoded state name with every non-alphanumeric rune
// mapped to '_'. nameLen is the bytes of the state names, which the
// constants do not outgrow but by their prefix.
func stateConsts(states []*core.State, nameLen int) []string {
	var b strings.Builder
	b.Grow(len("State_")*len(states) + nameLen)
	consts := make([]string, len(states))
	end := make([]int, len(states))
	for i, s := range states {
		b.WriteString("State_")
		for j := 0; j < len(s.Name); {
			if c := s.Name[j]; c < utf8.RuneSelf { // ASCII, what names mostly are
				if 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' {
					b.WriteByte(c)
				} else {
					b.WriteByte('_')
				}
				j++
				continue
			}
			r, size := utf8.DecodeRuneInString(s.Name[j:])
			if unicode.IsLetter(r) || unicode.IsDigit(r) {
				b.WriteRune(r)
			} else {
				b.WriteByte('_')
			}
			j += size
		}
		end[i] = b.Len()
	}
	all, start := b.String(), 0
	for i := range consts {
		consts[i], start = all[start:end[i]], end[i]
	}
	return consts
}

// camel converts a model identifier ("not free", "NOT_FREE") to CamelCase
// ("NotFree").
func camel(s string) string {
	var b strings.Builder
	upperNext := true
	for _, r := range s {
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			upperNext = true
			continue
		}
		if upperNext {
			b.WriteRune(unicode.ToUpper(r))
			upperNext = false
		} else {
			b.WriteRune(unicode.ToLower(r))
		}
	}
	return b.String()
}
