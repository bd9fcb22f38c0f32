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

// GoSourceRenderer renders a generated machine as a compilable Go source
// implementation of the protocol (the paper's Fig. 16): one handler method
// per message type, each a switch over the machine states, with phase
// transitions invoking action methods on an application-supplied interface
// (§5.1: "the rendering code is parameterised with a class defining
// appropriate action methods").
//
// The renderer is completely generic with respect to the algorithm being
// modelled — it consumes only the abstract machine representation.
type GoSourceRenderer struct {
	// PackageName names the generated package; when empty it is derived
	// from the machine (see DefaultPackageName).
	PackageName string
	// ActionMethod maps an action string ("->vote") to the method name of
	// the Actions interface ("SendVote"). DefaultActionMethod when nil.
	ActionMethod func(action string) string
	// IncludeComments embeds the generated state commentary (Fig. 14) as
	// doc comments on the state constants.
	IncludeComments bool
}

// NewGoSourceRenderer returns a renderer for the given package name with
// commentary enabled.
func NewGoSourceRenderer(pkg string) *GoSourceRenderer {
	return &GoSourceRenderer{PackageName: pkg, IncludeComments: true}
}

// DefaultActionMethod converts an action string to a Go method name:
// "->vote" becomes "SendVote", "->not free" becomes "SendNotFree".
func DefaultActionMethod(action string) string {
	return "Send" + camel(strings.TrimPrefix(action, "->"))
}

// DefaultPackageName derives a package name from the machine identity:
// the model name sanitized to a valid Go identifier plus the parameter,
// e.g. "bftcommit4" for the commit model at r=4. Model names are
// user-controlled (dynamically registered specs), so the derivation must
// produce a compilable package clause for any input.
func DefaultPackageName(m *core.StateMachine) string {
	return SanitizePackageName(m.ModelName) + strconv.Itoa(m.Parameter)
}

// SanitizePackageName maps an arbitrary model name onto a valid Go
// package identifier: lower-cased, every rune that is not a Unicode
// letter or digit dropped, "machine" when nothing survives, and an "m"
// prefix when the survivors start with a digit or collide with a Go
// keyword (neither is a legal identifier).
func SanitizePackageName(name string) string {
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

// Name implements Renderer.
func (r *GoSourceRenderer) Name() string { return "go" }

// goWriter is the Buffer plus what the sections of one Go artefact share:
// identifiers derived once per state and action, not once per transition.
//
// It is also the gate between the model and the artefact. The emitted file
// is a fixed skeleton of Go tokens; the only bytes a model controls are
// identifiers (names.Declare), quoted string literals (strconv.Quote,
// always a literal), line-comment text (check) and references to states
// (ref). A file whose every slot passed its gate parses and type-checks,
// so nothing parses it again: go/parser, go/format and go/types are the
// test and fuzz oracles of that claim (FuzzGoSourceGate), not part of the
// render.
type goWriter struct {
	*Buffer
	table   *core.Table
	consts  []string // by state position
	methods map[string]string
	names   GoNames
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

// Render produces Go source for the machine, written directly in the form
// gofmt leaves unchanged. Rendering fails if the machine is empty or if a
// model-controlled slot of the file is refused by the gate: a derived name
// that is not an identifier or is taken, comment text that would end its
// comment or that Go source cannot hold, a reference to a state the
// machine does not list.
func (r *GoSourceRenderer) Render(m *core.StateMachine) (Artifact, error) {
	g, err := r.emit(m)
	if err != nil {
		return Artifact{}, err
	}
	return g.artifact(r.Name(), "text/x-go; charset=utf-8", ".go"), nil
}

// emit writes the source, every slot through its gate.
func (r *GoSourceRenderer) emit(m *core.StateMachine) (*goWriter, error) {
	if m.Start == nil || len(m.States) == 0 {
		return nil, fmt.Errorf("render: go source: machine has no states")
	}
	method := r.ActionMethod
	if method == nil {
		method = DefaultActionMethod
	}
	pkg := r.PackageName
	if pkg == "" {
		pkg = DefaultPackageName(m)
	}
	param := strconv.Itoa(m.Parameter)
	// The table's error refuses a reference to a state the machine does
	// not list; the file is still written, the reference as nothing (see
	// ref), and thrown away.
	t, err := m.Table()
	z := t.Sizes
	g := &goWriter{
		Buffer: newBuffer(2048 + 256*len(m.Messages) + 22*z.States + 3*z.StateNames + 5*z.Annotations + z.AnnotationLen +
			34*z.Edges + z.EdgeSources + z.EdgeTargets + 17*z.Actions + z.ActionLen),
		table:   t,
		consts:  make([]string, len(m.States)),
		methods: map[string]string{},
		names:   make(GoNames, len(m.States)+len(m.Messages)+8),
	}
	g.fail(err)
	g.fail(g.names.Declare("package name", "package ", pkg, pkg))
	for i, s := range m.States {
		g.consts[i] = stateConst(s)
		g.fail(g.names.Declare("state", "", g.consts[i], s.Name))
	}
	var actions []string // in first-use order
	for i := range m.States {
		for _, e := range t.Out(i) {
			for _, a := range e.Actions {
				if _, seen := g.methods[a]; !seen {
					g.methods[a] = method(a)
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
	g.emitStates(m.States, r.IncludeComments)
	g.emitActions(actions)
	g.emitMachine(m)
	g.emitHandlers(m)

	if g.fault != nil {
		// The refused text comes back too: the tests hold it up to
		// go/parser and go/types, whose verdict the gate must anticipate.
		return g, fmt.Errorf("render: go source for %s: %w", m.ModelName, g.fault)
	}
	return g, nil
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

// comment writes one line comment as gofmt leaves it: trailing white space
// trimmed.
func (g *goWriter) comment(text ...string) {
	g.check(text)
	g.Add("// ")
	g.Add(text...)
	g.buf = bytes.TrimRightFunc(g.buf, unicode.IsSpace)
	g.BlankLn()
}

// check holds every piece of comment text to CommentText.
func (g *goWriter) check(text []string) {
	for _, t := range text {
		g.fail(CommentText(t))
	}
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
func (g *goWriter) docComment(lines ...string) {
	g.check(lines)
	var p comment.Parser
	var pr comment.Printer
	out := strings.TrimSuffix(string(pr.Comment(p.Parse(strings.Join(lines, "\n")+"\n"))), "\n")
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "\t") { // a code block: the tab follows the slashes
			g.check([]string{line})
			g.AddLn("//", strings.TrimRightFunc(line, unicode.IsSpace))
		} else {
			g.comment(line)
		}
	}
}

// pad appends the blanks that fill a cell of the given rune width up to
// its column's width, plus the one blank that separates columns.
func (g *goWriter) pad(cell, column int) {
	for ; cell <= column; cell++ {
		g.buf = append(g.buf, ' ')
	}
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
func (g *goWriter) emitStates(states []*core.State, annotate bool) {
	g.AddLn("// Machine states. The zero State is invalid.")
	g.AddLn("const (")
	g.IncreaseIndent()
	g.AddLn("StateInvalid State = iota")
	for i, s := range states {
		if annotate {
			for _, line := range s.Annotations {
				g.comment(line)
			}
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
	const smallSize, r = 40, 2.5 // go/printer's constants
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

// emitActions writes the Actions interface, the trailing comments in one
// column a blank past the widest method (go/printer separates a trailing
// comment with a tab cell), and the no-op implementation.
func (g *goWriter) emitActions(actions []string) {
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

// shortFunc writes a function of at most one statement as go/printer
// does: on one line while header, the blank after it and the statement are
// within 100 bytes (funcBody's maxSize), as a block otherwise.
func (g *goWriter) shortFunc(header, stmt string) {
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

func (g *goWriter) emitMachine(m *core.StateMachine) {
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

// emitHandlers writes one Receive method per message and the dispatcher
// over them.
func (g *goWriter) emitHandlers(m *core.StateMachine) {
	receive := make([]string, len(m.Messages))
	// next[p] is the first edge of the state at position p that no handler
	// has written yet: the handlers go in message order, and so do a
	// state's edges.
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

// ReceiveMethod returns the name of the handler method generated for a
// message: "NOT_FREE" becomes "ReceiveNotFree".
func ReceiveMethod(msg string) string { return "Receive" + camel(msg) }

// stateConst returns the Go constant name for a state: the encoded state
// name with every non-alphanumeric rune mapped to '_'.
func stateConst(s *core.State) string {
	var b strings.Builder
	b.Grow(len("State_") + len(s.Name))
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
