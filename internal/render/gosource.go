package render

import (
	"bytes"
	"fmt"
	"go/doc/comment"
	"go/parser"
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
type goWriter struct {
	*Buffer
	consts  map[*core.State]string
	methods map[string]string
	// broken quotes the first model string that cannot sit in a line
	// comment; empty when there is none.
	broken string
}

// Render produces Go source for the machine, written directly in the form
// gofmt leaves unchanged. Rendering fails if the machine is empty, if
// model text would break out of a comment, or if the emitted source does
// not parse — which would indicate a renderer bug, surfaced as an error
// rather than a broken artefact.
func (r *GoSourceRenderer) Render(m *core.StateMachine) (Artifact, error) {
	if m.Start == nil || len(m.States) == 0 {
		return Artifact{}, fmt.Errorf("render: go source: machine has no states")
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
	w := weigh(m)
	g := &goWriter{
		Buffer: newBuffer(2048 + 256*len(m.Messages) + 22*w.states + 3*w.stateNames + 5*w.annotations + w.annotationLen +
			34*w.edges + w.edgeSources + w.edgeTargets + 17*w.actions + w.actionLen),
		consts:  make(map[*core.State]string, len(m.States)),
		methods: map[string]string{},
	}
	for _, s := range m.States {
		g.consts[s] = stateConst(s)
	}
	var actions []string // in first-use order
	for _, s := range m.States {
		for _, msg := range m.Messages {
			if tr := s.Transitions[msg]; tr != nil {
				for _, a := range tr.Actions {
					if _, seen := g.methods[a]; !seen {
						g.methods[a] = method(a)
						actions = append(actions, a)
					}
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

	if g.broken != "" {
		return Artifact{}, fmt.Errorf("render: go source for %s: comment text %s contains a line break", m.ModelName, g.broken)
	}
	// The mode go/format parses with: what gofmt would accept, this accepts.
	if _, err := parser.ParseFile(token.NewFileSet(), "", g.buf, parser.ParseComments|parser.SkipObjectResolution); err != nil {
		return Artifact{}, fmt.Errorf("render: go source for %s: generated code does not parse: %w", m.ModelName, err)
	}
	return g.artifact(r.Name(), "text/x-go; charset=utf-8", ".go"), nil
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

// check notes model text with a line break in it: in a line comment that
// would end the comment and continue as code that may well parse, so it
// fails the render instead. A form feed is a line break to go/printer.
func (g *goWriter) check(text []string) {
	for _, t := range text {
		if g.broken == "" && strings.ContainsAny(t, "\n\r\f") {
			g.broken = strconv.Quote(t)
		}
	}
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
	for _, s := range states {
		if annotate {
			for _, line := range s.Annotations {
				g.comment(line)
			}
		}
		g.AddLn(g.consts[s])
	}
	g.DecreaseIndent()
	g.AddLn(")")
	g.BlankLn()
	g.AddLn("// stateNames maps states to their encoded names.")
	g.AddLn("var stateNames = map[State]string{")
	g.IncreaseIndent()
	section := func(states []*core.State) {
		column := 0
		for _, s := range states {
			column = max(column, utf8.RuneCountInString(g.consts[s]))
		}
		for _, s := range states {
			g.Add(g.consts[s], ":")
			g.pad(utf8.RuneCountInString(g.consts[s]), column)
			g.buf = strconv.AppendQuote(g.buf, s.Name)
			g.AddLn(",")
		}
	}
	const smallSize, r = 40, 2.5 // go/printer's constants
	start, lnsum := 0, 0.0
	for i, s := range states {
		size := len(g.consts[s])
		if i > 0 && (size > smallSize || len(g.consts[states[i-1]]) > smallSize) {
			ratio := float64(size) / math.Exp(lnsum/float64(i-start))
			if r*ratio <= 1 || r <= ratio {
				section(states[start:i])
				start, lnsum = i, 0
			}
		}
		lnsum += math.Log(float64(size))
	}
	section(states[start:])
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
		g.AddLn("func (NopActions) ", g.methods[a], "() {}")
		g.BlankLn()
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
	return &Machine{state: `, g.consts[m.Start], `, actions: actions}
}

// State returns the current machine state.
func (m *Machine) State() State { return m.state }

`)
	if m.Finish != nil {
		g.AddLn("// Finished reports whether the machine has reached the finish state.")
		g.AddLn("func (m *Machine) Finished() bool { return m.state == ", g.consts[m.Finish], " }")
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
	for i, msg := range m.Messages {
		receive[i] = "Receive" + camel(msg)
		g.docComment(receive[i]+" handles an incoming "+msg+" message. States in which",
			"the message is not applicable ignore it.")
		g.EnterBlock("func (m *Machine) ", receive[i], "()")
		g.AddLn("switch m.state {")
		g.BlankLn()
		for _, s := range m.States {
			tr := s.Transitions[msg]
			if tr == nil {
				continue
			}
			g.AddLn("case ", g.consts[s], ":")
			g.IncreaseIndent()
			for _, a := range tr.Actions {
				g.AddLn("m.actions.", g.methods[a], "()")
			}
			g.AddLn("m.state = ", g.consts[tr.Target])
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
