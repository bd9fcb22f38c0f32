// Package spec implements the declarative model-authoring layer: a
// JSON-serialisable document describing a parameterised scenario — state
// components, message vocabulary, guarded transition rules, state
// documentation and optional EFSM abstraction hints — that compiles into a
// core.Model. The paper's central claim is that fault-tolerant state
// machines should be generated from compact parameterised specifications
// (§3); this package makes the specification itself data, so new scenarios
// can be registered at runtime through the SDK, the wire API or a command
// flag instead of being hand-written Go adapters inside internal/.
//
// A Doc is deliberately a small total language, not a general-purpose one:
// an integer value is an offset plus, optionally, the parameter and one
// named derived value; a derived value is a floor division of such a value,
// less an earlier derived value. Guards are conjunctions of component
// comparisons, and effects are component assignments and increments.
// Everything a Doc can express terminates and is deterministic, which keeps
// the Model contract (side-effect-free, deterministic Apply) true by
// construction.
package spec

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"asagen/internal/render"
)

// Value is an integer resolved per parameter: Offset, plus the model
// parameter when Param is set, plus the derived value Derived names. It is
// the only numeric expression form in a spec, so specs stay trivially
// total and analysable.
type Value struct {
	Param   bool   `json:"param,omitempty"`
	Derived string `json:"derived,omitempty"`
	Offset  int    `json:"offset,omitempty"`
}

// Lit returns the constant value n.
func Lit(n int) Value { return Value{Offset: n} }

// ParamValue returns the value of the model parameter plus offset.
func ParamValue(offset int) Value { return Value{Param: true, Offset: offset} }

// scope is what a Value resolves against: a parameter and the derived
// values at that parameter.
type scope struct {
	param   int
	derived map[string]int
}

// scopeAt evaluates the derived values at param, in document order.
func scopeAt(derived []Derived, param int) scope {
	s := scope{param: param}
	if len(derived) > 0 {
		s.derived = make(map[string]int, len(derived))
		for _, d := range derived {
			s.derived[d.Name] = d.eval(s)
		}
	}
	return s
}

// eval resolves the value in a scope.
func (v Value) eval(s scope) int {
	n := v.Offset
	if v.Param {
		n += s.param
	}
	if v.Derived != "" {
		n += s.derived[v.Derived]
	}
	return n
}

// String renders the value symbolically ("p+1", "majority-1", "3").
func (v Value) String() string {
	var terms []string
	if v.Param {
		terms = append(terms, "p")
	}
	if v.Derived != "" {
		terms = append(terms, v.Derived)
	}
	switch {
	case len(terms) == 0:
		return strconv.Itoa(v.Offset)
	case v.Offset == 0:
		return strings.Join(terms, "+")
	case v.Offset > 0:
		return strings.Join(terms, "+") + "+" + strconv.Itoa(v.Offset)
	default:
		return strings.Join(terms, "+") + strconv.Itoa(v.Offset)
	}
}

// Derived names a value computed once per parameter: ⌊Value / Div⌋, less
// the derived value Minus names. Value and Minus may refer only to derived
// values declared before this one, so one pass in document order evaluates
// them all. A derived value is usable wherever a Value is, and as a
// "{name}" placeholder in describe texts and rule annotations.
type Derived struct {
	Name  string `json:"name"`
	Value Value  `json:"value"`
	// Div is the floor divisor, at least 1; absent means 1.
	Div int `json:"div,omitempty"`
	// Minus optionally names an earlier derived value to subtract.
	Minus string `json:"minus,omitempty"`
}

// eval resolves the derived value in the scope of those before it.
func (d Derived) eval(s scope) int {
	n := d.Value.eval(s)
	if div := max(d.Div, 1); n < 0 {
		n = -((-n + div - 1) / div) // floor, not truncation
	} else {
		n /= div
	}
	if d.Minus != "" {
		n -= s.derived[d.Minus]
	}
	return n
}

// Component kinds.
const (
	KindBool = "bool"
	KindInt  = "int"
)

// Component declares one dimension of the state space.
type Component struct {
	// Name identifies the component, e.g. "outstanding".
	Name string `json:"name"`
	// Kind is KindBool or KindInt.
	Kind string `json:"kind"`
	// Max is the largest legal value of an int component (inclusive); it
	// may be parameter-affine. Ignored for bool components.
	Max Value `json:"max,omitempty"`
}

// Comparison operators usable in conditions.
const (
	OpEq = "=="
	OpNe = "!="
	OpLt = "<"
	OpLe = "<="
	OpGt = ">"
	OpGe = ">="
)

var validOps = map[string]bool{OpEq: true, OpNe: true, OpLt: true, OpLe: true, OpGt: true, OpGe: true}

// Cond compares one component against a value.
type Cond struct {
	Component string `json:"component"`
	Op        string `json:"op"`
	Value     Value  `json:"value"`
}

// Assign updates one component: Set overwrites with a value, otherwise Add
// is added to the current value.
type Assign struct {
	Component string `json:"component"`
	Set       *Value `json:"set,omitempty"`
	Add       int    `json:"add,omitempty"`
}

// Rule is one guarded transition reaction. For each message the rules are
// tried in document order and the first rule whose conditions all hold
// fires; a message with no matching rule is not applicable in that state
// (the paper's InvalidStateException path, Fig. 10).
type Rule struct {
	// Message names the received message the rule reacts to.
	Message string `json:"message"`
	// When are the guard conditions, all of which must hold.
	When []Cond `json:"when,omitempty"`
	// Set are the component updates applied, in order.
	Set []Assign `json:"set,omitempty"`
	// Actions are the outgoing messages performed, e.g. "->vote".
	Actions []string `json:"actions,omitempty"`
	// Annotations document the reaction in generated artefacts. They may
	// reference "{param}", "{<component>}" and "{<derived>}" placeholders;
	// a component's is its value in the target state.
	Annotations []string `json:"annotations,omitempty"`
	// Finish marks a transition into the synthetic finish state.
	Finish bool `json:"finish,omitempty"`
}

// DescribeRule contributes one line of per-state documentation when its
// conditions hold. The text may reference "{param}", "{<component>}" and
// "{<derived>}" placeholders, substituted with the concrete values.
type DescribeRule struct {
	When []Cond `json:"when,omitempty"`
	Text string `json:"text"`
}

// LabelRule maps concrete states to an abstract EFSM state label; the
// first rule whose conditions hold wins. The final rule must be
// unconditional so every state has a label.
type LabelRule struct {
	When  []Cond `json:"when,omitempty"`
	Label string `json:"label"`
}

// GuardRule names the counter component whose value selects among a
// message's outcomes during EFSM generalisation.
type GuardRule struct {
	Message   string `json:"message"`
	Component string `json:"component"`
}

// VarOpRule declares the counter update an EFSM transition performs when
// the message is received.
type VarOpRule struct {
	Message   string `json:"message"`
	Component string `json:"component"`
	Delta     int    `json:"delta"`
}

// SymbolRule renders a concrete counter value as a parameter-independent
// expression in EFSM guards; the first rule whose value matches wins, and
// unmatched values render as literals.
type SymbolRule struct {
	Value Value  `json:"value"`
	Text  string `json:"text"`
}

// Abstraction is the optional EFSM generalisation hint set (§5.3): how to
// label coalesced states, which counters guard which messages, the counter
// updates, and the symbolic rendering of guard bounds.
type Abstraction struct {
	Labels  []LabelRule  `json:"labels"`
	Guards  []GuardRule  `json:"guards,omitempty"`
	Ops     []VarOpRule  `json:"ops,omitempty"`
	Symbols []SymbolRule `json:"symbols,omitempty"`
}

// Doc is the declarative model specification. Its JSON encoding is the
// wire format of POST /v1/models and the fsmgen -spec file format.
type Doc struct {
	// Name is the registry key the model is registered under.
	Name string `json:"name"`
	// ModelName is the model identity stamped on generated machines and
	// artefacts; it defaults to Name.
	ModelName string `json:"model_name,omitempty"`
	// Description is a one-line scenario summary.
	Description string `json:"description,omitempty"`
	// ParamName names the model parameter, e.g. "fan-out bound".
	ParamName string `json:"param_name,omitempty"`
	// DefaultParam is the parameter used when a request passes none; it
	// defaults to 1.
	DefaultParam int `json:"default_param,omitempty"`
	// MinParam is the smallest accepted parameter value; it defaults to 1.
	MinParam int `json:"min_param,omitempty"`
	// SweepParams are representative parameter values, ascending.
	SweepParams []int `json:"sweep_params,omitempty"`
	// Vocabulary optionally names the message vocabulary for runtime
	// layers (see models.Entry.Vocabulary).
	Vocabulary string `json:"vocabulary,omitempty"`
	// Derived are the named values computed from the parameter.
	Derived []Derived `json:"derived,omitempty"`
	// FaultTolerance optionally declares the number of faults a family
	// member tolerates, which generated machines report.
	FaultTolerance *Value `json:"fault_tolerance,omitempty"`
	// Components declare the state space dimensions, in state-name order.
	Components []Component `json:"components"`
	// Messages list the receivable message types, in canonical order.
	Messages []string `json:"messages"`
	// Start optionally overrides the all-zero start vector, one value per
	// component.
	Start []Value `json:"start,omitempty"`
	// Rules are the guarded transition reactions.
	Rules []Rule `json:"rules"`
	// Describe are the per-state documentation rules.
	Describe []DescribeRule `json:"describe,omitempty"`
	// Abstraction optionally enables the EFSM formats.
	Abstraction *Abstraction `json:"abstraction,omitempty"`
}

// Diagnostic is one validation finding, addressed by a JSON-path-like
// location inside the document.
type Diagnostic struct {
	// Path locates the offending field, e.g. "rules[2].when[0].component".
	Path string `json:"path"`
	// Message explains the problem.
	Message string `json:"message"`
}

func (d Diagnostic) String() string { return d.Path + ": " + d.Message }

// Error is the typed compilation failure: every problem found in the
// document, not just the first.
type Error struct {
	// Name echoes the spec name, possibly empty.
	Name string
	// Diagnostics lists the problems in document order.
	Diagnostics []Diagnostic
}

// Error implements error, naming each diagnostic.
func (e *Error) Error() string {
	parts := make([]string, len(e.Diagnostics))
	for i, d := range e.Diagnostics {
		parts[i] = d.String()
	}
	name := e.Name
	if name == "" {
		name = "(unnamed)"
	}
	return fmt.Sprintf("spec: invalid model spec %s: %s", name, strings.Join(parts, "; "))
}

// Parse decodes a JSON document strictly (see decoder): a misspelt, repeated
// or case-folded key is an error, not missing or merged semantics. The Doc
// holds copies of its strings, so data may be reused once Parse returns.
func Parse(data []byte) (Doc, error) {
	doc, _, err := parse(data)
	return doc, err
}

// loc is a diagnostic's path — a format and the indices it takes — not
// yet formatted: a document that compiles pays for no path.
type loc struct {
	format string
	i, j   int
}

func (l loc) String() string {
	return fmt.Sprintf(l.format, []any{l.i, l.j}[:strings.Count(l.format, "%d")]...)
}

// diags accumulates diagnostics during validation.
type diags struct {
	list []Diagnostic
}

func (d *diags) add(at loc, format string, args ...any) {
	d.list = append(d.list, Diagnostic{Path: at.String(), Message: fmt.Sprintf(format, args...)})
}

// text rejects control characters in a free-text field. Such text ends up
// in generated artefacts — Go line comments, DOT labels — where a line
// break would end the comment or label it was placed in and continue as
// whatever follows it. What else the Go renderer refuses as comment text
// is refused here, so that what compiles renders.
func (d *diags) text(path loc, s string) {
	if strings.IndexFunc(s, unicode.IsControl) >= 0 {
		d.add(path, "must not contain control characters (got %q)", s)
	} else if err := render.CommentText(s); err != nil {
		d.add(path, "cannot be written into generated Go source: %v", err)
	}
}

// value rejects a Value that uses a derived value not in declared.
func (d *diags) value(at loc, v Value, declared map[string]bool) {
	if v.Derived != "" && !declared[v.Derived] {
		at.format += ".derived"
		d.add(at, "unknown derived value %q", v.Derived)
	}
}

// paramPlaceholder is the name "{param}" substitutes: no component and no
// derived value may take it.
const paramPlaceholder = "param"

// isName reports whether s is usable as a registry key / URL path segment:
// it must start with a letter and continue with letters, digits, '-', '_'
// or '.'.
func isName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z':
		case i > 0 && (r >= '0' && r <= '9' || r == '-' || r == '_' || r == '.'):
		default:
			return false
		}
	}
	return true
}

// Compile validates the document and returns the executable compiled form.
// All problems are reported together through *Error.
func Compile(d Doc) (*Compiled, error) { return compile(d, 0) }

// compile is Compile with the size of the canonical form foreseen: the
// compact length of the text d was parsed from, which is that size exactly
// when the text is a compiled document's wire form.
func compile(d Doc, canonSize int) (*Compiled, error) {
	var diag diags

	if !isName(d.Name) {
		diag.add(loc{format: "name"}, "must start with a letter and contain only letters, digits, '-', '_' or '.' (got %q)", d.Name)
	}
	if d.ModelName == "" {
		d.ModelName = d.Name
	}
	diag.text(loc{format: "model_name"}, d.ModelName)
	diag.text(loc{format: "description"}, d.Description)
	diag.text(loc{format: "param_name"}, d.ParamName)
	diag.text(loc{format: "vocabulary"}, d.Vocabulary)
	if d.MinParam == 0 {
		d.MinParam = 1
	}
	if d.MinParam < 1 {
		diag.add(loc{format: "min_param"}, "must be >= 1 (got %d)", d.MinParam)
	}
	if d.DefaultParam == 0 {
		d.DefaultParam = d.MinParam
	}
	if d.DefaultParam < d.MinParam {
		diag.add(loc{format: "default_param"}, "must be >= min_param %d (got %d)", d.MinParam, d.DefaultParam)
	}
	if d.ParamName == "" {
		d.ParamName = "parameter"
	}
	for i, p := range d.SweepParams {
		if p < d.MinParam {
			diag.add(loc{"sweep_params[%d]", i, 0}, "parameter %d < min_param %d", p, d.MinParam)
		}
	}

	// Derived values. Each may use only those declared before it, so
	// derived holds the names declared so far while they are checked, and
	// all of them afterwards.
	derived := map[string]bool{}
	for i, dv := range d.Derived {
		path := loc{"derived[%d].name", i, 0}
		switch {
		case !isName(dv.Name):
			diag.add(path, "must start with a letter and contain only letters, digits, '-', '_' or '.' (got %q)", dv.Name)
		case dv.Name == paramPlaceholder:
			diag.add(path, "%q is the parameter's placeholder", dv.Name)
		case derived[dv.Name]:
			diag.add(path, "duplicate derived value %q", dv.Name)
		}
		diag.value(loc{"derived[%d].value", i, 0}, dv.Value, derived)
		if dv.Div < 0 {
			diag.add(loc{"derived[%d].div", i, 0}, "must be >= 1 (got %d)", dv.Div)
		}
		if dv.Minus != "" && !derived[dv.Minus] {
			diag.add(loc{"derived[%d].minus", i, 0}, "derived value %q is not declared before this one", dv.Minus)
		}
		derived[dv.Name] = true
	}
	if d.FaultTolerance != nil {
		diag.value(loc{format: "fault_tolerance"}, *d.FaultTolerance, derived)
	}
	def := scopeAt(d.Derived, d.DefaultParam)

	// Components. A placeholder names a component, a derived value or the
	// parameter, so no two of them may share a name.
	compIdx := make(map[string]int, len(d.Components))
	if len(d.Components) == 0 {
		diag.add(loc{format: "components"}, "at least one state component is required")
	}
	for i, c := range d.Components {
		diag.text(loc{"components[%d].name", i, 0}, c.Name)
		if c.Name == "" {
			diag.add(loc{"components[%d].name", i, 0}, "component name must not be empty")
		} else if _, dup := compIdx[c.Name]; dup {
			diag.add(loc{"components[%d].name", i, 0}, "duplicate component %q", c.Name)
		} else {
			compIdx[c.Name] = i
		}
		if c.Name == paramPlaceholder {
			diag.add(loc{"components[%d].name", i, 0}, "%q is the parameter's placeholder", c.Name)
		} else if derived[c.Name] {
			diag.add(loc{"components[%d].name", i, 0}, "component %q has the name of a derived value", c.Name)
		}
		switch c.Kind {
		case KindBool:
		case KindInt:
			diag.value(loc{"components[%d].max", i, 0}, c.Max, derived)
			if max := c.Max.eval(def); max < 0 {
				diag.add(loc{"components[%d].max", i, 0}, "component %q max %s is negative at the default parameter %d", c.Name, c.Max, d.DefaultParam)
			}
		default:
			diag.add(loc{"components[%d].kind", i, 0}, "unknown kind %q (want %q or %q)", c.Kind, KindBool, KindInt)
		}
	}

	// Messages. goNames holds the Go method names the Go renderer derives
	// from messages and actions to its own gate: two that meet at one name,
	// or a message with no letter or digit to name a method by, would
	// register and then fail every GET of the go format.
	goNames := render.GoNames{}
	msgIdx := make(map[string]int, len(d.Messages))
	if len(d.Messages) == 0 {
		diag.add(loc{format: "messages"}, "at least one message is required")
	}
	for i, m := range d.Messages {
		path := loc{"messages[%d]", i, 0}
		diag.text(path, m)
		if strings.TrimSpace(m) == "" {
			diag.add(path, "message name must not be blank")
			continue
		}
		if _, dup := msgIdx[m]; dup {
			diag.add(path, "duplicate message %q", m)
		} else if err := goNames.Declare("message", "Machine.", render.ReceiveMethod(m), m); err != nil {
			diag.add(path, "%v", err)
		}
		msgIdx[m] = i
	}

	// Start vector.
	if len(d.Start) != 0 && len(d.Start) != len(d.Components) {
		diag.add(loc{format: "start"}, "got %d values for %d components", len(d.Start), len(d.Components))
	}
	if len(d.Start) == len(d.Components) {
		for i, v := range d.Start {
			comp := d.Components[i]
			diag.value(loc{"start[%d]", i, 0}, v, derived)
			max := 1
			switch comp.Kind {
			case KindBool:
			case KindInt:
				max = comp.Max.eval(def)
			default:
				continue // the kind diagnostic above covers it
			}
			if got := v.eval(def); got < 0 || got > max {
				diag.add(loc{"start[%d]", i, 0},
					"value %s of component %q is outside [0, %d] at the default parameter %d",
					v, comp.Name, max, d.DefaultParam)
			}
		}
	}

	checkConds := func(list string, i int, cs []Cond) {
		for j, c := range cs {
			if _, ok := compIdx[c.Component]; !ok {
				diag.add(loc{list + "[%d].when[%d].component", i, j}, "unknown component %q", c.Component)
			}
			if !validOps[c.Op] {
				diag.add(loc{list + "[%d].when[%d].op", i, j}, "unknown operator %q", c.Op)
			}
			if c.Value.Derived != "" { // the only value diag.value refuses
				diag.value(loc{list + "[%d].when[%d].value", i, j}, c.Value, derived)
			}
		}
	}

	// Rules.
	if len(d.Rules) == 0 {
		diag.add(loc{format: "rules"}, "at least one rule is required")
	}
	actSet := map[string]bool{}
	for i, r := range d.Rules {
		if _, ok := msgIdx[r.Message]; !ok {
			diag.add(loc{"rules[%d].message", i, 0}, "unknown message %q", r.Message)
		}
		checkConds("rules", i, r.When)
		for j, a := range r.Set {
			if _, ok := compIdx[a.Component]; !ok {
				diag.add(loc{"rules[%d].set[%d].component", i, j}, "unknown component %q", a.Component)
			}
			if a.Set != nil && a.Add != 0 {
				diag.add(loc{"rules[%d].set[%d]", i, j}, "set and add are mutually exclusive")
			}
			if a.Set == nil && a.Add == 0 {
				diag.add(loc{"rules[%d].set[%d]", i, j}, "one of set or add is required")
			} else if a.Set != nil {
				diag.value(loc{"rules[%d].set[%d].set", i, j}, *a.Set, derived)
			}
		}
		for j, act := range r.Actions {
			apath := loc{"rules[%d].actions[%d]", i, j}
			diag.text(apath, act)
			if strings.TrimSpace(act) == "" {
				diag.add(apath, "action must not be blank")
			} else if !actSet[act] {
				actSet[act] = true
				if err := goNames.Declare("action", "Actions.", render.DefaultActionMethod(act), act); err != nil {
					diag.add(apath, "%v", err)
				}
			}
		}
		for j, note := range r.Annotations {
			diag.text(loc{"rules[%d].annotations[%d]", i, j}, note)
		}
	}

	// Describe rules.
	for i, r := range d.Describe {
		path := loc{"describe[%d].text", i, 0}
		diag.text(path, r.Text)
		if r.Text == "" {
			diag.add(path, "text must not be empty")
		}
		checkConds("describe", i, r.When)
	}

	// Abstraction.
	if a := d.Abstraction; a != nil {
		if len(a.Labels) == 0 {
			diag.add(loc{format: "abstraction.labels"}, "at least one label rule is required")
		} else {
			last := a.Labels[len(a.Labels)-1]
			if len(last.When) != 0 {
				diag.add(loc{format: "abstraction.labels"}, "the final label rule must be unconditional so every state has a label")
			}
		}
		for i, l := range a.Labels {
			path := loc{"abstraction.labels[%d].label", i, 0}
			diag.text(path, l.Label)
			if l.Label == "" {
				diag.add(path, "label must not be empty")
			}
			checkConds("abstraction.labels", i, l.When)
		}
		for i, g := range a.Guards {
			if _, ok := msgIdx[g.Message]; !ok {
				diag.add(loc{"abstraction.guards[%d].message", i, 0}, "unknown message %q", g.Message)
			}
			if _, ok := compIdx[g.Component]; !ok {
				diag.add(loc{"abstraction.guards[%d].component", i, 0}, "unknown component %q", g.Component)
			}
		}
		for i, op := range a.Ops {
			if _, ok := msgIdx[op.Message]; !ok {
				diag.add(loc{"abstraction.ops[%d].message", i, 0}, "unknown message %q", op.Message)
			}
			if _, ok := compIdx[op.Component]; !ok {
				diag.add(loc{"abstraction.ops[%d].component", i, 0}, "unknown component %q", op.Component)
			}
			if op.Delta == 0 {
				diag.add(loc{"abstraction.ops[%d].delta", i, 0}, "delta must not be zero")
			}
		}
		for i, s := range a.Symbols {
			path := loc{"abstraction.symbols[%d].text", i, 0}
			diag.text(path, s.Text)
			if s.Text == "" {
				diag.add(path, "text must not be empty")
			}
			diag.value(loc{"abstraction.symbols[%d].value", i, 0}, s.Value, derived)
		}
	}

	if len(diag.list) > 0 {
		return nil, &Error{Name: d.Name, Diagnostics: diag.list}
	}
	return newCompiled(d, compIdx, msgIdx, canonSize), nil
}

// ParseAndCompile decodes and compiles a JSON document in one step. Like
// Parse, it keeps nothing of data.
func ParseAndCompile(data []byte) (*Compiled, error) {
	d, compact, err := parse(data)
	if err != nil {
		return nil, err
	}
	return compile(d, compact)
}
