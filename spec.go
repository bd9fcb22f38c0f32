package asagen

import (
	"errors"

	"asagen/internal/spec"
)

// This file is the public model-authoring surface: a declarative,
// JSON-serialisable ModelSpec with a fluent builder, compiled into the
// same abstract-model form the built-in scenarios use. A compiled spec
// flows through the frontier-BFS generator, the fingerprint cache and
// every registered renderer unchanged — authoring a scenario no longer
// requires writing a Go adapter inside this repository (the paper's §3
// "compact parameterised specification", made first-class data).

// Value is a possibly parameter-affine integer used in component bounds,
// guards, assignments and EFSM symbol rules: a literal, or the model
// parameter plus an offset.
type Value struct {
	v spec.Value
}

// Lit returns the constant value n.
func Lit(n int) Value { return Value{v: spec.Lit(n)} }

// Param returns the model parameter (the replication factor, fan-out
// bound, … of the family member being generated).
func Param() Value { return Value{v: spec.ParamValue(0)} }

// Plus returns the value shifted by n, e.g. Param().Plus(-1).
func (v Value) Plus(n int) Value {
	v.v.Offset += n
	return v
}

// Comparison operators accepted by When: "==", "!=", "<", "<=", ">", ">=".

// Cond is one guard condition: a comparison of a state component against
// a Value.
type Cond struct {
	c spec.Cond
}

// When builds a guard condition, e.g. When("outstanding", "<", Param()).
func When(component, op string, v Value) Cond {
	return Cond{c: spec.Cond{Component: component, Op: op, Value: v.v}}
}

// SpecDiagnostic is one validation finding inside a model spec.
type SpecDiagnostic struct {
	// Path locates the offending field in the spec document, e.g.
	// "rules[2].when[0].component".
	Path string
	// Message explains the problem.
	Message string
}

// SpecError reports every problem found while compiling a ModelSpec; it
// matches ErrInvalidSpec under errors.Is.
type SpecError struct {
	// Name echoes the spec name, possibly empty.
	Name string
	// Diagnostics lists the problems in document order.
	Diagnostics []SpecDiagnostic
}

// Error implements error.
func (e *SpecError) Error() string {
	inner := &spec.Error{Name: e.Name}
	for _, d := range e.Diagnostics {
		inner.Diagnostics = append(inner.Diagnostics, spec.Diagnostic{Path: d.Path, Message: d.Message})
	}
	return inner.Error()
}

// ModelSpec is a declarative scenario specification under construction:
// state components, message vocabulary, guarded transition rules,
// per-state documentation, and optional EFSM abstraction hints. Build one
// with NewModelSpec, finish it with Compile (or let RegisterModel compile
// it), and register it on a Client. A ModelSpec is not safe for
// concurrent mutation; compiled forms are immutable and safe to share.
type ModelSpec struct {
	doc      spec.Doc
	rules    []*RuleSpec
	compiled *spec.Compiled
}

// NewModelSpec starts a spec registered under name. The name is the
// registry key (and URL path segment on the wire API): it must start with
// a letter and contain only letters, digits, '-', '_' or '.'.
func NewModelSpec(name string) *ModelSpec {
	return &ModelSpec{doc: spec.Doc{Name: name}}
}

// ParseModelSpec decodes the JSON form of a spec — the same document
// POST /v1/models accepts and fsmgen -spec reads. Unknown, repeated and
// case-folded keys, invalid UTF-8 and integers with a fraction or exponent
// are rejected. The result still goes through Compile-time validation on
// registration.
func ParseModelSpec(data []byte) (*ModelSpec, error) {
	doc, err := spec.Parse(data)
	if err != nil {
		return nil, wrapSentinel(ErrInvalidSpec, err)
	}
	return &ModelSpec{doc: doc}, nil
}

// Name returns the registry key the spec registers under.
func (s *ModelSpec) Name() string { return s.doc.Name }

// touch invalidates the cached compilation after a mutation.
func (s *ModelSpec) touch() { s.compiled = nil }

// Description sets the one-line scenario summary shown by listings.
func (s *ModelSpec) Description(text string) *ModelSpec {
	s.touch()
	s.doc.Description = text
	return s
}

// ModelName sets the model identity stamped on generated machines and
// artefacts; it defaults to the registry name.
func (s *ModelSpec) ModelName(name string) *ModelSpec {
	s.touch()
	s.doc.ModelName = name
	return s
}

// Parameter names the model parameter, sets its default value and the
// representative sweep values (ascending).
func (s *ModelSpec) Parameter(name string, def int, sweep ...int) *ModelSpec {
	s.touch()
	s.doc.ParamName = name
	s.doc.DefaultParam = def
	s.doc.SweepParams = append([]int(nil), sweep...)
	return s
}

// MinParam sets the smallest accepted parameter value (default 1).
func (s *ModelSpec) MinParam(n int) *ModelSpec {
	s.touch()
	s.doc.MinParam = n
	return s
}

// Vocabulary names the message vocabulary for runtime layers (see
// ModelInfo.Vocabulary); most specs leave it empty.
func (s *ModelSpec) Vocabulary(v string) *ModelSpec {
	s.touch()
	s.doc.Vocabulary = v
	return s
}

// Bool declares a boolean state component.
func (s *ModelSpec) Bool(name string) *ModelSpec {
	s.touch()
	s.doc.Components = append(s.doc.Components, spec.Component{Name: name, Kind: spec.KindBool})
	return s
}

// Int declares an integer state component ranging over [0, max]; max may
// be parameter-affine, e.g. Int("outstanding", Param()).
func (s *ModelSpec) Int(name string, max Value) *ModelSpec {
	s.touch()
	s.doc.Components = append(s.doc.Components, spec.Component{Name: name, Kind: spec.KindInt, Max: max.v})
	return s
}

// Messages declares the receivable message types, in canonical order.
func (s *ModelSpec) Messages(msgs ...string) *ModelSpec {
	s.touch()
	s.doc.Messages = append(s.doc.Messages, msgs...)
	return s
}

// Start overrides the all-zero start vector; pass one value per declared
// component, in declaration order.
func (s *ModelSpec) Start(values ...Value) *ModelSpec {
	s.touch()
	s.doc.Start = nil
	for _, v := range values {
		s.doc.Start = append(s.doc.Start, v.v)
	}
	return s
}

// Rule starts a guarded reaction to msg. For each message the rules are
// tried in declaration order and the first rule whose conditions all hold
// fires; a message with no matching rule is ignored in that state.
func (s *ModelSpec) Rule(msg string) *RuleSpec {
	s.touch()
	r := &RuleSpec{spec: s, rule: spec.Rule{Message: msg}}
	s.rules = append(s.rules, r)
	return r
}

// DescribeWhen adds one line of per-state documentation emitted when all
// conditions hold (unconditional when none are given). The text may
// reference "{param}" and "{<component>}" placeholders.
func (s *ModelSpec) DescribeWhen(text string, when ...Cond) *ModelSpec {
	s.touch()
	s.doc.Describe = append(s.doc.Describe, spec.DescribeRule{When: conds(when), Text: text})
	return s
}

// abstraction lazily allocates the EFSM hint set.
func (s *ModelSpec) abstraction() *spec.Abstraction {
	if s.doc.Abstraction == nil {
		s.doc.Abstraction = &spec.Abstraction{}
	}
	return s.doc.Abstraction
}

// EFSMLabel adds an abstract-state labelling rule for EFSM generalisation:
// concrete states satisfying the conditions coalesce under the label. The
// first matching rule wins; the final rule must be unconditional.
// Declaring any EFSM hint enables the efsm formats for the model.
func (s *ModelSpec) EFSMLabel(label string, when ...Cond) *ModelSpec {
	s.touch()
	a := s.abstraction()
	a.Labels = append(a.Labels, spec.LabelRule{When: conds(when), Label: label})
	return s
}

// EFSMGuard names the counter component whose value selects among the
// messages' outcomes during EFSM generalisation.
func (s *ModelSpec) EFSMGuard(component string, msgs ...string) *ModelSpec {
	s.touch()
	a := s.abstraction()
	for _, msg := range msgs {
		a.Guards = append(a.Guards, spec.GuardRule{Message: msg, Component: component})
	}
	return s
}

// EFSMCounter declares the counter update an EFSM transition performs
// when msg is received, e.g. EFSMCounter("SPAWN", "outstanding", +1).
func (s *ModelSpec) EFSMCounter(msg, component string, delta int) *ModelSpec {
	s.touch()
	a := s.abstraction()
	a.Ops = append(a.Ops, spec.VarOpRule{Message: msg, Component: component, Delta: delta})
	return s
}

// EFSMSymbol renders the concrete counter value v as a
// parameter-independent expression in EFSM guards, e.g.
// EFSMSymbol(Param(), "k"). The first matching rule wins; unmatched values
// render as literals.
func (s *ModelSpec) EFSMSymbol(v Value, text string) *ModelSpec {
	s.touch()
	a := s.abstraction()
	a.Symbols = append(a.Symbols, spec.SymbolRule{Value: v.v, Text: text})
	return s
}

// Compile validates the spec. It returns nil when the spec is well
// formed, and otherwise an error matching ErrInvalidSpec whose *SpecError
// (via errors.As) lists every diagnostic with its document path. Compile
// is idempotent; RegisterModel calls it implicitly.
func (s *ModelSpec) Compile() error {
	_, err := s.compile()
	return err
}

// compile assembles and validates the document, memoising the result.
func (s *ModelSpec) compile() (*spec.Compiled, error) {
	if s.compiled != nil {
		return s.compiled, nil
	}
	doc := s.doc
	if len(s.rules) > 0 {
		doc.Rules = append([]spec.Rule(nil), doc.Rules...)
		for _, r := range s.rules {
			doc.Rules = append(doc.Rules, r.rule)
		}
	}
	compiled, err := spec.Compile(doc)
	if err != nil {
		var serr *spec.Error
		if errors.As(err, &serr) {
			pub := &SpecError{Name: serr.Name}
			for _, d := range serr.Diagnostics {
				pub.Diagnostics = append(pub.Diagnostics, SpecDiagnostic{Path: d.Path, Message: d.Message})
			}
			return nil, wrapSentinel(ErrInvalidSpec, pub)
		}
		return nil, wrapSentinel(ErrInvalidSpec, err)
	}
	s.compiled = compiled
	return compiled, nil
}

// JSON returns the spec's canonical JSON document — the body accepted by
// POST /v1/models and fsmgen -spec. The spec must compile.
func (s *ModelSpec) JSON() ([]byte, error) {
	compiled, err := s.compile()
	if err != nil {
		return nil, err
	}
	return compiled.JSON()
}

func conds(cs []Cond) []spec.Cond {
	if len(cs) == 0 {
		return nil
	}
	out := make([]spec.Cond, len(cs))
	for i, c := range cs {
		out[i] = c.c
	}
	return out
}

// RuleSpec builds one guarded transition reaction; its methods chain and
// mutate the rule in place.
type RuleSpec struct {
	spec *ModelSpec
	rule spec.Rule
}

// When adds a guard condition; all conditions must hold for the rule to
// fire.
func (r *RuleSpec) When(component, op string, v Value) *RuleSpec {
	r.spec.touch()
	r.rule.When = append(r.rule.When, spec.Cond{Component: component, Op: op, Value: v.v})
	return r
}

// Set overwrites a component with a value when the rule fires.
func (r *RuleSpec) Set(component string, v Value) *RuleSpec {
	r.spec.touch()
	val := v.v
	r.rule.Set = append(r.rule.Set, spec.Assign{Component: component, Set: &val})
	return r
}

// Add increments a component by delta when the rule fires.
func (r *RuleSpec) Add(component string, delta int) *RuleSpec {
	r.spec.touch()
	r.rule.Set = append(r.rule.Set, spec.Assign{Component: component, Add: delta})
	return r
}

// Do records the outgoing messages performed on the transition, e.g.
// "->vote".
func (r *RuleSpec) Do(actions ...string) *RuleSpec {
	r.spec.touch()
	r.rule.Actions = append(r.rule.Actions, actions...)
	return r
}

// Note documents the reaction; the lines appear as transition annotations
// in generated artefacts.
func (r *RuleSpec) Note(lines ...string) *RuleSpec {
	r.spec.touch()
	r.rule.Annotations = append(r.rule.Annotations, lines...)
	return r
}

// Finish marks the transition as entering the synthetic finish state: the
// algorithm instance has completed.
func (r *RuleSpec) Finish() *RuleSpec {
	r.spec.touch()
	r.rule.Finish = true
	return r
}
