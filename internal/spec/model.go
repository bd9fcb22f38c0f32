package spec

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"asagen/internal/core"
)

// Compiled is a validated specification ready to instantiate core.Model
// family members. It is immutable and safe for concurrent use.
type Compiled struct {
	doc Doc
	// rulesByMsg indexes the rules per message, preserving document order
	// (first matching rule fires).
	rulesByMsg map[string][]Rule
	// compIdx maps component names to their vector index.
	compIdx map[string]int
	// placeholders are the components' "{name}" keys, by vector index.
	placeholders []string
	// extra is the behavioural identity material folded into model
	// fingerprints, so two specs that share declared structure but differ
	// in rules never collide in the generation cache.
	extra []string
}

// newCompiled indexes a validated document. Compile is the only caller.
func newCompiled(d Doc) *Compiled {
	c := &Compiled{
		doc:        d,
		rulesByMsg: make(map[string][]Rule, len(d.Messages)),
		compIdx:    make(map[string]int, len(d.Components)),
	}
	for i, comp := range d.Components {
		c.compIdx[comp.Name] = i
		c.placeholders = append(c.placeholders, "{"+comp.Name+"}")
	}
	for _, r := range d.Rules {
		c.rulesByMsg[r.Message] = append(c.rulesByMsg[r.Message], r)
	}
	// The canonical JSON of the whole document is deterministic (struct
	// field order) and covers every behaviour-bearing field.
	canon, err := json.Marshal(d)
	if err != nil {
		// A Doc is marshalable by construction; failure is a programming
		// error, not an input error.
		panic(fmt.Sprintf("spec: canonicalise %q: %v", d.Name, err))
	}
	c.extra = []string{"asagen/spec/v1", string(canon)}
	return c
}

// Doc returns a copy of the compiled document.
func (c *Compiled) Doc() Doc { return c.doc }

// JSON returns the canonical JSON encoding of the compiled document — the
// wire form of POST /v1/models and the fsmgen -spec file format.
func (c *Compiled) JSON() ([]byte, error) {
	return json.MarshalIndent(c.doc, "", "  ")
}

// Name returns the registry key the spec registers under.
func (c *Compiled) Name() string { return c.doc.Name }

// HasEFSM reports whether the spec declares the EFSM abstraction hints.
func (c *Compiled) HasEFSM() bool { return c.doc.Abstraction != nil }

// Model instantiates the family member for a parameter value (<= 0 selects
// the spec's default parameter). A spec that declares its fault tolerance
// yields a model with a FaultTolerance method.
func (c *Compiled) Model(param int) (core.Model, error) {
	if param <= 0 {
		param = c.doc.DefaultParam
	}
	if param < c.doc.MinParam {
		return nil, fmt.Errorf("spec: model %q: %s %d < %d", c.doc.Name, c.doc.ParamName, param, c.doc.MinParam)
	}
	s := scopeAt(c.doc.Derived, param)
	for i, comp := range c.doc.Components {
		if comp.Kind == KindInt && comp.Max.eval(s) < 0 {
			return nil, fmt.Errorf("spec: model %q: component %q max %s is negative at %s %d",
				c.doc.Name, comp.Name, comp.Max, c.doc.ParamName, param)
		}
		if i < len(c.doc.Start) {
			if v := c.doc.Start[i].eval(s); v < 0 || v > c.maxOf(comp, s) {
				return nil, fmt.Errorf("spec: model %q: start value %s of component %q is outside [0, %d] at %s %d",
					c.doc.Name, c.doc.Start[i], comp.Name, c.maxOf(comp, s), c.doc.ParamName, param)
			}
		}
	}
	m := &specModel{c: c, param: param, scope: s}
	m.compile()
	if c.doc.FaultTolerance != nil {
		return tolerantModel{m}, nil
	}
	return m, nil
}

// maxOf returns the component's largest legal value in the scope.
func (c *Compiled) maxOf(comp Component, s scope) int {
	if comp.Kind == KindBool {
		return 1
	}
	return comp.Max.eval(s)
}

// Entry returns the registry entry for the compiled spec, wiring the model
// builder and — when the spec declares abstraction hints — the EFSM
// abstraction.
func (c *Compiled) Entry() core.Entry {
	e := core.Entry{
		Name:         c.doc.Name,
		Description:  c.doc.Description,
		ParamName:    c.doc.ParamName,
		DefaultParam: c.doc.DefaultParam,
		SweepParams:  append([]int(nil), c.doc.SweepParams...),
		Vocabulary:   c.doc.Vocabulary,
		Build:        c.Model,
		Spec:         c.doc,
	}
	if c.HasEFSM() {
		e.Abstraction = func(param int) (core.EFSMAbstraction, error) {
			return &specAbstraction{c: c, scope: scopeAt(c.doc.Derived, param)}, nil
		}
	}
	return e
}

// cGuard is one compiled guard condition: the component's allowed values
// as a packed bitset over its domain [0, max]. Evaluating a guard is a
// single bit test, regardless of the comparison operator it compiled from.
type cGuard struct {
	idx   int
	words []uint64
}

// holds reports whether the guard admits the component value.
func (g *cGuard) holds(val int) bool {
	return g.words[uint(val)>>6]&(1<<(uint(val)&63)) != 0
}

// cAssign is one compiled component update with the parameter resolved.
type cAssign struct {
	idx int
	set bool
	val int // the overwrite value when set, the delta otherwise
}

// cRule is one rule compiled for a concrete parameter: domain bitsets for
// the guards, resolved assignments, and the action/annotation lists copied
// once (empty lists normalised to nil) so Apply returns them without
// per-call cloning. The annotations have their parameter and derived
// placeholders filled in; perTarget marks a rule whose annotations name a
// component, which Apply fills in from the target state.
type cRule struct {
	guards      []cGuard
	sets        []cAssign
	actions     []string
	annotations []string
	perTarget   bool
	finish      bool
}

// specModel is one family member of a compiled spec: core.Model plus the
// Fingerprinter extra identifying the rule set. The rule set is compiled
// against the concrete parameter at construction, so Apply — the
// exploration's inner loop — performs only bit tests and integer updates.
type specModel struct {
	c     *Compiled
	param int
	scope scope
	// maxes[i] is component i's largest legal value at the parameter.
	maxes []int
	// rules holds the compiled rules per message, in document order.
	rules map[string][]cRule
	// describe holds the describe texts with their parameter and derived
	// placeholders filled in.
	describe []string
}

// compile resolves every parameter-dependent value and precomputes the
// guard bitsets by evaluating each condition over its component's full
// domain. Tautological guards (true for every domain value at this
// parameter) are dropped entirely.
func (m *specModel) compile() {
	d := &m.c.doc
	m.maxes = make([]int, len(d.Components))
	for i, comp := range d.Components {
		m.maxes[i] = m.c.maxOf(comp, m.scope)
	}
	m.rules = make(map[string][]cRule, len(m.c.rulesByMsg))
	for msg, rs := range m.c.rulesByMsg {
		crs := make([]cRule, 0, len(rs))
		for _, r := range rs {
			cr := cRule{finish: r.Finish}
			for _, cond := range r.When {
				idx := m.c.compIdx[cond.Component]
				max := m.maxes[idx]
				want := cond.Value.eval(m.scope)
				words := make([]uint64, max>>6+1)
				all := true
				for val := 0; val <= max; val++ {
					if condHolds(cond.Op, val, want) {
						words[uint(val)>>6] |= 1 << (uint(val) & 63)
					} else {
						all = false
					}
				}
				if all {
					continue
				}
				cr.guards = append(cr.guards, cGuard{idx: idx, words: words})
			}
			for _, a := range r.Set {
				ca := cAssign{idx: m.c.compIdx[a.Component]}
				if a.Set != nil {
					ca.set = true
					ca.val = a.Set.eval(m.scope)
				} else {
					ca.val = a.Add
				}
				cr.sets = append(cr.sets, ca)
			}
			if len(r.Actions) > 0 {
				cr.actions = append([]string(nil), r.Actions...)
			}
			for _, note := range r.Annotations {
				note = m.fill(note)
				cr.annotations = append(cr.annotations, note)
				cr.perTarget = cr.perTarget || m.namesComponent(note)
			}
			crs = append(crs, cr)
		}
		m.rules[msg] = crs
	}
	m.describe = make([]string, len(d.Describe))
	for i, r := range d.Describe {
		m.describe[i] = m.fill(r.Text)
	}
}

var (
	_ core.Model         = (*specModel)(nil)
	_ core.Fingerprinter = (*specModel)(nil)
)

// Name implements core.Model.
func (m *specModel) Name() string { return m.c.doc.ModelName }

// Parameter implements core.Model.
func (m *specModel) Parameter() int { return m.param }

// Components implements core.Model.
func (m *specModel) Components() []core.StateComponent {
	out := make([]core.StateComponent, len(m.c.doc.Components))
	for i, comp := range m.c.doc.Components {
		if comp.Kind == KindBool {
			out[i] = core.NewBoolComponent(comp.Name)
		} else {
			out[i] = core.NewIntComponent(comp.Name, m.maxes[i])
		}
	}
	return out
}

// Messages implements core.Model.
func (m *specModel) Messages() []string {
	return append([]string(nil), m.c.doc.Messages...)
}

// Start implements core.Model.
func (m *specModel) Start() core.Vector {
	v := make(core.Vector, len(m.c.doc.Components))
	for i, val := range m.c.doc.Start {
		v[i] = val.eval(m.scope)
	}
	return v
}

// holds reports whether every condition is satisfied in state v.
func (m *specModel) holds(v core.Vector, conds []Cond) bool {
	for _, c := range conds {
		idx := m.c.compIdx[c.Component]
		if !condHolds(c.Op, v[idx], c.Value.eval(m.scope)) {
			return false
		}
	}
	return true
}

// Apply implements core.Model: the message's compiled rules are tried in
// document order and the first rule whose guard bitsets all admit the
// state fires. A firing rule whose effect would drive any component
// outside its declared domain makes the message not applicable in that
// state instead — the implicit range guard that keeps every expressible
// spec a total, well-formed model (the paper's InvalidStateException
// path, Fig. 10): authors may write an unguarded counter increment and
// the machine simply stops reacting at the bound.
//
// The returned action and annotation slices alias the compiled rule and
// must not be mutated; they are immutable by construction. Only a rule
// whose annotations name a component returns annotations of its own.
func (m *specModel) Apply(v core.Vector, msg string) (core.Effect, bool) {
rules:
	for ri := range m.rules[msg] {
		r := &m.rules[msg][ri]
		for gi := range r.guards {
			if !r.guards[gi].holds(v[r.guards[gi].idx]) {
				continue rules
			}
		}
		s := v.Clone()
		for _, a := range r.sets {
			if a.set {
				s[a.idx] = a.val
			} else {
				s[a.idx] += a.val
			}
			if s[a.idx] < 0 || s[a.idx] > m.maxes[a.idx] {
				return core.Effect{}, false
			}
		}
		notes := r.annotations
		if r.perTarget {
			notes = make([]string, len(r.annotations))
			for i, note := range r.annotations {
				notes[i] = m.expand(note, s)
			}
		}
		return core.Effect{
			Target:      s,
			Actions:     r.actions,
			Annotations: notes,
			Finished:    r.finish,
		}, true
	}
	return core.Effect{}, false
}

// DescribeState implements core.Model: every matching describe rule
// contributes one line, with its placeholders substituted.
func (m *specModel) DescribeState(v core.Vector) []string {
	var lines []string
	for i, r := range m.c.doc.Describe {
		if !m.holds(v, r.When) {
			continue
		}
		lines = append(lines, m.expand(m.describe[i], v))
	}
	return lines
}

// fill substitutes the placeholders whose values the parameter fixes:
// "{param}" and each derived value's.
func (m *specModel) fill(text string) string {
	if !strings.Contains(text, "{") {
		return text
	}
	text = strings.ReplaceAll(text, "{"+paramPlaceholder+"}", strconv.Itoa(m.param))
	for name, val := range m.scope.derived {
		text = strings.ReplaceAll(text, "{"+name+"}", strconv.Itoa(val))
	}
	return text
}

// namesComponent reports whether text holds a component placeholder.
func (m *specModel) namesComponent(text string) bool {
	for _, key := range m.c.placeholders {
		if strings.Contains(text, key) {
			return true
		}
	}
	return false
}

// expand substitutes the component placeholders in a filled text with
// their values in state v.
func (m *specModel) expand(text string, v core.Vector) string {
	if !strings.Contains(text, "{") {
		return text
	}
	for idx, key := range m.c.placeholders {
		if strings.Contains(text, key) {
			text = strings.ReplaceAll(text, key, strconv.Itoa(v[idx]))
		}
	}
	return text
}

// FingerprintExtra implements core.Fingerprinter: the canonical document
// JSON, so behaviourally different specs never collide on one cache entry
// even when their declared structure matches.
func (m *specModel) FingerprintExtra() []string { return m.c.extra }

// tolerantModel is a family member of a spec that declares its fault
// tolerance; Machine.FaultTolerance and the version service read it
// through this method.
type tolerantModel struct{ *specModel }

// FaultTolerance returns the declared fault tolerance at the parameter.
func (m tolerantModel) FaultTolerance() int { return m.c.doc.FaultTolerance.eval(m.scope) }

// specAbstraction adapts the spec's abstraction hints to
// core.EFSMAbstraction.
type specAbstraction struct {
	c     *Compiled
	scope scope
}

var _ core.EFSMAbstraction = (*specAbstraction)(nil)

// StateLabel implements core.EFSMAbstraction: first matching label rule
// wins; validation guarantees the final rule is unconditional.
func (a *specAbstraction) StateLabel(v core.Vector) string {
	for _, l := range a.c.doc.Abstraction.Labels {
		ok := true
		for _, cond := range l.When {
			idx := a.c.compIdx[cond.Component]
			if !condHolds(cond.Op, v[idx], cond.Value.eval(a.scope)) {
				ok = false
				break
			}
		}
		if ok {
			return l.Label
		}
	}
	return "UNLABELLED" // unreachable: the final rule is unconditional
}

// GuardComponent implements core.EFSMAbstraction.
func (a *specAbstraction) GuardComponent(msg string) int {
	for _, g := range a.c.doc.Abstraction.Guards {
		if g.Message == msg {
			return a.c.compIdx[g.Component]
		}
	}
	return -1
}

// VarOps implements core.EFSMAbstraction.
func (a *specAbstraction) VarOps(msg string) []core.VarOp {
	var ops []core.VarOp
	for _, op := range a.c.doc.Abstraction.Ops {
		if op.Message == msg {
			ops = append(ops, core.VarOp{Variable: op.Component, Delta: op.Delta})
		}
	}
	return ops
}

// Symbol implements core.EFSMAbstraction: the first symbol rule whose
// value matches wins; unmatched values keep the literal rendering.
func (a *specAbstraction) Symbol(component, value int) string {
	for _, s := range a.c.doc.Abstraction.Symbols {
		if s.Value.eval(a.scope) == value {
			return s.Text
		}
	}
	return ""
}
