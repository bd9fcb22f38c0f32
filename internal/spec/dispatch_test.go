package spec

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"asagen/internal/core"
)

// ruleOracle is the rule-by-rule evaluator the dispatch tables replaced:
// every call walks the document's rules in order and evaluates each
// condition afresh against the member's scope. It is the oracle of the
// dispatch tests, and nowhere a fallback.
type ruleOracle struct {
	m     *specModel
	maxes []int
}

func newRuleOracle(m *specModel) ruleOracle {
	o := ruleOracle{m: m}
	for _, comp := range m.c.doc.Components {
		max := 1
		if comp.Kind == KindInt {
			max = comp.Max.eval(m.scope)
		}
		o.maxes = append(o.maxes, max)
	}
	return o
}

// condHolds evaluates the condition against a component value.
func condHolds(op string, have, want int) bool {
	switch op {
	case OpEq:
		return have == want
	case OpNe:
		return have != want
	case OpLt:
		return have < want
	case OpLe:
		return have <= want
	case OpGt:
		return have > want
	case OpGe:
		return have >= want
	}
	return false
}

// holds reports whether every condition is satisfied in state v.
func (o ruleOracle) holds(v core.Vector, conds []Cond) bool {
	for _, c := range conds {
		if !condHolds(c.Op, v[o.m.c.compIdx[c.Component]], c.Value.eval(o.m.scope)) {
			return false
		}
	}
	return true
}

func (o ruleOracle) apply(v core.Vector, msg string) (core.Effect, bool) {
	for _, r := range o.m.c.doc.Rules {
		if r.Message != msg || !o.holds(v, r.When) {
			continue
		}
		s := v.Clone()
		for _, a := range r.Set {
			idx := o.m.c.compIdx[a.Component]
			if a.Set != nil {
				s[idx] = a.Set.eval(o.m.scope)
			} else {
				s[idx] += a.Add
			}
			if s[idx] < 0 || s[idx] > o.maxes[idx] {
				return core.Effect{}, false
			}
		}
		var actions, notes []string
		if len(r.Actions) > 0 {
			actions = r.Actions
		}
		for _, note := range r.Annotations {
			notes = append(notes, o.m.replaceAll(o.m.fill(note), s))
		}
		return core.Effect{Target: s, Actions: actions, Annotations: notes, Finished: r.Finish}, true
	}
	return core.Effect{}, false
}

func (o ruleOracle) describe(v core.Vector) []string {
	var lines []string
	for _, r := range o.m.c.doc.Describe {
		if o.holds(v, r.When) {
			lines = append(lines, o.m.replaceAll(o.m.fill(r.Text), v))
		}
	}
	return lines
}

func (o ruleOracle) label(v core.Vector) string {
	for _, l := range o.m.c.doc.Abstraction.Labels {
		if o.holds(v, l.When) {
			return l.Label
		}
	}
	return "UNLABELLED"
}

// specMember instantiates the compiled document at param as the package's
// model type.
func specMember(t testing.TB, c *Compiled, param int) *specModel {
	t.Helper()
	m, err := c.Model(param)
	if err != nil {
		t.Fatal(err)
	}
	if tm, ok := m.(tolerantModel); ok {
		return tm.specModel
	}
	return m.(*specModel)
}

// forEachVector calls fn with every vector whose component i takes a
// value of values[i]. fn must not keep the vector.
func forEachVector(values [][]int, fn func(core.Vector)) {
	v := make(core.Vector, len(values))
	var walk func(i int)
	walk = func(i int) {
		if i == len(values) {
			fn(v)
			return
		}
		for _, val := range values[i] {
			v[i] = val
			walk(i + 1)
		}
	}
	walk(0)
}

// agreeWithOracle checks Apply on every message, DescribeState and — when
// the spec declares labels — StateLabel in state v against the oracle.
func agreeWithOracle(t *testing.T, m *specModel, o ruleOracle, abs *specAbstraction, v core.Vector) {
	t.Helper()
	for _, msg := range m.c.doc.Messages {
		got, gotOK := core.Apply(m, v, msg)
		want, wantOK := o.apply(v, msg)
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s at %d: Apply(%v, %q) = %+v, %v; the rules give %+v, %v",
				m.c.doc.Name, m.param, v, msg, got, gotOK, want, wantOK)
		}
	}
	if got, want := core.Describe(m, v), o.describe(v); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s at %d: DescribeState(%v) = %q; the rules give %q", m.c.doc.Name, m.param, v, got, want)
	}
	if abs != nil {
		if got, want := abs.StateLabel(v), o.label(v); got != want {
			t.Fatalf("%s at %d: StateLabel(%v) = %q; the rules give %q", m.c.doc.Name, m.param, v, got, want)
		}
	}
}

// embeddedDocs returns the documents the registry's built-in spec
// families are compiled from, by file name.
func embeddedDocs(t testing.TB) map[string]*Compiled {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "models", "*.json"))
	if err != nil || len(paths) != 4 {
		t.Fatalf("want the four built-in documents, found %v (%v)", paths, err)
	}
	out := map[string]*Compiled{}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		c, err := ParseAndCompile(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out[filepath.Base(path)] = c
	}
	return out
}

// TestDispatchAgreesWithRules holds the dispatch tables to the literal
// rules on every state of the domain: each embedded family at its sweep
// parameters and its smallest, and the counter grid the benchmarks use —
// whose 24 carve-outs per message name values outside the domain at
// small bounds — at several bounds.
func TestDispatchAgreesWithRules(t *testing.T) {
	type family struct {
		c      *Compiled
		params []int
	}
	families := map[string]family{}
	for name, c := range embeddedDocs(t) {
		families[name] = family{c, append([]int{c.doc.MinParam}, c.doc.SweepParams...)}
	}
	grid, err := Compile(gridDoc())
	if err != nil {
		t.Fatal(err)
	}
	families["grid"] = family{grid, []int{1, 2, 3, 5}}
	// Guards that give one verdict over the whole domain fold into their
	// block's mask: a refuted entry must stay refuted when a later
	// component's guards admit it everywhere.
	folds, err := Compile(Doc{
		Name: "folds",
		Components: []Component{
			{Name: "a", Kind: KindBool},
			{Name: "b", Kind: KindInt, Max: ParamValue(0)},
		},
		Messages: []string{"M"},
		Rules: []Rule{
			{Message: "M", When: []Cond{{Component: "a", Op: OpEq, Value: Lit(5)}, {Component: "b", Op: OpGe, Value: Lit(0)}},
				Actions: []string{"->never"}},
			{Message: "M", When: []Cond{{Component: "b", Op: OpNe, Value: Lit(-3)}, {Component: "a", Op: OpLe, Value: Lit(1)}},
				Actions: []string{"->always"}},
		},
		Describe: []DescribeRule{
			{When: []Cond{{Component: "a", Op: OpGt, Value: Lit(1)}, {Component: "b", Op: OpLt, Value: ParamValue(1)}}, Text: "never"},
			{When: []Cond{{Component: "b", Op: OpLe, Value: ParamValue(0)}}, Text: "always"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	families["folds"] = family{folds, []int{1, 3}}
	for name, f := range families {
		checked := 0
		for _, param := range f.params {
			m := specMember(t, f.c, param)
			size, values := 1, make([][]int, len(m.maxes))
			for i, max := range m.maxes {
				size *= max + 1
				for val := 0; val <= max; val++ {
					values[i] = append(values[i], val)
				}
			}
			if size > 1<<15 {
				continue
			}
			var abs *specAbstraction
			if f.c.HasEFSM() {
				abs = newAbstraction(f.c, param)
			}
			o := newRuleOracle(m)
			forEachVector(values, func(v core.Vector) { agreeWithOracle(t, m, o, abs, v) })
			checked++
		}
		if checked < 2 {
			t.Errorf("%s: only %d parameters have a domain small enough to walk", name, checked)
		}
	}
}

// TestMemberCostIsFlatInTheParameter pins what instantiating a family
// member allocates to the number of guards: at r=2^40 every embedded family
// allocates what it does at r=8. A member used to size a bitset over its
// component's domain for each guard, so this GET ended the server with
// "runtime: out of memory" before generation ever saw a context.
func TestMemberCostIsFlatInTheParameter(t *testing.T) {
	for name, c := range embeddedDocs(t) {
		allocs := func(param int) float64 {
			return testing.AllocsPerRun(5, func() {
				if _, err := c.Model(param); err != nil {
					t.Fatalf("%s: Model(%d): %v", name, param, err)
				}
			})
		}
		if small, huge := allocs(8), allocs(1<<40); huge != small {
			t.Errorf("%s: Model(1<<40) allocates %v times, Model(8) %v", name, huge, small)
		}
	}
}

// fuzzDoc builds a document from a fuzz program: a bool component, one
// bounded by the parameter and one bounded by big; three messages; and
// rules, describe rules and label rules whose guards compare against
// literals in and out of the domain, the parameter, derived values and
// values next to math.MaxInt and math.MinInt. The program's first bytes
// pick how many describe and label rules there are, each up to 79, and
// how many rules go to the first message, so it can hold more than 64;
// the rest are spread over all three.
func fuzzDoc(prog []byte, big int) Doc {
	pos := 0
	next := func() int {
		if pos >= len(prog) {
			return 0
		}
		pos++
		return int(prog[pos-1])
	}
	value := func() Value {
		b := next()
		k := b >> 3
		switch b & 7 {
		case 0:
			return Lit(k - 4)
		case 1:
			return ParamValue(k%5 - 2)
		case 2:
			return Value{Derived: "half", Offset: k%3 - 1}
		case 3:
			return Value{Derived: "neg", Offset: k % 3}
		case 4:
			return Lit(math.MaxInt - k%3)
		case 5:
			return Lit(big - k%3 + 1)
		case 6:
			return Lit(math.MinInt + k%3)
		default:
			return Value{Param: true, Derived: "half", Offset: math.MaxInt - k%2}
		}
	}
	comps := []string{"a", "b", "c"}
	ops := []string{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	when := func() []Cond {
		var conds []Cond
		for n := next() % 4; n > 0; n-- {
			b := next()
			conds = append(conds, Cond{Component: comps[b%3], Op: ops[b/3%6], Value: value()})
		}
		return conds
	}
	d := Doc{
		Name: "fuzz",
		Derived: []Derived{
			{Name: "half", Value: ParamValue(0), Div: 2},
			{Name: "neg", Value: Lit(-7), Div: 2},
		},
		Components: []Component{
			{Name: "a", Kind: KindBool},
			{Name: "b", Kind: KindInt, Max: ParamValue(0)},
			{Name: "c", Kind: KindInt, Max: Lit(big)},
		},
		Messages: []string{"M0", "M1", "M2"},
	}
	for i := next() % 80; i > 0; i-- {
		d.Describe = append(d.Describe, DescribeRule{When: when(), Text: fmt.Sprintf("line %d: b={b}", i)})
	}
	d.Abstraction = &Abstraction{}
	for i := next() % 80; i > 0; i-- {
		d.Abstraction.Labels = append(d.Abstraction.Labels, LabelRule{When: when(), Label: fmt.Sprintf("L%d", i)})
	}
	d.Abstraction.Labels = append(d.Abstraction.Labels, LabelRule{Label: "REST"})
	first := next() + next()
	for i := 0; pos < len(prog) && len(d.Rules) < 160; i++ {
		r := Rule{Message: d.Messages[0], When: when()}
		if i >= first {
			r.Message = d.Messages[next()%3]
		}
		switch b := next(); b % 4 {
		case 1:
			r.Set = []Assign{{Component: comps[b/4%3], Add: b/12%3 - 1 | 1}}
		case 2:
			v := value()
			r.Set = []Assign{{Component: comps[b/4%3], Set: &v}}
		case 3:
			r.Annotations = []string{fmt.Sprintf("rule %d: {b} of {param}, {half} and {neg}, c={c}", i)}
		}
		if next()%8 == 0 {
			r.Finish = true
			r.Actions = []string{fmt.Sprintf("->done%d", i)}
		}
		d.Rules = append(d.Rules, r)
	}
	if len(d.Rules) == 0 {
		d.Rules = []Rule{{Message: "M0"}}
	}
	return d
}

// FuzzDispatchAgreesWithRules holds Apply, DescribeState and StateLabel to
// the literal rules on documents nobody wrote: messages with more than 64
// rules, guards on values outside the domain, on the parameter and derived
// values, and on values next to math.MaxInt, over a component whose domain
// reaches up to math.MaxInt. The parameter-bounded component is walked
// whole; the wide one at both ends and around every value a guard names,
// which is where a verdict can change.
//
// Without -fuzzminimizetime=0 minimising the 2 KB seeds eats the run.
//
//	go test ./internal/spec -run='^$' -fuzz=FuzzDispatchAgreesWithRules -fuzztime=10s -fuzzminimizetime=0
func FuzzDispatchAgreesWithRules(f *testing.F) {
	long := make([]byte, 0, 2048)
	for i := 0; i < 2048; i++ {
		long = append(long, byte(i*37+i/7))
	}
	f.Add(long, 3, math.MaxInt)
	f.Add(long[100:], 6, 40)
	f.Add(append([]byte{70, 75, 50, 30}, long...), 2, 1<<20)
	f.Add([]byte{70, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 1, 0)
	f.Add([]byte("\x40\x20the grid's carve-outs, spelt as bytes, over and over and over"), 4, 1<<40)
	f.Fuzz(func(t *testing.T, prog []byte, param, big int) {
		param = 1 + (param%6+6)%6
		if big < 0 {
			big = -(big + 1)
		}
		c, err := Compile(fuzzDoc(prog, big))
		if err != nil {
			t.Fatalf("a fuzz document does not compile: %v", err)
		}
		m := specMember(t, c, param)
		values := [][]int{{0, 1}, nil, nil}
		for val := 0; val <= param; val++ {
			values[1] = append(values[1], val)
		}
		wide := []int{0, 1, big - 1, big}
		for _, r := range c.doc.Rules {
			wide = appendNear(wide, r.When, m.scope)
		}
		for _, r := range c.doc.Describe {
			wide = appendNear(wide, r.When, m.scope)
		}
		for _, l := range c.doc.Abstraction.Labels {
			wide = appendNear(wide, l.When, m.scope)
		}
		slices.Sort(wide)
		for _, val := range slices.Compact(wide) {
			if 0 <= val && val <= big {
				values[2] = append(values[2], val)
			}
		}
		// Past 48 values, an evenly spaced 48 keep one input's run short;
		// other inputs reach the rest.
		if n := len(values[2]); n > 48 {
			picked := values[2][:0:0]
			for i := 0; i < 48; i++ {
				picked = append(picked, values[2][i*(n-1)/47])
			}
			values[2] = picked
		}
		o := newRuleOracle(m)
		abs := newAbstraction(c, param)
		forEachVector(values, func(v core.Vector) { agreeWithOracle(t, m, o, abs, v) })
	})
}

// appendNear appends, for each condition on component c (fuzzDoc's
// widest), its value and the values either side of it that do not
// overflow.
func appendNear(out []int, conds []Cond, s scope) []int {
	for _, cond := range conds {
		if cond.Component != "c" {
			continue
		}
		w := cond.Value.eval(s)
		out = append(out, w)
		if w > math.MinInt {
			out = append(out, w-1)
		}
		if w < math.MaxInt {
			out = append(out, w+1)
		}
	}
	return out
}

// replaceAll is the reference for expand: the component placeholders in a
// filled text substituted with their values in state v by one
// strings.ReplaceAll after another.
func (m *specModel) replaceAll(text string, v core.Vector) string {
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

// TestExpandAgreesWithReplaceAll: composing a line in a byte buffer
// substitutes the placeholders one after another exactly as
// strings.ReplaceAll does, also where one placeholder's value completes
// another's name, and leaves the bytes before it in the buffer alone.
func TestExpandAgreesWithReplaceAll(t *testing.T) {
	m := &specModel{c: &Compiled{placeholders: []string{"{a}", "{1}", "{b}", "{{a}}"}}}
	v := core.Vector{1, 22, 333, 4}
	for _, text := range []string{
		"plain", "{a}", "{a}{a}", "x{b}y{a}z", "{{a}}", "{{a}", "{a}}", "{", "}{", "{1}", "{{a}}{b}{c}",
	} {
		want := m.replaceAll(text, v)
		if got := string(m.appendExpanded([]byte("head:"), text, v)); got != "head:"+want {
			t.Errorf("%q: composed %q, ReplaceAll gives %q", text, got, want)
		}
	}
}
