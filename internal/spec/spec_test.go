package spec

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"asagen/internal/core"
	"asagen/internal/termination"
)

// terminationDoc is the declarative port of the hand-written termination
// adapter (internal/termination): the proof that the spec language can
// express an existing scenario exactly. The root-package test pins
// byte-identical artefacts; here the machine fingerprints are compared.
func terminationDoc() Doc {
	return Doc{
		Name:         "termination-spec",
		ModelName:    "termination-detection",
		Description:  "declarative port of the termination-detection adapter",
		ParamName:    "fan-out bound",
		DefaultParam: 4,
		SweepParams:  []int{1, 2, 4, 8},
		Components: []Component{
			{Name: "active", Kind: KindBool},
			{Name: "outstanding", Kind: KindInt, Max: ParamValue(0)},
		},
		Messages: []string{"TASK", "SPAWN", "CHILD_DONE", "IDLE"},
		Rules: []Rule{
			{
				Message:     "TASK",
				When:        []Cond{{Component: "active", Op: OpEq, Value: Lit(0)}},
				Set:         []Assign{{Component: "active", Set: ptr(Lit(1))}},
				Annotations: []string{"Activated by an incoming task."},
			},
			{
				Message: "SPAWN",
				When: []Cond{
					{Component: "active", Op: OpEq, Value: Lit(1)},
					{Component: "outstanding", Op: OpLt, Value: ParamValue(0)},
				},
				Set:         []Assign{{Component: "outstanding", Add: 1}},
				Actions:     []string{"->task"},
				Annotations: []string{"Delegate a child task and count it outstanding."},
			},
			{
				Message: "CHILD_DONE",
				When: []Cond{
					{Component: "outstanding", Op: OpEq, Value: Lit(1)},
					{Component: "active", Op: OpEq, Value: Lit(0)},
				},
				Set:     []Assign{{Component: "outstanding", Add: -1}},
				Actions: []string{"->done"},
				Annotations: []string{
					"One delegated task completed.",
					"Idle with no outstanding children: report completion.",
				},
				Finish: true,
			},
			{
				Message:     "CHILD_DONE",
				When:        []Cond{{Component: "outstanding", Op: OpGe, Value: Lit(1)}},
				Set:         []Assign{{Component: "outstanding", Add: -1}},
				Annotations: []string{"One delegated task completed."},
			},
			{
				Message: "IDLE",
				When: []Cond{
					{Component: "active", Op: OpEq, Value: Lit(1)},
					{Component: "outstanding", Op: OpEq, Value: Lit(0)},
				},
				Set:     []Assign{{Component: "active", Set: ptr(Lit(0))}},
				Actions: []string{"->done"},
				Annotations: []string{
					"Local work finished.",
					"No outstanding children: report completion.",
				},
				Finish: true,
			},
			{
				Message:     "IDLE",
				When:        []Cond{{Component: "active", Op: OpEq, Value: Lit(1)}},
				Set:         []Assign{{Component: "active", Set: ptr(Lit(0))}},
				Annotations: []string{"Local work finished."},
			},
		},
		Describe: []DescribeRule{
			{When: []Cond{{Component: "active", Op: OpEq, Value: Lit(1)}}, Text: "Process is active."},
			{When: []Cond{{Component: "active", Op: OpEq, Value: Lit(0)}}, Text: "Process is idle."},
			{Text: "{outstanding} delegated tasks outstanding (bound {param})."},
		},
		Abstraction: &Abstraction{
			Labels: []LabelRule{
				{When: []Cond{{Component: "active", Op: OpEq, Value: Lit(1)}}, Label: "ACTIVE"},
				{Label: "IDLE_WAITING"},
			},
			Guards: []GuardRule{
				{Message: "SPAWN", Component: "outstanding"},
				{Message: "CHILD_DONE", Component: "outstanding"},
				{Message: "IDLE", Component: "outstanding"},
			},
			Ops: []VarOpRule{
				{Message: "SPAWN", Component: "outstanding", Delta: 1},
				{Message: "CHILD_DONE", Component: "outstanding", Delta: -1},
			},
			Symbols: []SymbolRule{
				{Value: Lit(0), Text: "0"},
				{Value: Lit(1), Text: "1"},
				{Value: ParamValue(0), Text: "k"},
				{Value: ParamValue(-1), Text: "k-1"},
			},
		},
	}
}

func ptr(v Value) *Value { return &v }

// TestCompileTerminationEquivalence: the spec-built machine is
// fingerprint-identical (states, transitions, annotations, everything the
// renderers consume) to the hand-written adapter's machine across the
// sweep parameters.
func TestCompileTerminationEquivalence(t *testing.T) {
	c, err := Compile(terminationDoc())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 4, 8} {
		specModel, err := c.Model(k)
		if err != nil {
			t.Fatal(err)
		}
		handModel, err := termination.NewModel(k)
		if err != nil {
			t.Fatal(err)
		}
		specMachine, err := core.Generate(context.Background(), specModel)
		if err != nil {
			t.Fatalf("k=%d: generate spec machine: %v", k, err)
		}
		handMachine, err := core.Generate(context.Background(), handModel)
		if err != nil {
			t.Fatalf("k=%d: generate adapter machine: %v", k, err)
		}
		if got, want := specMachine.Fingerprint(), handMachine.Fingerprint(); got != want {
			t.Errorf("k=%d: machine fingerprints differ: spec %s, adapter %s", k, got.Short(), want.Short())
		}
	}
}

// TestCompileTerminationEFSM: the spec's abstraction hints generalise to
// the same EFSM the hand-written abstraction produces.
func TestCompileTerminationEFSM(t *testing.T) {
	c, err := Compile(terminationDoc())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 4, 8} {
		specEFSM, err := c.Entry().EFSM(context.Background(), k)
		if err != nil {
			t.Fatalf("k=%d: spec EFSM: %v", k, err)
		}
		handModel, err := termination.NewModel(k)
		if err != nil {
			t.Fatal(err)
		}
		handEFSM, err := core.GenerateEFSM(context.Background(), handModel, termination.NewAbstraction(handModel))
		if err != nil {
			t.Fatalf("k=%d: adapter EFSM: %v", k, err)
		}
		if got, want := specEFSM.StateNames(), handEFSM.StateNames(); !equalStrings(got, want) {
			t.Errorf("k=%d: state names = %v, want %v", k, got, want)
		}
		if got, want := specEFSM.TransitionCount(), handEFSM.TransitionCount(); got != want {
			t.Errorf("k=%d: transitions = %d, want %d", k, got, want)
		}
		if got, want := specEFSM.Variables, handEFSM.Variables; !equalStrings(got, want) {
			t.Errorf("k=%d: variables = %v, want %v", k, got, want)
		}
	}
}

// TestCompileLeavesTheDocumentAlone: a compiled spec's members read their
// conditions from the document compile was given, whose slices its caller
// keeps (a ModelSpec builder, a compiled form still serving members), so
// neither compiling it nor building members and abstractions writes into
// them. Four goroutines compile one document at once, each building a
// member and an abstraction; under -race a write while another goroutine
// reads is reported too.
func TestCompileLeavesTheDocumentAlone(t *testing.T) {
	doc, want := terminationDoc(), terminationDoc()
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Compile(doc)
			if err != nil {
				t.Error(err)
				return
			}
			e := c.Entry()
			m, err := e.Build(e.DefaultParam)
			if err != nil {
				t.Error(err)
				return
			}
			a, err := e.Abstraction(e.DefaultParam)
			if err != nil {
				t.Error(err)
				return
			}
			v := m.Start()
			if _, ok := core.Apply(m, v, "TASK"); !ok {
				t.Error("TASK does not apply in the start state")
			}
			if got := a.StateLabel(v); got != "IDLE_WAITING" {
				t.Errorf("the start state is labelled %s", got)
			}
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(doc, want) {
		t.Errorf("compiling changed the document:\n got %+v\nwant %+v", doc, want)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCompileDiagnostics: every problem is reported with its document
// path, not just the first one.
func TestCompileDiagnostics(t *testing.T) {
	doc := Doc{
		Name: "9bad name",
		Components: []Component{
			{Name: "a", Kind: "bool"},
			{Name: "a", Kind: "float"},
		},
		Messages: []string{"GO", "GO", " "},
		Rules: []Rule{
			{Message: "NOPE", When: []Cond{{Component: "zz", Op: "~=", Value: Lit(0)}}},
			{Message: "GO", Set: []Assign{{Component: "a"}}},
		},
		Abstraction: &Abstraction{
			Labels: []LabelRule{{When: []Cond{{Component: "a", Op: OpEq, Value: Lit(1)}}, Label: "X"}},
			Ops:    []VarOpRule{{Message: "GO", Component: "a", Delta: 0}},
		},
	}
	_, err := Compile(doc)
	var serr *Error
	if !errors.As(err, &serr) {
		t.Fatalf("Compile error = %T (%v), want *Error", err, err)
	}
	wantPaths := []string{
		"name",
		"components[1].name",
		"messages[1]",
		"messages[2]",
		"rules[0].message",
		"rules[0].when[0].component",
		"rules[0].when[0].op",
		"rules[1].set[0]",
		"abstraction.labels",
		"abstraction.ops[0].delta",
	}
	got := map[string]bool{}
	for _, d := range serr.Diagnostics {
		got[d.Path] = true
	}
	for _, p := range wantPaths {
		if !got[p] {
			t.Errorf("missing diagnostic at %s; have %v", p, serr.Diagnostics)
		}
	}
	if !strings.Contains(err.Error(), "9bad name") {
		t.Errorf("error message does not name the spec: %v", err)
	}
}

// TestCompileRejectsControlCharacters: free text ends up in generated
// artefacts, where a line break would leave the Go comment it was placed
// in; every such field is refused with its document path.
func TestCompileRejectsControlCharacters(t *testing.T) {
	const inject = "ok\nStateInjected"
	doc := terminationDoc()
	doc.ModelName = inject
	doc.Description = "tab\tbed"
	doc.ParamName = "bell\a"
	doc.Vocabulary = "del\x7f"
	doc.Components[0].Name = inject
	doc.Messages[3] = "IDLE\r"
	doc.Rules[0].Actions = []string{"->go\nfunc init() {}"}
	doc.Rules[0].Annotations = []string{inject}
	doc.Describe = []DescribeRule{{Text: inject}}
	doc.Abstraction = &Abstraction{
		Labels:  []LabelRule{{Label: "L\u0085"}},
		Symbols: []SymbolRule{{Value: Lit(1), Text: "one\n"}},
	}
	_, err := Compile(doc)
	var serr *Error
	if !errors.As(err, &serr) {
		t.Fatalf("Compile error = %T (%v), want *Error", err, err)
	}
	got := map[string]bool{}
	for _, d := range serr.Diagnostics {
		if strings.Contains(d.Message, "control characters") {
			got[d.Path] = true
		}
	}
	for _, p := range []string{
		"model_name", "description", "param_name", "vocabulary", "components[0].name", "messages[3]",
		"rules[0].actions[0]", "rules[0].annotations[0]", "describe[0].text",
		"abstraction.labels[0].label", "abstraction.symbols[0].text",
	} {
		if !got[p] {
			t.Errorf("no control-character diagnostic at %s; have %v", p, serr.Diagnostics)
		}
	}
	// Printable text in any script stays legal.
	doc = terminationDoc()
	doc.ModelName = "terminaison — détection «日本»"
	if _, err := Compile(doc); err != nil {
		t.Errorf("printable model name refused: %v", err)
	}
}

// TestCompileRejectsWhatTheGoRendererWould: a spec whose messages or
// actions meet at one generated Go method name, or whose free text gofmt
// or go/scanner would not leave in its comment, used to register and then
// fail every GET of the go format as a server defect. It is refused here,
// at the path of the later of the two, naming both.
func TestCompileRejectsWhatTheGoRendererWould(t *testing.T) {
	doc := terminationDoc()
	doc.ModelName = "+build ignore"
	doc.Messages = append(doc.Messages, "a b", "a_b", "-")
	doc.Rules[0].Actions = []string{"->x y", "->x y"}
	doc.Rules[1].Actions = []string{"->x_y"}
	doc.Describe = []DescribeRule{{Text: "bad\xffutf8"}, {Text: "\ufeffbom"}, {Text: "+buildable"}}
	_, err := Compile(doc)
	var serr *Error
	if !errors.As(err, &serr) {
		t.Fatalf("Compile error = %T (%v), want *Error", err, err)
	}
	want := map[string][]string{
		"model_name":          {"+build"},
		"messages[5]":         {`"a b"`, `"a_b"`, "Machine.ReceiveAB"},
		"messages[6]":         {`"-"`, "Machine.Receive"},
		"rules[1].actions[0]": {`"->x y"`, `"->x_y"`, "Actions.SendXY"},
		"describe[0].text":    {"invalid UTF-8"},
		"describe[1].text":    {"byte order mark"},
	}
	if len(serr.Diagnostics) != len(want) {
		t.Errorf("%d diagnostics, want %d: %v", len(serr.Diagnostics), len(want), serr.Diagnostics)
	}
	for _, d := range serr.Diagnostics {
		for _, text := range want[d.Path] {
			if !strings.Contains(d.Message, text) {
				t.Errorf("%s: %q does not mention %s", d.Path, d.Message, text)
			}
		}
		if want[d.Path] == nil {
			t.Errorf("unexpected diagnostic %v", d)
		}
	}
}

// TestParseStrict: unknown fields and trailing data are rejected, and a
// valid doc round-trips through JSON to an identical compiled model.
func TestParseStrict(t *testing.T) {
	if _, err := Parse([]byte(`{"name":"x","typo_field":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := Parse([]byte(`{"name":"x"} trailing`)); err == nil {
		t.Error("trailing data accepted")
	}

	doc := terminationDoc()
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := Compile(doc)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := ParseAndCompile(data)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := c1.Model(0)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := c2.Model(0)
	if err != nil {
		t.Fatal(err)
	}
	if fp1, fp2 := core.FingerprintModel(m1), core.FingerprintModel(m2); fp1 != fp2 {
		t.Errorf("JSON round-trip changed the model fingerprint: %s != %s", fp1.Short(), fp2.Short())
	}
}

// TestModelParameterValidation: parameters below min_param and int
// components whose affine max goes negative are rejected at build time.
func TestModelParameterValidation(t *testing.T) {
	doc := terminationDoc()
	doc.MinParam = 2
	doc.DefaultParam = 4
	doc.SweepParams = []int{2, 4, 8}
	c, err := Compile(doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Model(1); err == nil {
		t.Error("parameter below min_param accepted")
	}
	if m, err := c.Model(0); err != nil || m.Parameter() != 4 {
		t.Errorf("Model(0) = (%v, %v), want default parameter 4", m, err)
	}

	neg := Doc{
		Name:       "negmax",
		Components: []Component{{Name: "c", Kind: KindInt, Max: ParamValue(-10)}},
		Messages:   []string{"GO"},
		Rules:      []Rule{{Message: "GO", Set: []Assign{{Component: "c", Add: 1}}}},
		MinParam:   1, DefaultParam: 20,
	}
	nc, err := Compile(neg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Model(5); err == nil {
		t.Error("negative component max accepted")
	}
	if _, err := nc.Model(20); err != nil {
		t.Errorf("Model(20): %v", err)
	}
}

// TestImplicitRangeGuard: a rule whose effect would drive a component
// outside its declared domain makes the message not applicable instead
// of producing an invalid machine — an unguarded counter increment
// saturates at the bound, and the registered spec stays generatable.
func TestImplicitRangeGuard(t *testing.T) {
	doc := Doc{
		Name: "unbounded-counter",
		Components: []Component{
			{Name: "c", Kind: KindInt, Max: ParamValue(0)},
		},
		Messages:     []string{"GO", "BACK"},
		DefaultParam: 2,
		Rules: []Rule{
			{Message: "GO", Set: []Assign{{Component: "c", Add: 1}}},
			{Message: "BACK", Set: []Assign{{Component: "c", Add: -1}}},
		},
	}
	c, err := Compile(doc)
	if err != nil {
		t.Fatal(err)
	}
	m, err := c.Model(2)
	if err != nil {
		t.Fatal(err)
	}
	machine, err := core.Generate(context.Background(), m)
	if err != nil {
		t.Fatalf("unguarded increments must still generate: %v", err)
	}
	// States 0..2; GO saturates at 2, BACK at 0.
	if got := len(machine.States); got != 3 {
		t.Errorf("states = %d, want 3", got)
	}
	if _, ok := core.Apply(m, core.Vector{2}, "GO"); ok {
		t.Error("GO applicable at the upper bound")
	}
	if _, ok := core.Apply(m, core.Vector{0}, "BACK"); ok {
		t.Error("BACK applicable at the lower bound")
	}
	if eff, ok := core.Apply(m, core.Vector{1}, "GO"); !ok || eff.Target[0] != 2 {
		t.Errorf("GO at 1 = (%v, %v), want target 2", eff, ok)
	}
}

// TestStartVectorValidation: out-of-range start values are compile-time
// diagnostics at the default parameter and build-time errors elsewhere.
func TestStartVectorValidation(t *testing.T) {
	doc := terminationDoc()
	doc.Start = []Value{Lit(2), Lit(1)} // active is bool: max 1
	_, err := Compile(doc)
	var serr *Error
	if !errors.As(err, &serr) {
		t.Fatalf("Compile error = %v, want *Error", err)
	}
	found := false
	for _, d := range serr.Diagnostics {
		if d.Path == "start[0]" {
			found = true
		}
	}
	if !found {
		t.Errorf("missing start[0] diagnostic in %v", serr.Diagnostics)
	}

	// Parameter-affine start values can go out of range only for some
	// parameters; that surfaces at Model build time.
	doc = terminationDoc()
	doc.Start = []Value{Lit(0), ParamValue(-2)} // negative for k < 2
	c, err := Compile(doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Model(1); err == nil {
		t.Error("negative start value accepted at k=1")
	}
	if _, err := c.Model(4); err != nil {
		t.Errorf("Model(4): %v", err)
	}
}

// TestDescribeExpansion: placeholder substitution covers {param} and
// component names.
func TestDescribeExpansion(t *testing.T) {
	c, err := Compile(terminationDoc())
	if err != nil {
		t.Fatal(err)
	}
	m, err := c.Model(4)
	if err != nil {
		t.Fatal(err)
	}
	lines := core.Describe(m, core.Vector{1, 3})
	want := []string{"Process is active.", "3 delegated tasks outstanding (bound 4)."}
	if !equalStrings(lines, want) {
		t.Errorf("DescribeState = %v, want %v", lines, want)
	}
}

// TestFingerprintExtraDistinguishesRules: two specs with identical
// declared structure but different transition logic must not collide on
// one generation-cache key.
func TestFingerprintExtraDistinguishesRules(t *testing.T) {
	a := terminationDoc()
	b := terminationDoc()
	b.Rules[0].Annotations = []string{"A different reaction narrative."}
	ca, err := Compile(a)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := Compile(b)
	if err != nil {
		t.Fatal(err)
	}
	ma, err := ca.Model(4)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := cb.Model(4)
	if err != nil {
		t.Fatal(err)
	}
	if core.FingerprintModel(ma) == core.FingerprintModel(mb) {
		t.Error("specs with different rules share a model fingerprint")
	}
}

// TestEntryShape: the registry entry carries the spec metadata and the
// EFSM builder only when abstraction hints exist.
func TestEntryShape(t *testing.T) {
	c, err := Compile(terminationDoc())
	if err != nil {
		t.Fatal(err)
	}
	e := c.Entry()
	if e.Name != "termination-spec" || e.ParamName != "fan-out bound" || e.DefaultParam != 4 {
		t.Errorf("entry = %+v", e)
	}
	if e.Abstraction == nil {
		t.Error("entry lost the EFSM abstraction")
	}

	doc := terminationDoc()
	doc.Abstraction = nil
	c2, err := Compile(doc)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Entry().Abstraction != nil {
		t.Error("entry has an EFSM abstraction without abstraction hints")
	}
}

// TestCompileDiagnosticsByteForByte pins every diagnostic Compile can
// attach — path and text — to what it read when each path was formatted
// up front, whether or not anything was wrong there. Paths are now put
// together only for a diagnostic (see loc); a client that matches on them
// must see no difference.
func TestCompileDiagnosticsByteForByte(t *testing.T) {
	outOfRangeStart := terminationDoc()
	outOfRangeStart.Start = []Value{Lit(2), ParamValue(1)}
	for _, c := range []struct {
		name string
		doc  Doc
		want []string
	}{
		{"everything wrong", Doc{
			Name:         "9bad name",
			ModelName:    "ok\nInjected",
			Description:  "tab\tbed",
			ParamName:    "bell\a",
			Vocabulary:   "del\x7f",
			MinParam:     -1,
			DefaultParam: -2,
			SweepParams:  []int{4, -3},
			Components: []Component{
				{Name: "a", Kind: KindBool},
				{Name: "a", Kind: "float"},
				{Name: "", Kind: KindInt, Max: Lit(-1)},
				{Name: "n\n", Kind: KindInt, Max: Lit(2)},
			},
			Messages: []string{"GO", "GO", " ", "a b", "a_b", "-", "IDLE\r"},
			Start:    []Value{Lit(0)},
			Rules: []Rule{
				{Message: "NOPE", When: []Cond{{Component: "zz", Op: "~=", Value: Lit(0)}, {Component: "a", Op: OpEq}}},
				{Message: "GO", Set: []Assign{{Component: "a"}, {Component: "yy", Set: ptr(Lit(1)), Add: 1}},
					Actions: []string{"->x y", " ", "->x_y", "->go\nfunc"}, Annotations: []string{"fine", "bad\xffutf8"}},
			},
			Describe: []DescribeRule{
				{Text: ""},
				{Text: "nul\x00", When: []Cond{{Component: "q", Op: "="}}},
			},
			Abstraction: &Abstraction{
				Labels:  []LabelRule{{Label: ""}, {When: []Cond{{Component: "w", Op: OpEq, Value: Lit(1)}}, Label: "L\x7f"}},
				Guards:  []GuardRule{{Message: "GONE", Component: "gone"}},
				Ops:     []VarOpRule{{Message: "GONE", Component: "gone", Delta: 0}},
				Symbols: []SymbolRule{{Value: Lit(1), Text: ""}, {Value: Lit(2), Text: "two\n"}},
			},
		}, []string{
			`name: must start with a letter and contain only letters, digits, '-', '_' or '.' (got "9bad name")`,
			`model_name: must not contain control characters (got "ok\nInjected")`,
			`description: must not contain control characters (got "tab\tbed")`,
			`param_name: must not contain control characters (got "bell\a")`,
			`vocabulary: must not contain control characters (got "del\x7f")`,
			`min_param: must be >= 1 (got -1)`,
			`default_param: must be >= min_param -1 (got -2)`,
			`sweep_params[1]: parameter -3 < min_param -1`,
			`components[1].name: duplicate component "a"`,
			`components[1].kind: unknown kind "float" (want "bool" or "int")`,
			`components[2].name: component name must not be empty`,
			`components[2].max: component "" max -1 is negative at the default parameter -2`,
			`components[3].name: must not contain control characters (got "n\n")`,
			`messages[1]: duplicate message "GO"`,
			`messages[2]: message name must not be blank`,
			`messages[4]: messages "a b" and "a_b" both derive the Go name Machine.ReceiveAB`,
			`messages[5]: message "-": derived name Machine.Receive is the generated dispatcher's own`,
			`messages[6]: must not contain control characters (got "IDLE\r")`,
			`start: got 1 values for 4 components`,
			`rules[0].message: unknown message "NOPE"`,
			`rules[0].when[0].component: unknown component "zz"`,
			`rules[0].when[0].op: unknown operator "~="`,
			`rules[1].set[0]: one of set or add is required`,
			`rules[1].set[1].component: unknown component "yy"`,
			`rules[1].set[1]: set and add are mutually exclusive`,
			`rules[1].actions[1]: action must not be blank`,
			`rules[1].actions[2]: actions "->x y" and "->x_y" both derive the Go name Actions.SendXY`,
			`rules[1].actions[3]: must not contain control characters (got "->go\nfunc")`,
			`rules[1].annotations[1]: cannot be written into generated Go source: comment text "bad\xffutf8" contains NUL, a byte order mark or invalid UTF-8`,
			`describe[0].text: text must not be empty`,
			`describe[1].text: must not contain control characters (got "nul\x00")`,
			`describe[1].when[0].component: unknown component "q"`,
			`describe[1].when[0].op: unknown operator "="`,
			`abstraction.labels: the final label rule must be unconditional so every state has a label`,
			`abstraction.labels[0].label: label must not be empty`,
			`abstraction.labels[1].label: must not contain control characters (got "L\x7f")`,
			`abstraction.labels[1].when[0].component: unknown component "w"`,
			`abstraction.guards[0].message: unknown message "GONE"`,
			`abstraction.guards[0].component: unknown component "gone"`,
			`abstraction.ops[0].message: unknown message "GONE"`,
			`abstraction.ops[0].component: unknown component "gone"`,
			`abstraction.ops[0].delta: delta must not be zero`,
			`abstraction.symbols[0].text: text must not be empty`,
			`abstraction.symbols[1].text: must not contain control characters (got "two\n")`,
		}},
		{"nothing there", Doc{Abstraction: &Abstraction{}}, []string{
			`name: must start with a letter and contain only letters, digits, '-', '_' or '.' (got "")`,
			`components: at least one state component is required`,
			`messages: at least one message is required`,
			`rules: at least one rule is required`,
			`abstraction.labels: at least one label rule is required`,
		}},
		{"start outside its domain", outOfRangeStart, []string{
			`start[0]: value 2 of component "active" is outside [0, 1] at the default parameter 4`,
			`start[1]: value p+1 of component "outstanding" is outside [0, 4] at the default parameter 4`,
		}},
	} {
		_, err := Compile(c.doc)
		var serr *Error
		if !errors.As(err, &serr) {
			t.Fatalf("%s: Compile error = %T (%v), want *Error", c.name, err, err)
		}
		var got []string
		for _, d := range serr.Diagnostics {
			got = append(got, d.String())
		}
		if !equalStrings(got, c.want) {
			t.Errorf("%s: diagnostics\n%s\nwant\n%s", c.name, strings.Join(got, "\n"), strings.Join(c.want, "\n"))
		}
	}
}

// TestDerivedValuesAndTargetPlaceholders: derived values evaluate in
// document order with floor division, bound components, fill placeholders
// — an annotation's component placeholder with the target state's value —
// and declare the fault tolerance a member reports.
func TestDerivedValuesAndTargetPlaceholders(t *testing.T) {
	doc := Doc{
		Name: "derived",
		Derived: []Derived{
			{Name: "half", Value: ParamValue(0), Div: 2},
			{Name: "rest", Value: ParamValue(0), Minus: "half"},
			{Name: "below", Value: ParamValue(-9), Div: 4},
		},
		FaultTolerance: &Value{Derived: "half"},
		Components:     []Component{{Name: "c", Kind: KindInt, Max: Value{Derived: "rest"}}},
		Messages:       []string{"GO"},
		Rules: []Rule{{Message: "GO", Set: []Assign{{Component: "c", Add: 1}},
			Annotations: []string{"{c} of {rest} (p={param}, half={half}, below={below})", "constant"}}},
		Describe: []DescribeRule{{Text: "{c} of {rest}"}},
	}
	c, err := Compile(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		param     int
		max, half int
		note      string
	}{
		{5, 3, 2, "1 of 3 (p=5, half=2, below=-1)"},
		{3, 2, 1, "1 of 2 (p=3, half=1, below=-2)"}, // ⌊-6/4⌋ is -2, not -1
		{9, 5, 4, "1 of 5 (p=9, half=4, below=0)"},
	} {
		m, err := c.Model(tc.param)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Components()[0].Cardinality() - 1; got != tc.max {
			t.Errorf("p=%d: max %d, want %d", tc.param, got, tc.max)
		}
		eff, ok := core.Apply(m, core.Vector{0}, "GO")
		if !ok || !equalStrings(eff.Annotations, []string{tc.note, "constant"}) {
			t.Errorf("p=%d: GO = %v, %v; want %q", tc.param, eff.Annotations, ok, tc.note)
		}
		if got := core.Describe(m, core.Vector{2}); !equalStrings(got, []string{"2 of " + strconv.Itoa(tc.max)}) {
			t.Errorf("p=%d: DescribeState = %v", tc.param, got)
		}
		ft, ok := m.(interface{ FaultTolerance() int })
		if !ok || ft.FaultTolerance() != tc.half {
			t.Errorf("p=%d: fault tolerance %v, want %d", tc.param, ft, tc.half)
		}
	}
	doc.FaultTolerance = nil
	if c, err = Compile(doc); err != nil {
		t.Fatal(err)
	}
	if m, _ := c.Model(5); m == nil {
		t.Fatal("no model")
	} else if _, ok := m.(interface{ FaultTolerance() int }); ok {
		t.Error("a spec that declares no fault tolerance reports one")
	}
}

// TestCompileRejectsPlaceholderClashes: "{param}", each component's and
// each derived value's placeholder share one namespace. A component named
// param used to compile, and its placeholder printed the parameter.
func TestCompileRejectsPlaceholderClashes(t *testing.T) {
	doc := terminationDoc()
	doc.Components = append(doc.Components, Component{Name: "param", Kind: KindBool})
	doc.Describe = append(doc.Describe, DescribeRule{Text: "param is {param}"})
	doc.Derived = []Derived{
		{Name: "param", Value: ParamValue(0)},
		{Name: "active", Value: Lit(1)},
		{Name: "early", Value: Value{Derived: "late"}, Minus: "late", Div: -1},
		{Name: "late", Value: Lit(2)},
		{Name: "late", Value: Lit(3)},
		{Name: "9lives", Value: Lit(9)},
	}
	doc.FaultTolerance = &Value{Derived: "nowhere"}
	doc.Rules[0].When[0].Value = Value{Derived: "nowhere"}
	doc.Abstraction.Symbols[0].Value = Value{Derived: "nowhere", Offset: -1}
	_, err := Compile(doc)
	var serr *Error
	if !errors.As(err, &serr) {
		t.Fatalf("Compile error = %T (%v), want *Error", err, err)
	}
	var got []string
	for _, d := range serr.Diagnostics {
		got = append(got, d.String())
	}
	want := []string{
		`derived[0].name: "param" is the parameter's placeholder`,
		`derived[2].value.derived: unknown derived value "late"`,
		`derived[2].div: must be >= 1 (got -1)`,
		`derived[2].minus: derived value "late" is not declared before this one`,
		`derived[4].name: duplicate derived value "late"`,
		`derived[5].name: must start with a letter and contain only letters, digits, '-', '_' or '.' (got "9lives")`,
		`fault_tolerance.derived: unknown derived value "nowhere"`,
		`components[0].name: component "active" has the name of a derived value`,
		`components[2].name: "param" is the parameter's placeholder`,
		`rules[0].when[0].value.derived: unknown derived value "nowhere"`,
		`abstraction.symbols[0].value.derived: unknown derived value "nowhere"`,
	}
	if !equalStrings(got, want) {
		t.Errorf("diagnostics\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if s := (Value{Param: true, Derived: "f", Offset: -1}).String(); s != "p+f-1" {
		t.Errorf("String() = %q", s)
	}
}
