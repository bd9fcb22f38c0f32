package spec

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
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
		handEFSM, err := termination.GenerateEFSM(context.Background(), k)
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
	if _, ok := m.Apply(core.Vector{2}, "GO"); ok {
		t.Error("GO applicable at the upper bound")
	}
	if _, ok := m.Apply(core.Vector{0}, "BACK"); ok {
		t.Error("BACK applicable at the lower bound")
	}
	if eff, ok := m.Apply(core.Vector{1}, "GO"); !ok || eff.Target[0] != 2 {
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
	lines := m.DescribeState(core.Vector{1, 3})
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
