package render

import (
	"context"
	"encoding/xml"
	"fmt"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"asagen/internal/commit"
	"asagen/internal/core"
)

func commitMachine(t testing.TB, r int) *core.StateMachine {
	t.Helper()
	m, err := commit.NewModel(r)
	if err != nil {
		t.Fatalf("NewModel(%d): %v", r, err)
	}
	machine, err := core.Generate(context.Background(), m)
	if err != nil {
		t.Fatalf("Generate(r=%d): %v", r, err)
	}
	return machine
}

func TestTextRendererFig14Shape(t *testing.T) {
	machine := commitMachine(t, 4)
	art, err := must(New("text")).Render(machine)
	if err != nil {
		t.Fatalf("Render: %v", err)
	}
	out := art.String()

	// Every state section appears.
	for _, s := range machine.States {
		if !strings.Contains(out, "state: "+s.Name+"\n") {
			t.Errorf("missing section for state %s", s.Name)
		}
	}
	// The Fig. 14 structural elements appear.
	for _, want := range []string{
		"Description:",
		"Transitions:",
		"message: VOTE",
		"action: ->vote",
		"action: ->commit",
		"transition to: ",
		"Have received initial update from client.",
		"external commit threshold (2)",
		"vote threshold (3)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Contains(out, "states: 33") == false {
		t.Error("missing state count header")
	}
}

func TestDotRenderer(t *testing.T) {
	machine := commitMachine(t, 4)
	art, err := must(New("dot")).Render(machine)
	if err != nil {
		t.Fatalf("Render: %v", err)
	}
	out := art.String()
	if !strings.HasPrefix(out, "digraph") {
		t.Fatalf("not a digraph: %q", out[:20])
	}
	if !strings.Contains(out, "rankdir=LR;") {
		t.Error("missing rankdir")
	}
	// One node line per state.
	for _, s := range machine.States {
		if !strings.Contains(out, "\""+s.Name+"\"") {
			t.Errorf("missing node %s", s.Name)
		}
	}
	// Phase transitions drawn thick (Fig. 8 convention).
	if !strings.Contains(out, "penwidth=2.2") {
		t.Error("no thick phase-transition edges")
	}
	// Edge count matches machine transitions.
	if got, want := strings.Count(out, " -> "), machine.TransitionCount(); got != want {
		t.Errorf("edge count = %d, want %d", got, want)
	}
	if strings.Count(out, "{") != strings.Count(out, "}") {
		t.Error("unbalanced braces")
	}
}

func TestDotRendererEFSM(t *testing.T) {
	efsm := commitEFSM(t, 7)
	out := string(efsmDot(efsm))
	if !strings.Contains(out, commit.EFSMChosenVoted) {
		t.Error("missing EFSM state node")
	}
	if !strings.Contains(out, "votes_received++") {
		t.Error("missing variable update label")
	}
}

func TestXMLRendererRoundTrip(t *testing.T) {
	machine := commitMachine(t, 4)
	xmlArt, err := must(New("xml")).Render(machine)
	if err != nil {
		t.Fatalf("Render: %v", err)
	}
	out := xmlArt.String()
	if !strings.HasPrefix(out, "<?xml") {
		t.Error("missing XML header")
	}
	var doc XMLDiagram
	if err := xml.Unmarshal(xmlArt.Data, &doc); err != nil {
		t.Fatalf("xml.Unmarshal: %v", err)
	}
	if doc.Model != "bft-commit" || doc.Parameter != 4 {
		t.Errorf("doc header = %s/%d", doc.Model, doc.Parameter)
	}
	if len(doc.States) != len(machine.States) {
		t.Errorf("states = %d, want %d", len(doc.States), len(machine.States))
	}
	if len(doc.Edges) != machine.TransitionCount() {
		t.Errorf("edges = %d, want %d", len(doc.Edges), machine.TransitionCount())
	}
	// Start and final flags survive the round trip.
	var starts, finals int
	for _, s := range doc.States {
		if s.Start {
			starts++
		}
		if s.Final {
			finals++
		}
	}
	if starts != 1 || finals != 1 {
		t.Errorf("starts=%d finals=%d, want 1/1", starts, finals)
	}
	// Phase edges carry actions.
	foundPhase := false
	for _, e := range doc.Edges {
		if e.Phase && len(e.Actions) > 0 {
			foundPhase = true
			break
		}
	}
	if !foundPhase {
		t.Error("no phase edge with actions in document")
	}
}

func TestGoSourceRendererParses(t *testing.T) {
	machine := commitMachine(t, 4)
	art, err := GoSource(machine, "commitfsm4")
	if err != nil {
		t.Fatalf("Render: %v", err)
	}
	src := art.String()
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, "generated.go", src, parser.AllErrors); err != nil {
		t.Fatalf("generated source does not parse: %v", err)
	}
	for _, want := range []string{
		"package commitfsm4",
		"func (m *Machine) ReceiveVote()",
		"func (m *Machine) ReceiveNotFree()",
		"m.actions.SendCommit()",
		"type Actions interface",
		"SendNotFree() // ->not free",
		"State_FINISHED",
		"func New(actions Actions) *Machine",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated source missing %q", want)
		}
	}
	// One case branch per transition plus five dispatch cases.
	if got, want := strings.Count(src, "case State_"), machine.TransitionCount(); got != want {
		t.Errorf("case branches = %d, want %d", got, want)
	}
}

func TestGoSourceRendererErrors(t *testing.T) {
	if _, err := GoSource(&core.StateMachine{}, "x"); err == nil {
		t.Error("empty machine accepted")
	}
}

func TestGoSourceRendererDerivesPackageName(t *testing.T) {
	machine := commitMachine(t, 4)
	art, err := must(New("go")).Render(machine)
	if err != nil {
		t.Fatalf("Render: %v", err)
	}
	if want := "package bftcommit4"; !strings.Contains(art.String(), want) {
		t.Errorf("derived source missing %q", want)
	}
	if got := defaultPackageName(machine); got != "bftcommit4" {
		t.Errorf("defaultPackageName = %q, want bftcommit4", got)
	}
}

func TestDefaultActionMethod(t *testing.T) {
	tests := []struct{ in, want string }{
		{"->vote", "SendVote"},
		{"->commit", "SendCommit"},
		{"->not free", "SendNotFree"},
		{"->free", "SendFree"},
		{"->done", "SendDone"},
	}
	for _, tt := range tests {
		if got := DefaultActionMethod(tt.in); got != tt.want {
			t.Errorf("DefaultActionMethod(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestCamel(t *testing.T) {
	tests := []struct{ in, want string }{
		{"UPDATE", "Update"},
		{"NOT_FREE", "NotFree"},
		{"not free", "NotFree"},
		{"vote", "Vote"},
	}
	for _, tt := range tests {
		if got := camel(tt.in); got != tt.want {
			t.Errorf("camel(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestDocRenderer(t *testing.T) {
	machine := commitMachine(t, 4)
	art, err := must(New("doc")).Render(machine)
	if err != nil {
		t.Fatalf("Render: %v", err)
	}
	out := art.String()
	for _, want := range []string{
		"# State machine `bft-commit` (parameter 4)",
		"| States (merged) | 33 |",
		"| States (raw) | 512 |",
		"## States",
		"| Message | Actions | Next state |",
		"_Terminal state._",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("doc missing %q", want)
		}
	}
	// One section per state.
	if got, want := strings.Count(out, "### `"), len(machine.States); got != want {
		t.Errorf("state sections = %d, want %d", got, want)
	}
}

func TestEFSMTextRenderer(t *testing.T) {
	efsm := commitEFSM(t, 13)
	out := string(efsmText(efsm))
	for _, want := range []string{
		"extended state machine: bft-commit",
		"variables: votes_received, commits_received",
		"states: 9",
		"guard: ",
		"update: votes_received++",
		"(terminal state)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("EFSM text missing %q", want)
		}
	}
}

func TestBufferUtilities(t *testing.T) {
	b := NewBuffer()
	b.IndentWith = "  "
	b.EnterBlock("func f()")
	b.AddLn("x := 1")
	b.EnterBlock("if x > 0")
	b.AddLn("return")
	b.ExitBlock()
	b.ExitBlock()
	want := "func f() {\n  x := 1\n  if x > 0 {\n    return\n  }\n}\n"
	if got := b.String(); got != want {
		t.Errorf("buffer output:\n%q\nwant:\n%q", got, want)
	}
	if b.Len() != len(want) {
		t.Errorf("Len() = %d, want %d", b.Len(), len(want))
	}

	b2 := NewBuffer()
	b2.DecreaseIndent() // saturates at zero
	b2.IncreaseIndent()
	b2.ResetIndent()
	b2.AddLn("top")
	if got := b2.String(); got != "top\n" {
		t.Errorf("after ResetIndent: %q", got)
	}
}

// commitEFSM generalises the commit family member for r from a generation
// of its own.
func commitEFSM(t *testing.T, r int) *core.EFSM {
	t.Helper()
	m, err := commit.NewModel(r)
	if err != nil {
		t.Fatal(err)
	}
	efsm, err := core.GenerateEFSM(context.Background(), m, commit.NewAbstraction(m))
	if err != nil {
		t.Fatal(err)
	}
	return efsm
}

// TestDanglingTargetsAreRefused: an edge whose target is nil, or a state
// the machine does not list, is refused by every machine format with the
// machine's transition table's error, not written, dropped or panicked on.
func TestDanglingTargetsAreRefused(t *testing.T) {
	for _, c := range []struct {
		name   string
		target *core.State
		named  string
	}{
		{"nil", nil, `"<nil>"`},
		{"foreign", &core.State{Name: "elsewhere"}, `"elsewhere"`},
	} {
		for _, format := range machineFormats {
			m := handMachine("dangling", []string{"GO", "STOP"}, []string{"a", "b"}, "a|GO|b|->x")
			m.States[1].Transitions["STOP"] = &core.Transition{Message: "STOP", Target: c.target}
			r, err := New(format)
			if err != nil {
				t.Fatal(err)
			}
			art, err := func() (art Artifact, err error) {
				defer func() {
					if p := recover(); p != nil {
						err = fmt.Errorf("panic: %v", p)
					}
				}()
				return r.Render(m)
			}()
			want := c.named + " is referred to but is not one of the machine's states"
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s target, %s: err = %v, want %s\n%s", c.name, format, err, want, art.Data)
			}
		}
	}
}
