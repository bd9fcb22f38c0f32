package render

import (
	"errors"
	"math/rand"
	"testing"

	"asagen/internal/runtime"
)

func TestLoadMachineXMLRoundTrip(t *testing.T) {
	machine := commitMachine(t, 4)
	xml, err := NewXMLRenderer().Render(machine)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadMachineXML(xml.Data)
	if err != nil {
		t.Fatalf("LoadMachineXML: %v", err)
	}
	if loaded.ModelName != machine.ModelName || loaded.Parameter != machine.Parameter {
		t.Errorf("header = %s/%d", loaded.ModelName, loaded.Parameter)
	}
	if len(loaded.States) != len(machine.States) {
		t.Fatalf("states = %d, want %d", len(loaded.States), len(machine.States))
	}
	if loaded.TransitionCount() != machine.TransitionCount() {
		t.Errorf("transitions = %d, want %d", loaded.TransitionCount(), machine.TransitionCount())
	}
	if loaded.Start.Name != machine.Start.Name {
		t.Errorf("start = %s, want %s", loaded.Start.Name, machine.Start.Name)
	}
	if loaded.Finish == nil || loaded.Finish.Name != machine.Finish.Name {
		t.Error("finish state not preserved")
	}
}

// TestLoadedMachineExecutesIdentically drives the original and the
// XML-round-tripped machine with identical random schedules through the
// interpreter: states, actions and completion must agree — the shipped
// artefact is executable.
func TestLoadedMachineExecutesIdentically(t *testing.T) {
	machine := commitMachine(t, 4)
	xml, err := NewXMLRenderer().Render(machine)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadMachineXML(xml.Data)
	if err != nil {
		t.Fatal(err)
	}

	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, err := runtime.New(machine, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runtime.New(loaded, nil)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 200 && !a.Finished(); step++ {
			msg := machine.Messages[rng.Intn(len(machine.Messages))]
			actsA, errA := a.Deliver(msg)
			actsB, errB := b.Deliver(msg)
			var ignA, ignB *runtime.IgnoredError
			if errors.As(errA, &ignA) != errors.As(errB, &ignB) {
				t.Fatalf("seed=%d step=%d %s: applicability diverges", seed, step, msg)
			}
			if len(actsA) != len(actsB) {
				t.Fatalf("seed=%d step=%d %s: actions diverge: %v vs %v", seed, step, msg, actsA, actsB)
			}
			for i := range actsA {
				if actsA[i] != actsB[i] {
					t.Fatalf("seed=%d step=%d: action %d differs", seed, step, i)
				}
			}
			if a.StateName() != b.StateName() || a.Finished() != b.Finished() {
				t.Fatalf("seed=%d step=%d: state diverges: %s vs %s", seed, step, a.StateName(), b.StateName())
			}
		}
	}
}

func TestLoadMachineXMLErrors(t *testing.T) {
	if _, err := LoadMachineXML([]byte("<not-xml")); err == nil {
		t.Error("malformed XML accepted")
	}
	if _, err := MachineFromDocument(nil); err == nil {
		t.Error("nil document accepted")
	}
	if _, err := MachineFromDocument(&XMLDiagram{}); err == nil {
		t.Error("empty document accepted")
	}

	tests := []struct {
		name string
		doc  XMLDiagram
	}{
		{"no start", XMLDiagram{States: []XMLState{{ID: "s0", Name: "a"}}}},
		{"duplicate id", XMLDiagram{States: []XMLState{
			{ID: "s0", Name: "a", Start: true}, {ID: "s0", Name: "b"},
		}}},
		{"two starts", XMLDiagram{States: []XMLState{
			{ID: "s0", Name: "a", Start: true}, {ID: "s1", Name: "b", Start: true},
		}}},
		{"missing id", XMLDiagram{States: []XMLState{{Name: "a", Start: true}}}},
		{"edge unknown source", XMLDiagram{
			States: []XMLState{{ID: "s0", Name: "a", Start: true}},
			Edges:  []XMLTransition{{From: "zz", To: "s0", Message: "m"}},
		}},
		{"edge unknown target", XMLDiagram{
			States: []XMLState{{ID: "s0", Name: "a", Start: true}},
			Edges:  []XMLTransition{{From: "s0", To: "zz", Message: "m"}},
		}},
		{"edge no message", XMLDiagram{
			States: []XMLState{{ID: "s0", Name: "a", Start: true}},
			Edges:  []XMLTransition{{From: "s0", To: "s0"}},
		}},
		{"duplicate message edge", XMLDiagram{
			Messages: []string{"m"},
			States:   []XMLState{{ID: "s0", Name: "a", Start: true}},
			Edges: []XMLTransition{
				{From: "s0", To: "s0", Message: "m"},
				{From: "s0", To: "s0", Message: "m"},
			},
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			doc := tt.doc
			if _, err := MachineFromDocument(&doc); err == nil {
				t.Error("malformed document accepted")
			}
		})
	}
}

// TestLoadRefusesUndeclaredAndDuplicateMessages: every renderer and the
// runtime walk a machine in the order of its messages, so a diagram with
// an edge on a message it does not declare, or a message declared twice,
// is refused with an error naming the edge or the message, instead of
// loading a machine whose artefacts drop or double that edge.
func TestLoadRefusesUndeclaredAndDuplicateMessages(t *testing.T) {
	states := []XMLState{{ID: "s0", Name: "a", Start: true}, {ID: "s1", Name: "b"}}
	edges := []XMLTransition{{From: "s0", To: "s1", Message: "A"}, {From: "s1", To: "s0", Message: "B"}}
	for _, tc := range []struct {
		messages []string
		want     string
	}{
		{[]string{"A"}, `render: edge s1->s0 on "B": the message is not one of the diagram's messages`},
		{[]string{"A", "B", "A"}, `render: message "A" is declared twice`},
	} {
		doc := XMLDiagram{Messages: tc.messages, States: states, Edges: edges}
		if _, err := MachineFromDocument(&doc); err == nil || err.Error() != tc.want {
			t.Errorf("messages %q: MachineFromDocument = %v, want %s", tc.messages, err, tc.want)
		}
	}
	doc := XMLDiagram{Messages: []string{"B", "A"}, States: states, Edges: edges}
	if _, err := MachineFromDocument(&doc); err != nil {
		t.Errorf("a diagram declaring both messages is refused: %v", err)
	}
}

// TestLoadedMachineRenders: the loaded machine feeds the text and DOT
// renderers without the original model.
func TestLoadedMachineRenders(t *testing.T) {
	machine := commitMachine(t, 4)
	xml, err := NewXMLRenderer().Render(machine)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadMachineXML(xml.Data)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := NewTextRenderer().Render(loaded); err != nil || len(out.Data) == 0 {
		t.Errorf("empty text artefact from loaded machine (err %v)", err)
	}
	if out, err := NewDotRenderer().Render(loaded); err != nil || len(out.Data) == 0 {
		t.Errorf("empty DOT artefact from loaded machine (err %v)", err)
	}
}
