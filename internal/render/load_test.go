package render

import (
	"errors"
	"math/rand"
	"testing"

	"asagen/internal/core"
	"asagen/internal/runtime"
)

// The xml format is an interchange document: read back with encoding/xml
// (loadXML), it carries the whole machine, minus the component vectors.

func TestLoadMachineXMLRoundTrip(t *testing.T) {
	machine := commitMachine(t, 4)
	loaded := xmlRoundTrip(t, machine)
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
	loaded := xmlRoundTrip(t, machine)

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

// TestLoadedMachineRenders: the loaded machine feeds the text and DOT
// renderers without the original model.
func TestLoadedMachineRenders(t *testing.T) {
	loaded := xmlRoundTrip(t, commitMachine(t, 4))
	if out, err := renderText(loaded); err != nil || len(out) == 0 {
		t.Errorf("empty text artefact from loaded machine (err %v)", err)
	}
	if out, err := renderDot(loaded); err != nil || len(out) == 0 {
		t.Errorf("empty DOT artefact from loaded machine (err %v)", err)
	}
}

// xmlRoundTrip renders the machine's xml artefact and reads it back.
func xmlRoundTrip(t *testing.T, m *core.StateMachine) *core.StateMachine {
	t.Helper()
	data, err := renderXML(m)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := loadXML(data)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}
