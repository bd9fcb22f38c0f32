package commit

import (
	"errors"
	"math/rand"
	"os"
	"testing"

	"asagen/internal/commit/commitfsm4"
	"asagen/internal/core"
	"asagen/internal/render"
	"asagen/internal/runtime"
)

// recordingActions adapts the generated package's Actions interface to an
// action trace in the model's "->" vocabulary.
type recordingActions struct {
	trace []string
}

var _ commitfsm4.Actions = (*recordingActions)(nil)

func (a *recordingActions) SendVote()    { a.trace = append(a.trace, ActSendVote) }
func (a *recordingActions) SendCommit()  { a.trace = append(a.trace, ActSendCommit) }
func (a *recordingActions) SendFree()    { a.trace = append(a.trace, ActSendFree) }
func (a *recordingActions) SendNotFree() { a.trace = append(a.trace, ActSendNotFree) }

// TestGeneratedSourceMatchesInterpreter drives the checked-in generated Go
// implementation (internal/commit/commitfsm4, produced by cmd/fsmgen per
// the paper's §4.2 one-off generation policy) and the machine interpreter
// with identical random message sequences, requiring identical states,
// actions and completion at every step. Together with the generic-algorithm
// differential test this establishes the equivalence of all three protocol
// encodings.
func TestGeneratedSourceMatchesInterpreter(t *testing.T) {
	machine := mustGenerate(t, 4, core.WithoutDescriptions())
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))

		rec := &recordingActions{}
		genMachine := commitfsm4.New(rec)
		inst, err := runtime.New(machine, nil)
		if err != nil {
			t.Fatal(err)
		}

		for step := 0; step < 300; step++ {
			msg := machine.Messages[rng.Intn(len(machine.Messages))]

			rec.trace = rec.trace[:0]
			if !genMachine.Receive(msg) {
				t.Fatalf("generated machine rejected message %q", msg)
			}

			var fsmActions []string
			if !inst.Finished() {
				acts, err := inst.Deliver(msg)
				var ignored *runtime.IgnoredError
				switch {
				case err == nil:
					fsmActions = acts
				case errors.As(err, &ignored):
				default:
					t.Fatalf("seed=%d step=%d: %v", seed, step, err)
				}
			}

			if !equalStrings(rec.trace, fsmActions) {
				t.Fatalf("seed=%d step=%d %s: actions diverge: generated=%v interpreter=%v",
					seed, step, msg, rec.trace, fsmActions)
			}
			if got, want := genMachine.State().String(), inst.StateName(); got != want {
				t.Fatalf("seed=%d step=%d %s: state diverges: generated=%s interpreter=%s",
					seed, step, msg, got, want)
			}
			if genMachine.Finished() != inst.Finished() {
				t.Fatalf("seed=%d step=%d: finished diverges", seed, step)
			}
			if genMachine.Finished() {
				break
			}
		}
	}
}

// TestGeneratedSourceIsCurrent regenerates the r = 4 source and compares it
// with the checked-in artefact, so the committed code can never drift from
// the abstract model.
func TestGeneratedSourceIsCurrent(t *testing.T) {
	machine := mustGenerate(t, 4)
	src, err := render.GoSource(machine, "commitfsm4")
	if err != nil {
		t.Fatalf("Render: %v", err)
	}
	checked := readFile(t, "commitfsm4/machine.go")
	if src.String() != checked {
		t.Error("internal/commit/commitfsm4/machine.go is stale: regenerate with " +
			"`go run ./cmd/fsmgen -r 4 -format go -pkg commitfsm4 -o internal/commit/commitfsm4/machine.go`")
	}
}

// TestGeneratedMachineRejectsUnknownMessage covers the generated dispatch
// default branch.
func TestGeneratedMachineRejectsUnknownMessage(t *testing.T) {
	m := commitfsm4.New(nil)
	if m.Receive("BOGUS") {
		t.Error("unknown message accepted")
	}
	if m.State().String() == "INVALID" {
		t.Error("fresh machine reports invalid state")
	}
	if commitfsm4.StateInvalid.String() != "INVALID" {
		t.Errorf("StateInvalid.String() = %q", commitfsm4.StateInvalid.String())
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return string(data)
}
