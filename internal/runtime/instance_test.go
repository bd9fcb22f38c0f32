package runtime

import (
	"context"
	"errors"
	"strings"
	"testing"

	"asagen/internal/commit"
	"asagen/internal/core"
	"asagen/internal/models"
)

// chainModel is a three-state machine: 0 -inc-> 1 -inc-> 2 -inc-> FINISHED,
// with a "ring" phase transition from state 1.
type chainModel struct{}

func (chainModel) Name() string   { return "chain" }
func (chainModel) Parameter() int { return 2 }
func (chainModel) Components() []core.StateComponent {
	return []core.StateComponent{core.NewIntComponent("n", 2)}
}
func (chainModel) Messages() []string { return []string{"inc", "ring"} }
func (chainModel) Start() core.Vector { return core.Vector{0} }
func (chainModel) Apply(v core.Vector, mi int, out *core.Effect) bool {
	msg := chainModel{}.Messages()[mi]
	switch msg {
	case "inc":
		if v[0] == 2 {
			*out = core.Effect{Finished: true}
			return true
		}
		*out = core.Effect{Target: core.Vector{v[0] + 1}}
		return true
	case "ring":
		if v[0] != 1 {
			return false
		}
		*out = core.Effect{Target: core.Vector{1}, Actions: []string{"->bell"}}
		return true
	default:
		return false
	}
}
func (chainModel) DescribeState(core.Vector, *core.Text) {}

func buildChain(t *testing.T) *core.StateMachine {
	t.Helper()
	m, err := core.Generate(context.Background(), chainModel{})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return m
}

func TestInstanceWalk(t *testing.T) {
	machine := buildChain(t)
	var acted []string
	inst, err := New(machine, ActionFunc(func(a string) { acted = append(acted, a) }))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if inst.StateName() != "0" {
		t.Fatalf("start state = %s", inst.StateName())
	}
	if inst.Finished() {
		t.Fatal("finished at start")
	}

	if _, err := inst.Deliver("inc"); err != nil {
		t.Fatalf("inc: %v", err)
	}
	actions, err := inst.Deliver("ring")
	if err != nil {
		t.Fatalf("ring: %v", err)
	}
	if len(actions) != 1 || actions[0] != "->bell" {
		t.Fatalf("ring actions = %v", actions)
	}
	if len(acted) != 1 || acted[0] != "->bell" {
		t.Fatalf("handler saw %v", acted)
	}

	if _, err := inst.Deliver("inc"); err != nil {
		t.Fatalf("inc: %v", err)
	}
	if _, err := inst.Deliver("inc"); err != nil {
		t.Fatalf("final inc: %v", err)
	}
	if !inst.Finished() {
		t.Fatal("not finished after walking the chain")
	}
	if _, err := inst.Deliver("inc"); !errors.Is(err, ErrFinished) {
		t.Fatalf("Deliver after finish = %v, want ErrFinished", err)
	}
}

func TestInstanceIgnoredMessage(t *testing.T) {
	machine := buildChain(t)
	inst, err := New(machine, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	_, err = inst.Deliver("ring") // not applicable in state 0
	var ignored *IgnoredError
	if !errors.As(err, &ignored) {
		t.Fatalf("Deliver = %v, want IgnoredError", err)
	}
	if ignored.StateName != "0" || ignored.Message != "ring" {
		t.Errorf("IgnoredError = %+v", ignored)
	}
	if inst.StateName() != "0" {
		t.Error("ignored message changed state")
	}
	if ignored.Error() == "" {
		t.Error("empty error string")
	}
}

func TestInstanceUnknownMessage(t *testing.T) {
	machine := buildChain(t)
	inst, err := New(machine, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var ignored *IgnoredError
	if _, err := inst.Deliver("bogus"); !errors.As(err, &ignored) {
		t.Fatalf("Deliver(bogus) = %v, want IgnoredError", err)
	}
}

func TestInstanceReset(t *testing.T) {
	machine := buildChain(t)
	inst, err := New(machine, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, m := range []string{"inc", "inc", "inc"} {
		if _, err := inst.Deliver(m); err != nil {
			t.Fatalf("Deliver(%s): %v", m, err)
		}
	}
	if !inst.Finished() {
		t.Fatal("not finished")
	}
	inst.Reset()
	if inst.Finished() || inst.StateName() != "0" {
		t.Errorf("after Reset: finished=%v state=%s", inst.Finished(), inst.StateName())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Error("New(nil) accepted")
	}
	if _, err := New(&core.StateMachine{}, nil); err == nil {
		t.Error("New with no start state accepted")
	}
}

func TestMachineAccessor(t *testing.T) {
	machine := buildChain(t)
	inst, err := New(machine, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Machine() != machine {
		t.Error("Machine() returned a different machine")
	}
	if inst.State() != machine.Start {
		t.Error("State() is not the start state")
	}
}

// The remaining tests drive real generated scenario machines (not the
// synthetic chain) through the interpreter's error paths: unknown events,
// guard rejections, and fault-tolerance exhaustion — the cases a
// peer-set member hits when the network delivers more faults than the
// redundancy parameter covers.

func generateModel(t *testing.T, m core.Model) *core.StateMachine {
	t.Helper()
	machine, err := core.Generate(context.Background(), m, core.WithoutDescriptions())
	if err != nil {
		t.Fatalf("Generate(%s): %v", m.Name(), err)
	}
	return machine
}

func TestInstanceUnknownEventOnGeneratedMachine(t *testing.T) {
	model, err := models.Build("storage", 4)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := New(generateModel(t, model), nil)
	if err != nil {
		t.Fatal(err)
	}
	var ignored *IgnoredError
	if _, err := inst.Deliver("NO_SUCH_EVENT"); !errors.As(err, &ignored) {
		t.Fatalf("Deliver(NO_SUCH_EVENT) = %v, want IgnoredError", err)
	}
	if ignored.Message != "NO_SUCH_EVENT" || ignored.StateName != inst.StateName() {
		t.Errorf("IgnoredError = %+v", ignored)
	}
}

func TestInstanceGuardRejection(t *testing.T) {
	model, err := models.Build("storage", 4)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := New(generateModel(t, model), nil)
	if err != nil {
		t.Fatal(err)
	}
	// A fetch before the block is durable is guarded out, state unchanged.
	start := inst.StateName()
	var ignored *IgnoredError
	if _, err := inst.Deliver("FETCH"); !errors.As(err, &ignored) {
		t.Fatalf("premature FETCH = %v, want IgnoredError", err)
	}
	if inst.StateName() != start {
		t.Error("rejected event changed state")
	}
	// An acknowledgement with no store in flight is likewise rejected.
	if _, err := inst.Deliver("STORE_ACK"); !errors.As(err, &ignored) {
		t.Fatalf("unsolicited STORE_ACK = %v, want IgnoredError", err)
	}

	// Counter saturation on the commit protocol: at r=4 only r−1 = 3 peer
	// votes exist, so a fourth vote is rejected by the generated guards.
	commitModel, err := commit.NewModel(4)
	if err != nil {
		t.Fatal(err)
	}
	inst, err = New(generateModel(t, commitModel), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := inst.Deliver(commit.MsgVote); err != nil {
			t.Fatalf("vote %d: %v", i+1, err)
		}
	}
	if _, err := inst.Deliver(commit.MsgVote); !errors.As(err, &ignored) {
		t.Fatalf("vote 4 of 3 = %v, want IgnoredError", err)
	}
}

func TestInstanceFaultToleranceExhaustion(t *testing.T) {
	model, err := models.Build("storage", 7)
	if err != nil {
		t.Fatal(err)
	}
	f := model.(interface{ FaultTolerance() int }).FaultTolerance()
	if f != 2 {
		t.Fatalf("r=7: f = %d, want 2", f)
	}
	quorum := 7 - f
	inst, err := New(generateModel(t, model), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Deliver("STORE"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < quorum; i++ {
		if _, err := inst.Deliver("STORE_ACK"); err != nil {
			t.Fatalf("ack %d: %v", i+1, err)
		}
	}
	// The quorum discards the pending ack set: a late ack is rejected.
	var ignored *IgnoredError
	if _, err := inst.Deliver("STORE_ACK"); !errors.As(err, &ignored) {
		t.Fatalf("post-quorum ack = %v, want IgnoredError", err)
	}
	if _, err := inst.Deliver("FETCH"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < f; i++ {
		if _, err := inst.Deliver("FETCH_MISS"); err != nil {
			t.Fatalf("tolerated miss %d: %v", i+1, err)
		}
	}
	// The f+1-th miss exceeds the redundancy parameter: rejected, and the
	// machine still completes on the verified reply.
	if _, err := inst.Deliver("FETCH_MISS"); !errors.As(err, &ignored) {
		t.Fatalf("miss %d with f=%d = %v, want IgnoredError", f+1, f, err)
	}
	if _, err := inst.Deliver("FETCH_OK"); err != nil {
		t.Fatal(err)
	}
	if !inst.Finished() {
		t.Error("machine not finished after the verified reply")
	}
	if _, err := inst.Deliver("FETCH_OK"); !errors.Is(err, ErrFinished) {
		t.Errorf("delivery after finish = %v, want ErrFinished", err)
	}
}

// TestNewRefusesWhatItsTableCannotIndex: a machine that refers to a state
// that is not one of its States, declares a message twice, or has a
// transition on a message it does not declare is refused, naming what
// is wrong; the delivery column would otherwise lose or misroute a
// transition.
func TestNewRefusesWhatItsTableCannotIndex(t *testing.T) {
	build := func(messages []string, on string, target *core.State) *core.StateMachine {
		a := &core.State{Name: "a", Transitions: map[string]*core.Transition{}}
		b := &core.State{Name: "b", Transitions: map[string]*core.Transition{}}
		if target == nil {
			target = b
		}
		a.Transitions[on] = &core.Transition{Message: on, Target: target}
		return &core.StateMachine{Messages: messages, States: []*core.State{a, b}, Start: a}
	}
	stray := &core.State{Name: "stray"}
	for _, tc := range []struct {
		name    string
		machine *core.StateMachine
		want    string
	}{
		{"dangling target", build([]string{"go"}, "go", stray), `state "stray" is referred to but is not one of the machine's states`},
		{"undeclared message", build([]string{"go"}, "stop", nil), `state "a" has a transition on "stop", which is not one of the machine's messages`},
		{"message declared twice", build([]string{"go", "go"}, "go", nil), `message "go" is declared twice`},
	} {
		if _, err := New(tc.machine, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: New = %v, want an error containing %s", tc.name, err, tc.want)
		}
	}
	if _, err := New(build([]string{"stop", "go"}, "go", nil), nil); err != nil {
		t.Errorf("a well-formed machine is refused: %v", err)
	}
}

// TestDeliveryColumnAgreesWithTransitions: on every registry model at
// every sweep parameter, the table resolves each message to its index and
// a name the machine lacks to -1, each (state, message) cell of its column
// names the transition State.Transitions holds, and Step walks to its
// target.
func TestDeliveryColumnAgreesWithTransitions(t *testing.T) {
	for _, name := range models.Names() {
		entry, err := models.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range entry.SweepParams {
			model, err := entry.Model(p)
			if err != nil {
				t.Fatal(err)
			}
			machine := generateModel(t, model)
			inst, err := New(machine, nil)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, p, err)
			}
			table := inst.Table()
			if got := table.Message("@no such message"); got != -1 {
				t.Fatalf("%s/%d: Message of a name the machine lacks = %d, want -1", name, p, got)
			}
			for s, state := range machine.States {
				for m, msg := range machine.Messages {
					if table.Message(msg) != m {
						t.Fatalf("%s/%d: Message(%q) = %d, want %d", name, p, msg, table.Message(msg), m)
					}
					tr, e := state.Transitions[msg], table.Next(s, m)
					if (tr == nil) != (e < 0) || tr != nil && table.Edge(e).Transition != tr {
						t.Fatalf("%s/%d: state %s on %s: column cell %d, transition %v", name, p, state.Name, msg, e, tr)
					}
					if tr == nil || state.Final {
						continue
					}
					inst.state, inst.current = s, state
					if got, err := inst.Step(m); err != nil || got != e || inst.State() != tr.Target {
						t.Fatalf("%s/%d: Step from %s on %s = %d, %v in %s", name, p, state.Name, msg, got, err, inst.StateName())
					}
				}
			}
		}
	}
}
