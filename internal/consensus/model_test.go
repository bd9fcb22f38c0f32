package consensus

import (
	"context"
	"strings"
	"testing"

	"asagen/internal/core"
	"asagen/internal/runtime"
)

func generate(t *testing.T, n int) *core.StateMachine {
	t.Helper()
	m, err := NewModel(n)
	if err != nil {
		t.Fatalf("NewModel(%d): %v", n, err)
	}
	machine, err := core.Generate(context.Background(), m)
	if err != nil {
		t.Fatalf("Generate(n=%d): %v", n, err)
	}
	return machine
}

func TestNewModelValidation(t *testing.T) {
	if _, err := NewModel(2); err == nil {
		t.Error("n=2 accepted")
	}
	m, err := NewModel(5)
	if err != nil {
		t.Fatal(err)
	}
	if m.Majority() != 3 {
		t.Errorf("Majority = %d, want 3", m.Majority())
	}
	if m.Processes() != 5 {
		t.Errorf("Processes = %d", m.Processes())
	}
}

// TestFamilyGrowsWithN verifies the family property: the machine's state
// count depends on the parameter, which is what precludes a single FSM and
// motivates the generative approach.
func TestFamilyGrowsWithN(t *testing.T) {
	prev := 0
	for _, n := range []int{3, 5, 7, 9} {
		machine := generate(t, n)
		if machine.Stats.FinalStates <= prev {
			t.Errorf("n=%d: final states %d did not grow (prev %d)",
				n, machine.Stats.FinalStates, prev)
		}
		prev = machine.Stats.FinalStates
		if machine.Stats.InitialStates != 8*n*n {
			t.Errorf("n=%d: initial states = %d, want %d (2^3·n²)",
				n, machine.Stats.InitialStates, 8*n*n)
		}
	}
}

// TestCoordinatorHappyPath walks the coordinator's view of an uncontended
// round: propose, gather a majority of estimates, gather a majority of
// acks, decide.
func TestCoordinatorHappyPath(t *testing.T) {
	machine := generate(t, 5) // majority 3
	var actions []string
	inst, err := runtime.New(machine, runtime.ActionFunc(func(a string) { actions = append(actions, a) }))
	if err != nil {
		t.Fatal(err)
	}

	deliver := func(msg string) {
		t.Helper()
		if _, err := inst.Deliver(msg); err != nil {
			t.Fatalf("Deliver(%s): %v", msg, err)
		}
	}

	deliver(MsgPropose)
	if !contains(actions, ActSendEstimate) {
		t.Fatalf("propose actions = %v", actions)
	}
	actions = actions[:0]

	deliver(MsgEstimate) // own + 2 received = majority at the second
	deliver(MsgEstimate)
	if !contains(actions, ActSendProposal) {
		t.Fatalf("estimate majority actions = %v", actions)
	}
	actions = actions[:0]

	deliver(MsgProposal) // coordinator acks its own proposal
	if !contains(actions, ActSendAck) {
		t.Fatalf("proposal actions = %v", actions)
	}
	actions = actions[:0]

	deliver(MsgAck)
	deliver(MsgAck) // own + 2 = majority: decide and finish
	if !contains(actions, ActSendDecide) {
		t.Fatalf("ack majority actions = %v", actions)
	}
	if !inst.Finished() {
		t.Error("not finished after deciding")
	}
}

// TestParticipantDecidesOnAnnouncement: a non-coordinator process finishes
// when the decision arrives.
func TestParticipantDecidesOnAnnouncement(t *testing.T) {
	machine := generate(t, 5)
	inst, err := runtime.New(machine, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Deliver(MsgPropose); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Deliver(MsgProposal); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Deliver(MsgDecide); err != nil {
		t.Fatal(err)
	}
	if !inst.Finished() {
		t.Error("participant did not finish on decide")
	}
}

func TestDuplicateProposeIgnored(t *testing.T) {
	m, err := NewModel(5)
	if err != nil {
		t.Fatal(err)
	}
	start := m.Start()
	eff, ok := m.Apply(start, MsgPropose)
	if !ok {
		t.Fatal("propose not applicable at start")
	}
	if _, ok := m.Apply(eff.Target, MsgPropose); ok {
		t.Error("second propose applicable")
	}
	if _, ok := m.Apply(start, "BOGUS"); ok {
		t.Error("unknown message applicable")
	}
}

// TestEFSMIndependentOfN: the EFSM state space must not depend on the
// process count — the §5.3 property carried over to the second algorithm.
func TestEFSMIndependentOfN(t *testing.T) {
	base := generateEFSM(t, 7)
	baseNames := strings.Join(base.StateNames(), ",")
	for _, n := range []int{9, 15, 21} {
		e := generateEFSM(t, n)
		if got := strings.Join(e.StateNames(), ","); got != baseNames {
			t.Errorf("n=%d: EFSM states %s, want %s", n, got, baseNames)
		}
	}
}

// TestEFSMHappyPath drives the coalesced machine through a full round.
func TestEFSMHappyPath(t *testing.T) {
	e := generateEFSM(t, 5)
	inst, err := core.NewEFSMInstance(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range []string{MsgPropose, MsgEstimate, MsgEstimate, MsgProposal, MsgAck, MsgAck} {
		inst.Deliver(msg)
	}
	if !inst.Finished() {
		t.Errorf("EFSM not finished; state %s", inst.StateName())
	}
}

func TestDescribeState(t *testing.T) {
	m, err := NewModel(5)
	if err != nil {
		t.Fatal(err)
	}
	lines := m.DescribeState(core.Vector{1, 2, 1, 1, 0})
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"submitted", "2 estimates", "proposal", "acknowledged"} {
		if !strings.Contains(joined, want) {
			t.Errorf("description missing %q: %v", want, lines)
		}
	}
}

func contains(list []string, want string) bool {
	for _, s := range list {
		if s == want {
			return true
		}
	}
	return false
}

// generateEFSM generalises the family member for n from a generation of
// its own.
func generateEFSM(t *testing.T, n int) *core.EFSM {
	t.Helper()
	m, err := NewModel(n)
	if err != nil {
		t.Fatal(err)
	}
	efsm, err := core.GenerateEFSM(context.Background(), m, NewAbstraction(m))
	if err != nil {
		t.Fatalf("GenerateEFSM(n=%d): %v", n, err)
	}
	return efsm
}
