// Package consensus holds the tests of the registry's consensus family, a
// simplified Chandra–Toueg-style single-decree consensus (§5.2 of the
// paper): a coordinator collects estimates and acknowledgements under
// majority thresholds that depend on the process count n, so the
// algorithm is a machine family, not one FSM. The family is the spec
// document internal/models/consensus.json; this package has no code of
// its own.
package consensus

import (
	"context"
	"strings"
	"testing"

	"asagen/internal/core"
	"asagen/internal/models"
	"asagen/internal/runtime"
)

// Messages and actions of the consensus machine.
const (
	msgPropose  = "PROPOSE"
	msgEstimate = "ESTIMATE"
	msgProposal = "PROPOSAL"
	msgAck      = "ACK"
	msgDecide   = "DECIDE"

	actSendEstimate = "->estimate"
	actSendProposal = "->proposal"
	actSendAck      = "->ack"
	actSendDecide   = "->decide"
)

func newModel(t *testing.T, n int) core.Model {
	t.Helper()
	m, err := models.Build("consensus", n)
	if err != nil {
		t.Fatalf("consensus n=%d: %v", n, err)
	}
	return m
}

func generate(t *testing.T, n int) *core.StateMachine {
	t.Helper()
	m := newModel(t, n)
	machine, err := core.Generate(context.Background(), m)
	if err != nil {
		t.Fatalf("Generate(n=%d): %v", n, err)
	}
	return machine
}

func TestNewModelValidation(t *testing.T) {
	if _, err := models.Build("consensus", 2); err == nil {
		t.Error("n=2 accepted")
	}
	if m := newModel(t, 5); m.Parameter() != 5 {
		t.Errorf("Parameter = %d", m.Parameter())
	}
	// The majority of five is three, wherever the machine states it.
	var notes []string
	for _, s := range generate(t, 5).States {
		for _, tr := range s.Transitions {
			notes = append(notes, tr.Annotations...)
		}
	}
	if !contains(notes, "Majority (3) of estimates gathered: propose.") {
		t.Errorf("no majority of 3 among the annotations %v", notes)
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

	deliver(msgPropose)
	if !contains(actions, actSendEstimate) {
		t.Fatalf("propose actions = %v", actions)
	}
	actions = actions[:0]

	deliver(msgEstimate) // own + 2 received = majority at the second
	deliver(msgEstimate)
	if !contains(actions, actSendProposal) {
		t.Fatalf("estimate majority actions = %v", actions)
	}
	actions = actions[:0]

	deliver(msgProposal) // coordinator acks its own proposal
	if !contains(actions, actSendAck) {
		t.Fatalf("proposal actions = %v", actions)
	}
	actions = actions[:0]

	deliver(msgAck)
	deliver(msgAck) // own + 2 = majority: decide and finish
	if !contains(actions, actSendDecide) {
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
	if _, err := inst.Deliver(msgPropose); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Deliver(msgProposal); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Deliver(msgDecide); err != nil {
		t.Fatal(err)
	}
	if !inst.Finished() {
		t.Error("participant did not finish on decide")
	}
}

func TestDuplicateProposeIgnored(t *testing.T) {
	m := newModel(t, 5)
	start := m.Start()
	eff, ok := core.Apply(m, start, msgPropose)
	if !ok {
		t.Fatal("propose not applicable at start")
	}
	if _, ok := core.Apply(m, eff.Target, msgPropose); ok {
		t.Error("second propose applicable")
	}
	if _, ok := core.Apply(m, start, "BOGUS"); ok {
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
	for _, msg := range []string{msgPropose, msgEstimate, msgEstimate, msgProposal, msgAck, msgAck} {
		inst.Deliver(msg)
	}
	if !inst.Finished() {
		t.Errorf("EFSM not finished; state %s", inst.StateName())
	}
}

func TestDescribeState(t *testing.T) {
	m := newModel(t, 5)
	lines := core.Describe(m, core.Vector{1, 2, 1, 1, 0})
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

// generateEFSM generalises the registry's family member for n from a
// generation of its own.
func generateEFSM(t *testing.T, n int) *core.EFSM {
	t.Helper()
	entry, err := models.Get("consensus")
	if err != nil {
		t.Fatal(err)
	}
	efsm, err := entry.EFSM(context.Background(), n)
	if err != nil {
		t.Fatalf("GenerateEFSM(n=%d): %v", n, err)
	}
	return efsm
}
