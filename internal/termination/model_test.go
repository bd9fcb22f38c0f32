package termination

import (
	"context"
	"strings"
	"testing"

	"asagen/internal/core"
	"asagen/internal/runtime"
)

func generate(t *testing.T, k int) *core.StateMachine {
	t.Helper()
	m, err := NewModel(k)
	if err != nil {
		t.Fatalf("NewModel(%d): %v", k, err)
	}
	machine, err := core.Generate(context.Background(), m)
	if err != nil {
		t.Fatalf("Generate(k=%d): %v", k, err)
	}
	return machine
}

func TestNewModelValidation(t *testing.T) {
	if _, err := NewModel(0); err == nil {
		t.Error("k=0 accepted")
	}
	m, err := NewModel(3)
	if err != nil {
		t.Fatal(err)
	}
	if m.FanOut() != 3 {
		t.Errorf("FanOut = %d", m.FanOut())
	}
}

// TestFamilySize: the reachable family member has 2(k+1) − 1 states plus
// the finish state (active with 0..k outstanding, idle-waiting with 1..k
// outstanding, the idle start, FINISHED).
func TestFamilySize(t *testing.T) {
	for _, k := range []int{1, 2, 4, 8} {
		machine := generate(t, k)
		want := 2*(k+1) + 1 // incl. finish state
		if got := machine.Stats.FinalStates; got != want {
			t.Errorf("k=%d: final states = %d, want %d", k, got, want)
		}
		if got := machine.Stats.InitialStates; got != 2*(k+1) {
			t.Errorf("k=%d: initial states = %d, want %d", k, got, 2*(k+1))
		}
	}
}

// TestWorkerLifecycle walks activate → spawn ×2 → idle → children complete
// → done.
func TestWorkerLifecycle(t *testing.T) {
	machine := generate(t, 3)
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

	deliver(MsgTask)
	deliver(MsgSpawn)
	deliver(MsgSpawn)
	if got := countOf(actions, ActSendTask); got != 2 {
		t.Fatalf("spawned %d tasks, want 2", got)
	}

	deliver(MsgIdle) // still waiting on 2 children
	if inst.Finished() {
		t.Fatal("finished while children outstanding")
	}
	deliver(MsgChildDone)
	if inst.Finished() {
		t.Fatal("finished with one child outstanding")
	}
	deliver(MsgChildDone)
	if !inst.Finished() {
		t.Fatal("not finished after last child completed")
	}
	if countOf(actions, ActSendDone) != 1 {
		t.Errorf("done reported %d times, want 1", countOf(actions, ActSendDone))
	}
}

// TestImmediateCompletion: a process that goes idle without spawning
// reports done at once.
func TestImmediateCompletion(t *testing.T) {
	machine := generate(t, 2)
	var actions []string
	inst, err := runtime.New(machine, runtime.ActionFunc(func(a string) { actions = append(actions, a) }))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Deliver(MsgTask); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Deliver(MsgIdle); err != nil {
		t.Fatal(err)
	}
	if !inst.Finished() {
		t.Error("not finished")
	}
	if countOf(actions, ActSendDone) != 1 {
		t.Errorf("actions = %v", actions)
	}
}

func TestGuards(t *testing.T) {
	m, err := NewModel(2)
	if err != nil {
		t.Fatal(err)
	}
	start := m.Start()
	// Spawn while idle: not applicable.
	if _, ok := core.Apply(m, start, MsgSpawn); ok {
		t.Error("spawn applicable while idle")
	}
	// ChildDone with no children: not applicable.
	if _, ok := core.Apply(m, start, MsgChildDone); ok {
		t.Error("child_done applicable with no children")
	}
	// Idle while idle: not applicable.
	if _, ok := core.Apply(m, start, MsgIdle); ok {
		t.Error("idle applicable while idle")
	}
	// Spawn at the fan-out bound: not applicable.
	full := core.Vector{1, 2}
	if _, ok := core.Apply(m, full, MsgSpawn); ok {
		t.Error("spawn applicable at bound")
	}
	// Task while active: not applicable.
	if _, ok := core.Apply(m, core.Vector{1, 0}, MsgTask); ok {
		t.Error("task applicable while active")
	}
}

// TestEFSMIndependentOfK: the coalesced machine has three states (ACTIVE,
// IDLE_WAITING, FINISHED) regardless of the fan-out bound.
func TestEFSMIndependentOfK(t *testing.T) {
	for _, k := range []int{2, 4, 16} {
		e := generateEFSM(t, k)
		if len(e.States) != 3 {
			t.Errorf("k=%d: EFSM has %d states (%v), want 3", k, len(e.States), e.StateNames())
		}
	}
}

func TestEFSMLifecycle(t *testing.T) {
	e := generateEFSM(t, 3)
	inst, err := core.NewEFSMInstance(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range []string{MsgTask, MsgSpawn, MsgSpawn, MsgIdle, MsgChildDone, MsgChildDone} {
		inst.Deliver(msg)
	}
	if !inst.Finished() {
		t.Errorf("EFSM not finished; state %s outstanding=%d",
			inst.StateName(), inst.Var("outstanding"))
	}
}

func TestDescribeState(t *testing.T) {
	m, err := NewModel(3)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Join(core.Describe(m, core.Vector{1, 2}), " ")
	if !strings.Contains(lines, "active") || !strings.Contains(lines, "2 delegated") {
		t.Errorf("description = %s", lines)
	}
}

func countOf(list []string, want string) int {
	n := 0
	for _, s := range list {
		if s == want {
			n++
		}
	}
	return n
}

// generateEFSM generalises the family member for k from a generation of
// its own.
func generateEFSM(t *testing.T, k int) *core.EFSM {
	t.Helper()
	m, err := NewModel(k)
	if err != nil {
		t.Fatal(err)
	}
	efsm, err := core.GenerateEFSM(context.Background(), m, NewAbstraction(m))
	if err != nil {
		t.Fatalf("GenerateEFSM(k=%d): %v", k, err)
	}
	return efsm
}
