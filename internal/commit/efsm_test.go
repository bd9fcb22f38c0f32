package commit

import (
	"context"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"asagen/internal/core"
)

// TestEFSMNineStates verifies the §5.3 claim: the EFSM formulation of the
// commit protocol contains 9 states, for every replication factor.
func TestEFSMNineStates(t *testing.T) {
	for _, r := range []int{4, 7, 13, 25, 46} {
		efsm := generateEFSM(t, r)
		if got := len(efsm.States); got != 9 {
			t.Errorf("r=%d: EFSM has %d states, want 9: %v", r, got, efsm.StateNames())
		}
	}
}

func TestEFSMStateNames(t *testing.T) {
	efsm := generateEFSM(t, 13)
	want := []string{
		EFSMWaitingNotFree, EFSMWaitingFree, EFSMUpdateHeldNotFree,
		EFSMChosenVoted, EFSMChosenCommitted, EFSMAdoptedCommitted,
		EFSMForcedCommitted, EFSMForcedCommittedUpdate, core.FinishStateName,
	}
	got := efsm.StateNames()
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("state names = %v, want %v", got, want)
	}
	if efsm.Start.Name != EFSMWaitingNotFree {
		t.Errorf("start = %s, want %s", efsm.Start.Name, EFSMWaitingNotFree)
	}
	if efsm.Finish == nil || !efsm.Finish.Final {
		t.Error("missing finish state")
	}
}

// efsmStructure renders an EFSM's full transition structure with symbolic
// guard bounds, for cross-parameter comparison.
func efsmStructure(e *core.EFSM) string {
	var b strings.Builder
	for _, s := range e.States {
		b.WriteString(s.Name)
		b.WriteString(":\n")
		for _, tr := range s.Transitions {
			b.WriteString("  ")
			b.WriteString(tr.Message)
			b.WriteString(" [")
			b.WriteString(symbolicGuard(tr.Guard))
			b.WriteString("] /")
			for _, op := range tr.VarOps {
				b.WriteString(" ")
				b.WriteString(op.String())
			}
			b.WriteString(" {")
			b.WriteString(strings.Join(tr.Actions, ","))
			b.WriteString("} -> ")
			b.WriteString(tr.Target.Name)
			b.WriteString("\n")
		}
	}
	return b.String()
}

// symbolicGuard renders a guard using only its symbolic bounds, failing
// loudly (via a marker) when a bound has no parameter-independent symbol.
func symbolicGuard(g core.Guard) string {
	if g.Unconditional() {
		return "true"
	}
	lo, hi := g.MinSym, g.MaxSym
	if lo == "" {
		lo = "<literal>"
	}
	if hi == "" {
		hi = "<literal>"
	}
	return g.Variable + ":" + lo + ".." + hi
}

// TestEFSMGenericInReplicationFactor checks that the EFSM generalised from
// machines of different replication factors has the identical symbolic
// structure — the §5.3 property that the EFSM "is generic with respect to
// the replication factor". Factors with f ≥ 3 are compared (below that the
// vote-count ceiling coincides with the vote threshold and some guarded
// transitions degenerate; see DESIGN.md).
func TestEFSMGenericInReplicationFactor(t *testing.T) {
	base := generateEFSM(t, 13)
	baseStruct := efsmStructure(base)
	if strings.Contains(baseStruct, "<literal>") {
		t.Fatalf("base structure contains non-symbolic bounds:\n%s", baseStruct)
	}
	for _, r := range []int{16, 25, 46} {
		e := generateEFSM(t, r)
		if s := efsmStructure(e); s != baseStruct {
			t.Errorf("r=%d: EFSM structure differs from r=13:\n--- r=13:\n%s\n--- r=%d:\n%s", r, baseStruct, r, s)
		}
	}
}

// TestEFSMVsGenericDifferential drives the EFSM instance and the generic
// algorithm with identical random message sequences; observable behaviour
// (actions, finished) must agree at every step.
func TestEFSMVsGenericDifferential(t *testing.T) {
	for _, r := range []int{4, 7, 13} {
		efsm := generateEFSM(t, r)
		for seed := int64(1); seed <= 25; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var genActions []string
			gen, err := NewGeneric(r, func(a string) { genActions = append(genActions, a) })
			if err != nil {
				t.Fatal(err)
			}
			inst, err := core.NewEFSMInstance(efsm)
			if err != nil {
				t.Fatal(err)
			}
			msgs := efsm.Messages
			for step := 0; step < 400; step++ {
				msg := msgs[rng.Intn(len(msgs))]
				genActions = genActions[:0]
				gen.Receive(msg)
				actions, _ := inst.Deliver(msg)
				if !equalStrings(genActions, actions) {
					t.Fatalf("r=%d seed=%d step=%d %s: actions diverge: generic=%v efsm=%v (efsm state %s)",
						r, seed, step, msg, genActions, actions, inst.StateName())
				}
				if gen.Finished() != inst.Finished() {
					t.Fatalf("r=%d seed=%d step=%d %s: finished diverges: generic=%v efsm=%v",
						r, seed, step, msg, gen.Finished(), inst.Finished())
				}
				if gen.Finished() {
					break
				}
			}
		}
	}
}

// TestEFSMVariables checks the counter variable set.
func TestEFSMVariables(t *testing.T) {
	efsm := generateEFSM(t, 7)
	want := map[string]bool{"votes_received": true, "commits_received": true}
	if len(efsm.Variables) != len(want) {
		t.Fatalf("Variables = %v", efsm.Variables)
	}
	for _, v := range efsm.Variables {
		if !want[v] {
			t.Errorf("unexpected variable %q", v)
		}
	}
}

// TestEFSMHappyPathTrace walks the uncontended commit round on the EFSM and
// checks the state trajectory.
func TestEFSMHappyPathTrace(t *testing.T) {
	efsm := generateEFSM(t, 4)
	inst, err := core.NewEFSMInstance(efsm)
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		msg       string
		wantState string
	}{
		{MsgFree, EFSMWaitingFree},
		{MsgUpdate, EFSMChosenVoted},
		{MsgVote, EFSMChosenVoted},
		{MsgVote, EFSMChosenCommitted},
		{MsgCommit, EFSMChosenCommitted},
		{MsgCommit, core.FinishStateName},
	}
	for i, st := range steps {
		inst.Deliver(st.msg)
		if got := inst.StateName(); got != st.wantState {
			t.Fatalf("step %d (%s): state = %s, want %s", i, st.msg, got, st.wantState)
		}
	}
	if !inst.Finished() {
		t.Error("not finished")
	}
	if got := inst.Var("votes_received"); got != 2 {
		t.Errorf("votes_received = %d, want 2", got)
	}
	if got := inst.Var("commits_received"); got != 2 {
		t.Errorf("commits_received = %d, want 2", got)
	}
}

// TestEFSMGuardStrings spot-checks guard rendering.
func TestEFSMGuardStrings(t *testing.T) {
	g := core.Guard{Variable: "votes_received", Min: 0, Max: 2, MinSym: "0", MaxSym: "vote_threshold-1"}
	if got := g.String(); got != "0 <= votes_received <= vote_threshold-1" {
		t.Errorf("String() = %q", got)
	}
	eq := core.Guard{Variable: "v", Min: 3, Max: 3}
	if got := eq.String(); got != "v == 3" {
		t.Errorf("String() = %q", got)
	}
	var unconditional core.Guard
	if got := unconditional.String(); got != "true" {
		t.Errorf("String() = %q", got)
	}
	if !unconditional.Holds(nil) {
		t.Error("unconditional guard does not hold")
	}
}

// generateEFSM generalises the family member for r from a generation of
// its own.
func generateEFSM(t *testing.T, r int) *core.EFSM {
	t.Helper()
	m, err := NewModel(r)
	if err != nil {
		t.Fatal(err)
	}
	efsm, err := core.GenerateEFSM(context.Background(), m, NewAbstraction(m))
	if err != nil {
		t.Fatalf("GenerateEFSM(r=%d): %v", r, err)
	}
	return efsm
}
