package trace

import (
	"errors"
	"testing"

	"asagen/internal/runtime"
)

// TestJudge walks the chain machine through every kind a Judge rules at
// tolerances 0, 1 and 2: a rejection in the start state, accepted
// deliveries (one with an action), the finishing one, deliveries after the
// finish (runtime.ErrFinished), and a Reset that starts over with a fresh
// budget.
func TestJudge(t *testing.T) {
	machine := chainMachine(t)
	msgs := []string{"ring", "inc", "ring", "inc", "inc", "inc", "ring"}
	const (
		A = KindAccepted
		I = KindIgnored
		V = KindViolation
	)
	for _, tc := range []struct {
		tolerance int
		want      []Kind
	}{
		{0, []Kind{V, A, A, A, A, V, V}},
		{1, []Kind{I, A, A, A, A, V, V}},
		{2, []Kind{I, A, A, A, A, I, V}},
	} {
		j, err := NewJudge(machine, tc.tolerance)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			finished := 0
			for i, msg := range msgs {
				d := j.Deliver(msg)
				if d.Kind != tc.want[i] {
					t.Fatalf("tolerance %d pass %d delivery %d (%s): kind %s, want %s",
						tc.tolerance, pass, i, msg, d.Kind, tc.want[i])
				}
				if (d.Kind == KindAccepted) != (d.Tr != nil) || (d.Kind == KindAccepted) != (d.Err == nil) {
					t.Fatalf("tolerance %d delivery %d: %s with transition %v and error %v",
						tc.tolerance, i, d.Kind, d.Tr, d.Err)
				}
				if i == 2 && d.Tr.Actions[0] != "->bell" {
					t.Fatalf("tolerance %d: ring fired %+v, want the ->bell transition", tc.tolerance, d.Tr)
				}
				if d.Finished {
					finished++
					if i != 4 || !j.State().Final {
						t.Fatalf("tolerance %d: delivery %d reported finished in state %s", tc.tolerance, i, j.State().Name)
					}
				}
				if afterFinish := i > 4; afterFinish != errors.Is(d.Err, runtime.ErrFinished) {
					t.Fatalf("tolerance %d delivery %d: error %v", tc.tolerance, i, d.Err)
				}
			}
			if finished != 1 {
				t.Fatalf("tolerance %d: finished reported %d times, want once", tc.tolerance, finished)
			}
			j.Reset(tc.tolerance)
			if j.State() != machine.Start {
				t.Fatalf("tolerance %d: Reset left the machine in %s", tc.tolerance, j.State().Name)
			}
		}
	}
}

// TestJudgeExpectSparesTheBudget: a rejected Expect is a violation at any
// tolerance and leaves the budget to the next Deliver.
func TestJudgeExpectSparesTheBudget(t *testing.T) {
	j, err := NewJudge(chainMachine(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, step := range []struct {
		expect bool
		msg    string
		want   Kind
	}{
		{true, "ring", KindViolation},
		{false, "ring", KindIgnored},
		{false, "ring", KindViolation},
		{true, "inc", KindAccepted},
	} {
		deliver := j.Deliver
		if step.expect {
			deliver = j.Expect
		}
		if d := deliver(step.msg); d.Kind != step.want {
			t.Fatalf("step %d (%s): kind %s, want %s", i, step.msg, d.Kind, step.want)
		}
	}
}

func TestNewJudgeRefusesNilMachine(t *testing.T) {
	if _, err := NewJudge(nil, 0); err == nil {
		t.Error("nil machine accepted")
	}
}
