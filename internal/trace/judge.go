package trace

import (
	"asagen/internal/core"
	"asagen/internal/runtime"
)

// Judge is the one place a delivery becomes a verdict kind. It drives one
// machine through a runtime.Instance: a delivery that fires a transition
// is accepted, and a rejected one (not applicable in the current state,
// or after the finish state) is ignored while the tolerance budget lasts
// and a violation afterwards. A Monitor keeps one Judge per target, the
// fleet simulation one per fleet member and the cluster's routing oracle
// one at tolerance 0. A Judge is not safe for concurrent use.
type Judge struct {
	inst   *runtime.Instance
	budget int
}

// Judgement is a Judge's ruling on one delivery: its Kind (KindAccepted,
// KindIgnored or KindViolation), the transition Tr an accepted delivery
// fired, Err for why a rejected one was rejected, and whether an accepted
// delivery Finished the machine. A finished machine accepts nothing more
// (runtime.ErrFinished), so Finished is reported once a run.
type Judgement struct {
	Kind     Kind
	Tr       *core.Transition
	Finished bool
	Err      error
}

// NewJudge returns a judge of deliveries to machine, positioned at its
// start state, that absorbs tolerance rejections before a violation.
func NewJudge(machine *core.StateMachine, tolerance int) (*Judge, error) {
	inst, err := runtime.New(machine, nil)
	if err != nil {
		return nil, err
	}
	return &Judge{inst: inst, budget: tolerance}, nil
}

// Deliver judges one delivery of msg.
func (j *Judge) Deliver(msg string) Judgement {
	tr, err := j.inst.Fire(msg)
	switch {
	case err == nil:
		return Judgement{Kind: KindAccepted, Tr: tr, Finished: tr.Target.Final}
	case j.budget > 0:
		j.budget--
		return Judgement{Kind: KindIgnored, Err: err}
	}
	return Judgement{Kind: KindViolation, Err: err}
}

// Expect judges a delivery the caller took from the current state's own
// transitions. Its rejection would mean the machine and its interpreter
// disagree, so Expect judges as Deliver would with no budget left, and it
// leaves the budget as it was.
func (j *Judge) Expect(msg string) Judgement {
	budget := j.budget
	j.budget = 0
	d := j.Deliver(msg)
	j.budget = budget
	return d
}

// Reset returns the machine to its start state with a fresh tolerance.
func (j *Judge) Reset(tolerance int) {
	j.inst.Reset()
	j.budget = tolerance
}

// State returns the machine's current state, Final once it has finished.
func (j *Judge) State() *core.State { return j.inst.State() }
