package trace

import (
	"asagen/internal/core"
	"asagen/internal/runtime"
)

// Judge is the one place a delivery becomes a verdict kind. It drives one
// machine through a runtime.Instance: a delivery that fires a transition
// is accepted, and a rejected one (not applicable in the current state,
// or after the finish state) is ignored while the tolerance budget lasts
// and a violation afterwards. A Monitor drives one Judge, the fleet
// simulation one per fleet member and the cluster's routing oracle one at
// tolerance 0. A Judge is not safe for concurrent use.
type Judge struct {
	inst      *runtime.Instance
	tolerance int
	budget    int
	// syms maps the symbols of the run's decoder (Event.sym) to the
	// machine's message indices, unseen until a symbol's first delivery.
	// Symbols belong to one decoder, so Reset forgets them.
	syms []int32
}

// unseen marks a symbol a Judge has not resolved yet; -1 is a message the
// machine does not have.
const unseen = -2

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

	edge int32 // Tr's position in the machine's core.Table
}

// NewJudge returns a judge of deliveries to machine, positioned at its
// start state, that absorbs tolerance rejections before a violation.
func NewJudge(machine *core.StateMachine, tolerance int) (*Judge, error) {
	inst, err := runtime.New(machine, nil)
	if err != nil {
		return nil, err
	}
	return &Judge{inst: inst, tolerance: tolerance, budget: tolerance}, nil
}

// Deliver judges one delivery of msg.
func (j *Judge) Deliver(msg string) Judgement {
	var d Judgement
	j.judge(j.inst.Message(msg), msg, &d)
	return d
}

// index resolves an event's message to its index in the machine's
// Messages (-1 when it has none), by its symbol once per run.
func (j *Judge) index(ev *Event) int {
	if ev.sym <= 0 {
		return j.inst.Message(ev.Msg)
	}
	for int(ev.sym) >= len(j.syms) {
		j.syms = append(j.syms, unseen)
	}
	i := j.syms[ev.sym]
	if i == unseen {
		i = int32(j.inst.Message(ev.Msg))
		j.syms[ev.sym] = i
	}
	return int(i)
}

// judge judges one delivery of msg, the message at index i of the
// machine's Messages (-1 when it has none), into *d. It writes the
// judgement in place: returned by value, it is spilled and copied back
// in wider words than it was written in, a stall a line.
func (j *Judge) judge(i int, msg string, d *Judgement) {
	var (
		e   int
		err error
	)
	if i >= 0 {
		e, err = j.inst.Step(i)
	} else {
		_, err = j.inst.Fire(msg) // refused: not one of the machine's messages
	}
	switch {
	case err == nil:
		tr := j.inst.Table().Edge(e).Transition
		*d = Judgement{Kind: KindAccepted, Tr: tr, Finished: tr.Target.Final, edge: int32(e)}
	case j.budget > 0:
		j.budget--
		*d = Judgement{Kind: KindIgnored, Err: err}
	default:
		*d = Judgement{Kind: KindViolation, Err: err}
	}
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

// Reset returns the machine to its start state with the tolerance it was
// made with, for a run over a new decoder.
func (j *Judge) Reset() {
	j.inst.Reset()
	j.budget = j.tolerance
	j.syms = j.syms[:0]
}

// State returns the machine's current state, Final once it has finished.
func (j *Judge) State() *core.State { return j.inst.State() }

// Position returns the position of the machine's current state in its
// States and its core.Table.
func (j *Judge) Position() int { return j.inst.Position() }
