package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// This file implements the extended-finite-state-machine end of the
// spectrum described in §3.2 and §5.3 of the paper: instead of encoding
// message counts in the state space, an EFSM keeps them in internal
// variables and guards its transitions on threshold conditions. The EFSM is
// *generated* from a concrete machine by coalescing all states that differ
// only in their count components, exactly as §5.3 proposes ("defining an
// abstract model and then generating an EFSM from it"). For the commit
// protocol this yields a nine-state machine whose state space is
// independent of the replication factor.

// EFSM is an extended finite state machine: states, counter variables, and
// message transitions guarded by conditions over the variables.
type EFSM struct {
	// ModelName identifies the abstract model the EFSM was derived from.
	ModelName string
	// Parameter is the parameter value of the concrete machine the EFSM
	// was generalised from (guard bounds are recorded both concretely and
	// symbolically).
	Parameter int
	// Variables lists the counter variable names, in declaration order.
	Variables []string
	// Messages lists the message vocabulary.
	Messages []string
	// States holds every EFSM state, start first, finish (if any) last.
	States []*EState
	// Start is the initial state.
	Start *EState
	// Finish is the terminal state, or nil.
	Finish *EState
}

// EState is a single EFSM state: transitions are tried in order and the
// first one whose message and guard match is taken.
type EState struct {
	// Name labels the abstract state, e.g. "CHOSEN_VOTED".
	Name string
	// Transitions lists the outgoing guarded transitions.
	Transitions []*ETransition
	// Final marks the terminal state.
	Final bool
}

// ETransition is a guarded EFSM transition.
type ETransition struct {
	// Message is the received message type.
	Message string
	// Guard constrains one counter variable; the zero Guard is
	// unconditional.
	Guard Guard
	// VarOps are the counter updates applied when the transition fires.
	VarOps []VarOp
	// Actions lists the outgoing messages sent (phase transitions).
	Actions []string
	// Target is the resulting state.
	Target *EState
}

// Guard is an inclusive interval condition on one counter variable. The
// zero value (empty Variable) is always satisfied.
type Guard struct {
	// Variable names the constrained counter; empty means unconditional.
	Variable string
	// Min and Max bound the variable inclusively, in concrete values of
	// the machine the EFSM was generalised from.
	Min, Max int
	// MinSym and MaxSym are parameter-independent renderings of the
	// bounds (e.g. "vote_threshold-1"); empty when the literal is used.
	MinSym, MaxSym string
}

// Unconditional reports whether the guard always holds.
func (g Guard) Unconditional() bool { return g.Variable == "" }

// Holds reports whether the guard is satisfied by the given variable
// values.
func (g Guard) Holds(vars map[string]int) bool {
	if g.Unconditional() {
		return true
	}
	v := vars[g.Variable]
	return v >= g.Min && v <= g.Max
}

// String renders the guard, preferring symbolic bounds.
func (g Guard) String() string {
	if g.Unconditional() {
		return "true"
	}
	lo := g.MinSym
	if lo == "" {
		lo = strconv.Itoa(g.Min)
	}
	hi := g.MaxSym
	if hi == "" {
		hi = strconv.Itoa(g.Max)
	}
	if lo == hi {
		return fmt.Sprintf("%s == %s", g.Variable, lo)
	}
	return fmt.Sprintf("%s <= %s <= %s", lo, g.Variable, hi)
}

// VarOp is a counter update performed by a transition.
type VarOp struct {
	// Variable names the counter to update.
	Variable string
	// Delta is added to the counter.
	Delta int
}

// String renders the update in the conventional form ("votes_received++").
func (op VarOp) String() string {
	switch op.Delta {
	case 1:
		return op.Variable + "++"
	case -1:
		return op.Variable + "--"
	default:
		return fmt.Sprintf("%s += %d", op.Variable, op.Delta)
	}
}

// EFSMAbstraction tells GeneralizeEFSM how to coalesce a concrete machine:
// which components are counters (moved into variables) and how to label the
// remaining abstract states.
type EFSMAbstraction interface {
	// StateLabel maps a concrete state vector to its abstract EFSM state
	// name. Vectors differing only in counter components must map to the
	// same label.
	StateLabel(v Vector) string
	// GuardComponent returns the index of the counter component whose
	// value selects among msg's possible outcomes, or -1 when msg's
	// behaviour is independent of all counters.
	GuardComponent(msg string) int
	// VarOps returns the counter updates performed when msg is received
	// (e.g. votes_received++ on a vote).
	VarOps(msg string) []VarOp
	// Symbol renders the concrete counter value as a parameter-independent
	// expression ("vote_threshold-1"), or "" to keep the literal.
	Symbol(component int, value int) string
}

// outcome is the observable result of one concrete transition, used to
// group transitions into guarded EFSM transitions.
type outcome struct {
	targetLabel string
	actionsKey  string
	actions     []string
}

// GeneralizeEFSM coalesces a generated machine into an EFSM under the given
// abstraction. It fails if the abstraction is unsound: two concrete states
// with the same label and the same guard-component value must react to every
// message with the same actions and the same target label, and the guard
// values selecting each outcome must form a contiguous interval.
func GeneralizeEFSM(machine *StateMachine, abs EFSMAbstraction) (*EFSM, error) {
	table, err := machine.Table()
	if err != nil {
		return nil, fmt.Errorf("core: efsm: %w", err)
	}
	efsm := &EFSM{
		ModelName: machine.ModelName,
		Parameter: machine.Parameter,
		Messages:  append([]string(nil), machine.Messages...),
	}

	// Collect the counter variable names in component order.
	seenVar := map[string]bool{}
	guardComps := make([]int, len(machine.Messages))
	for i, msg := range machine.Messages {
		c := abs.GuardComponent(msg)
		guardComps[i] = c
		if c >= 0 {
			name := machine.Components[c].Name()
			if !seenVar[name] {
				seenVar[name] = true
				efsm.Variables = append(efsm.Variables, name)
			}
		}
		for _, op := range abs.VarOps(msg) {
			if !seenVar[op.Variable] {
				seenVar[op.Variable] = true
				efsm.Variables = append(efsm.Variables, op.Variable)
			}
		}
	}

	// Group concrete states by label, preserving first-seen order.
	states := map[string]*EState{}
	labelOf := make([]string, len(machine.States)) // by state position
	addState := func(label string, final bool) *EState {
		if s, ok := states[label]; ok {
			return s
		}
		s := &EState{Name: label, Final: final}
		states[label] = s
		efsm.States = append(efsm.States, s)
		return s
	}
	for i, s := range machine.States {
		label := FinishStateName
		if !s.Final {
			label = abs.StateLabel(s.Vector)
		}
		labelOf[i] = label
		es := addState(label, s.Final)
		if s == machine.Start {
			efsm.Start = es
		}
		if s.Final {
			efsm.Finish = es
		}
	}
	if efsm.Start == nil {
		return nil, fmt.Errorf("core: efsm: start state missing")
	}

	// For each (label, message), map guard values to outcomes and check
	// consistency.
	type groupKey struct {
		label string
		msg   string
	}
	groups := map[groupKey]map[int]outcome{}
	for i, s := range machine.States {
		if s.Final {
			continue
		}
		label := labelOf[i]
		for _, e := range table.Out(i) {
			msg := machine.Messages[e.Msg]
			guardComp := guardComps[e.Msg]
			val := 0
			if guardComp >= 0 {
				val = s.Vector[guardComp]
			}
			out := outcome{
				targetLabel: labelOf[e.To],
				actionsKey:  strings.Join(e.Actions, ","),
				actions:     e.Actions,
			}
			key := groupKey{label, msg}
			byVal, ok := groups[key]
			if !ok {
				byVal = map[int]outcome{}
				groups[key] = byVal
			}
			if prev, dup := byVal[val]; dup {
				if prev.targetLabel != out.targetLabel || prev.actionsKey != out.actionsKey {
					return nil, fmt.Errorf(
						"core: efsm: abstraction unsound: state %s, message %s, %s=%d maps to both (%s,%s) and (%s,%s)",
						label, msg, guardVarName(machine, guardComp), val,
						prev.targetLabel, prev.actionsKey, out.targetLabel, out.actionsKey)
				}
				continue
			}
			byVal[val] = out
		}
	}

	// Turn each group's value->outcome map into interval-guarded
	// transitions.
	for _, es := range efsm.States {
		if es.Final {
			continue
		}
		for _, msg := range machine.Messages {
			byVal, ok := groups[groupKey{es.Name, msg}]
			if !ok {
				continue
			}
			trs, err := intervalTransitions(machine, abs, es.Name, msg, byVal, states)
			if err != nil {
				return nil, err
			}
			es.Transitions = append(es.Transitions, trs...)
		}
	}

	// Deterministic state order: start first, finish last, others by name.
	sort.SliceStable(efsm.States, func(i, j int) bool {
		si, sj := efsm.States[i], efsm.States[j]
		switch {
		case si == efsm.Start:
			return sj != efsm.Start
		case sj == efsm.Start:
			return false
		case si.Final:
			return false
		case sj.Final:
			return true
		default:
			return si.Name < sj.Name
		}
	})
	return efsm, nil
}

// GenerateEFSM generalises m from a generation of its own, which no cache
// shares: what models.Entry.EFSM does, and the reference the artefact
// pipeline's view of a cached machine is compared against. The context
// cancels the generation.
func GenerateEFSM(ctx context.Context, m Model, abs EFSMAbstraction) (*EFSM, error) {
	machine, err := Generate(ctx, m, WithoutDescriptions())
	if err != nil {
		return nil, fmt.Errorf("core: efsm: generate %s: %w", m.Name(), err)
	}
	return GeneralizeEFSM(machine, abs)
}

func guardVarName(machine *StateMachine, comp int) string {
	if comp < 0 {
		return "(none)"
	}
	return machine.Components[comp].Name()
}

// intervalTransitions converts a guard-value→outcome map into contiguous
// interval transitions, sorted by lower bound.
func intervalTransitions(machine *StateMachine, abs EFSMAbstraction, label, msg string, byVal map[int]outcome, states map[string]*EState) ([]*ETransition, error) {
	vals := make([]int, 0, len(byVal))
	for v := range byVal {
		vals = append(vals, v)
	}
	sort.Ints(vals)

	guardComp := abs.GuardComponent(msg)
	varOps := abs.VarOps(msg)

	var trs []*ETransition
	for i := 0; i < len(vals); {
		start := i
		out := byVal[vals[i]]
		for i+1 < len(vals) &&
			vals[i+1] == vals[i]+1 &&
			byVal[vals[i+1]].targetLabel == out.targetLabel &&
			byVal[vals[i+1]].actionsKey == out.actionsKey {
			i++
		}
		lo, hi := vals[start], vals[i]
		i++
		// An outcome may legitimately recur in disjoint intervals (e.g. a
		// count that is simple both below and above its threshold); each
		// contiguous run becomes its own guarded transition, and the runs
		// are disjoint by construction, so determinism is preserved.

		guard := Guard{}
		if guardComp >= 0 {
			guard = Guard{
				Variable: machine.Components[guardComp].Name(),
				Min:      lo,
				Max:      hi,
				MinSym:   abs.Symbol(guardComp, lo),
				MaxSym:   abs.Symbol(guardComp, hi),
			}
		}
		trs = append(trs, &ETransition{
			Message: msg,
			Guard:   guard,
			VarOps:  append([]VarOp(nil), varOps...),
			Actions: append([]string(nil), out.actions...),
			Target:  states[out.targetLabel],
		})
	}
	return trs, nil
}

// EFSMInstance executes an EFSM: an abstract state plus concrete counter
// variables.
type EFSMInstance struct {
	efsm  *EFSM
	state *EState
	vars  map[string]int
}

// NewEFSMInstance returns an instance at the EFSM's start state with all
// counters zero.
func NewEFSMInstance(e *EFSM) (*EFSMInstance, error) {
	if e == nil || e.Start == nil {
		return nil, fmt.Errorf("core: efsm instance: missing start state")
	}
	vars := make(map[string]int, len(e.Variables))
	for _, v := range e.Variables {
		vars[v] = 0
	}
	return &EFSMInstance{efsm: e, state: e.Start, vars: vars}, nil
}

// StateName returns the current abstract state name.
func (in *EFSMInstance) StateName() string { return in.state.Name }

// Finished reports whether the instance has reached the terminal state.
func (in *EFSMInstance) Finished() bool { return in.state.Final }

// Var returns the current value of a counter variable.
func (in *EFSMInstance) Var(name string) int { return in.vars[name] }

// Deliver feeds one message to the instance. It returns the actions of the
// transition taken, and false when no transition's guard matched (the
// message is ignored, as in the concrete machines).
func (in *EFSMInstance) Deliver(msg string) ([]string, bool) {
	if in.state.Final {
		return nil, false
	}
	for _, tr := range in.state.Transitions {
		if tr.Message != msg || !tr.Guard.Holds(in.vars) {
			continue
		}
		for _, op := range tr.VarOps {
			in.vars[op.Variable] += op.Delta
		}
		in.state = tr.Target
		return tr.Actions, true
	}
	return nil, false
}

// TransitionCount returns the total number of guarded transitions.
func (e *EFSM) TransitionCount() int {
	n := 0
	for _, s := range e.States {
		n += len(s.Transitions)
	}
	return n
}

// StateNames returns the state names in machine order.
func (e *EFSM) StateNames() []string {
	names := make([]string, len(e.States))
	for i, s := range e.States {
		names[i] = s.Name
	}
	return names
}
