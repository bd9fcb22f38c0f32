package core

import (
	"context"
	"fmt"
	"slices"
	"strconv"
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
func (g Guard) String() string { return string(g.Append(nil)) }

// Append appends the guard as String renders it: "true" when it is
// unconditional, "v == b" when its bounds read the same, and
// "lo <= v <= hi" otherwise.
func (g Guard) Append(b []byte) []byte {
	if g.Unconditional() {
		return append(b, "true"...)
	}
	var lo, hi [20]byte
	if l, h := appendBound(lo[:0], g.MinSym, g.Min), appendBound(hi[:0], g.MaxSym, g.Max); string(l) == string(h) {
		b = append(b, g.Variable...)
		b = append(b, " == "...)
		return append(b, l...)
	}
	b = appendBound(b, g.MinSym, g.Min)
	b = append(b, " <= "...)
	b = append(b, g.Variable...)
	b = append(b, " <= "...)
	return appendBound(b, g.MaxSym, g.Max)
}

// appendBound appends a guard bound: its symbol, or the number when it
// has none.
func appendBound(b []byte, sym string, v int) []byte {
	if sym != "" {
		return append(b, sym...)
	}
	return strconv.AppendInt(b, int64(v), 10)
}

// VarOp is a counter update performed by a transition.
type VarOp struct {
	// Variable names the counter to update.
	Variable string
	// Delta is added to the counter.
	Delta int
}

// String renders the update in the conventional form ("votes_received++").
func (op VarOp) String() string { return string(op.Append(nil)) }

// Append appends the update as String renders it.
func (op VarOp) Append(b []byte) []byte {
	b = append(b, op.Variable...)
	switch op.Delta {
	case 1:
		return append(b, "++"...)
	case -1:
		return append(b, "--"...)
	}
	return strconv.AppendInt(append(b, " += "...), int64(op.Delta), 10)
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

// GeneralizeEFSM coalesces a generated machine into an EFSM under the given
// abstraction. It fails if the abstraction is unsound: two concrete states
// with the same label and the same guard-component value must react to every
// message with the same actions and the same target label, and the guard
// values selecting each outcome must form a contiguous interval.
//
// It works on positions and ids: each state's label is asked for once and
// numbered, a transition's group is its source label and message, and its
// outcome is its target's label and its action list, compared entry for
// entry (a generated machine's equal lists share one backing array). The
// transitions are sorted by group and guard value, so that each value's
// outcomes and each group's runs of values are neighbours.
func GeneralizeEFSM(machine *StateMachine, abs EFSMAbstraction) (*EFSM, error) {
	table, err := machine.Table()
	if err != nil {
		return nil, fmt.Errorf("core: efsm: %w", err)
	}
	nm := len(machine.Messages)
	efsm := &EFSM{
		ModelName: machine.ModelName,
		Parameter: machine.Parameter,
		Messages:  append([]string(nil), machine.Messages...),
	}

	// Each message's guard component and counter updates, asked once, and
	// the counter variable names in component order.
	seenVar := map[string]bool{}
	guardComps := make([]int, nm)
	varOps := make([][]VarOp, nm)
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
		varOps[i] = slices.Clip(append([]VarOp(nil), abs.VarOps(msg)...))
		for _, op := range varOps[i] {
			if !seenVar[op.Variable] {
				seenVar[op.Variable] = true
				efsm.Variables = append(efsm.Variables, op.Variable)
			}
		}
	}

	// Number the labels in first-seen order: label id l is efsm.States[l]
	// until the states are sorted.
	labelOf := make([]int32, len(machine.States)) // by state position
	ids := map[string]int32{}
	for i, s := range machine.States {
		label := FinishStateName
		if !s.Final {
			label = abs.StateLabel(s.Vector)
		}
		id, seen := ids[label]
		if !seen {
			id = int32(len(efsm.States))
			ids[label] = id
			efsm.States = append(efsm.States, &EState{Name: label, Final: s.Final})
		}
		labelOf[i] = id
		if i == table.Start {
			efsm.Start = efsm.States[id]
		}
		if s.Final {
			efsm.Finish = efsm.States[id]
		}
	}
	if efsm.Start == nil {
		return nil, fmt.Errorf("core: efsm: start state missing")
	}

	// One outcome per transition, in walk order (the table's), then
	// ordered by group (label id × message index) and guard value: a
	// value's outcomes are neighbours, the first walked first, and so are
	// a group's runs of values.
	outs := make([]outcome, 0, table.Sizes.Edges)
	for i, s := range machine.States {
		if s.Final {
			continue
		}
		for j, e := range table.Out(i) {
			o := outcome{group: labelOf[i]*int32(nm) + e.Msg, edge: table.first[i] + int32(j)}
			if c := guardComps[e.Msg]; c >= 0 {
				o.val = s.Vector[c]
			}
			outs = append(outs, o)
		}
	}
	outs = sortOutcomes(outs, len(efsm.States)*nm)
	actionsOf := func(o *outcome) []string { return table.edges[o.edge].Actions }
	targetOf := func(o *outcome) *EState { return efsm.States[labelOf[table.edges[o.edge].To]] }
	// Two transitions have the same outcome when they have the same target
	// label and equal action lists. Equal lists of a generated machine
	// share one backing array, which decides most comparisons at once.
	same := func(o, p *outcome) bool {
		e, f := &table.edges[o.edge], &table.edges[p.edge]
		a, b := e.Actions, f.Actions
		return labelOf[e.To] == labelOf[f.To] && len(a) == len(b) &&
			(len(a) == 0 || &a[0] == &b[0] || slices.Equal(a, b))
	}

	// Every transition of a group and value must have the outcome of the
	// first one walked; the earliest in walk order that does not is the
	// one reported.
	var first, bad, was *outcome
	for i := range outs {
		o := &outs[i]
		if first == nil || o.group != first.group || o.val != first.val {
			first = o
		} else if !same(o, first) && (bad == nil || o.edge < bad.edge) {
			bad, was = o, first
		}
	}
	if bad != nil {
		msg := bad.group % int32(nm)
		return nil, fmt.Errorf(
			"core: efsm: abstraction unsound: state %s, message %s, %s=%d maps to both (%s,%q) and (%s,%q)",
			efsm.States[bad.group/int32(nm)].Name, machine.Messages[msg], guardVarName(machine, guardComps[msg]), bad.val,
			targetOf(was).Name, actionsOf(was), targetOf(bad).Name, actionsOf(bad))
	}

	// Each group's values in ascending order, the groups in label and then
	// message order; each run of consecutive values with one outcome is a
	// guarded transition. An outcome may legitimately recur in disjoint
	// runs (e.g. a count that is simple both below and above its
	// threshold); the runs are disjoint by construction, so determinism is
	// preserved.
	var runs []outcome // the first outcome of each run, with hi its last value
	var his []int
	nActions := 0
	for i := 0; i < len(outs); {
		start, hi := i, outs[i].val
		for i++; i < len(outs) && outs[i].group == outs[start].group; i++ {
			if v := outs[i].val; v != hi { // else the value's outcome again
				if v != hi+1 || !same(&outs[i], &outs[start]) {
					break
				}
				hi = v
			}
		}
		if !efsm.States[outs[start].group/int32(nm)].Final {
			runs = append(runs, outs[start])
			his = append(his, hi)
			nActions += len(actionsOf(&outs[start]))
		}
	}
	trs := make([]ETransition, len(runs))
	ptrs := make([]*ETransition, len(runs))
	actions := make([]string, 0, nActions)
	for k, o := range runs {
		msg := int(o.group) % nm
		tr := &trs[k]
		tr.Message = machine.Messages[msg]
		tr.VarOps = varOps[msg]
		if acts := actionsOf(&o); len(acts) > 0 {
			actions = append(actions, acts...)
			tr.Actions = actions[len(actions)-len(acts) : len(actions) : len(actions)]
		}
		tr.Target = targetOf(&o)
		if c := guardComps[msg]; c >= 0 {
			lo, hi := o.val, his[k]
			tr.Guard = Guard{
				Variable: machine.Components[c].Name(),
				Min:      lo,
				Max:      hi,
				MinSym:   abs.Symbol(c, lo),
				MaxSym:   abs.Symbol(c, hi),
			}
		}
		ptrs[k] = tr
	}
	// A label's transitions are one run of ptrs.
	for k := 0; k < len(runs); {
		from := k
		for k < len(runs) && runs[k].group/int32(nm) == runs[from].group/int32(nm) {
			k++
		}
		efsm.States[runs[from].group/int32(nm)].Transitions = ptrs[from:k:k]
	}

	// Deterministic state order: start first, finish last, others by name.
	less := func(si, sj *EState) bool {
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
	}
	slices.SortStableFunc(efsm.States, func(si, sj *EState) int {
		switch {
		case less(si, sj):
			return -1
		case less(sj, si):
			return 1
		}
		return 0
	})
	return efsm, nil
}

// outcome is one concrete transition, in the terms its EFSM transition
// keeps: its group (source label id × message index), its guard value,
// and its position in the table, which is also its place in the walk of
// the machine's transitions and gives its target and actions.
type outcome struct {
	group, edge int32
	val         int
}

// sortOutcomes orders outs by group, of which there are ng, then by value,
// keeping walk order among equals: radix sorts, stable, a byte of the
// value at a time from the lowest and then the group. Most guard values
// span under 256, so the value takes a pass or none.
func sortOutcomes(outs []outcome, ng int) []outcome {
	if len(outs) == 0 {
		return outs
	}
	lo, hi := outs[0].val, outs[0].val
	for _, o := range outs {
		lo, hi = min(lo, o.val), max(hi, o.val)
	}
	span := uint64(hi) - uint64(lo)
	tmp := make([]outcome, len(outs))
	for shift := 0; shift < 64 && span>>shift != 0; shift += 8 {
		digit := func(o *outcome) int { return int(byte((uint64(o.val) - uint64(lo)) >> shift)) }
		var at [257]int32
		for i := range outs {
			at[digit(&outs[i])+1]++
		}
		for d := range 256 {
			at[d+1] += at[d]
		}
		for i := range outs {
			d := digit(&outs[i])
			tmp[at[d]] = outs[i]
			at[d]++
		}
		outs, tmp = tmp, outs
	}
	at := make([]int32, ng+1)
	for i := range outs {
		at[outs[i].group+1]++
	}
	for g := range ng {
		at[g+1] += at[g]
	}
	for i := range outs {
		g := outs[i].group
		tmp[at[g]] = outs[i]
		at[g]++
	}
	return tmp
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
