package core_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"asagen/internal/core"
	"asagen/internal/models"
	"asagen/internal/render"
	"asagen/internal/spec"
)

// referenceGeneralize is GeneralizeEFSM as it was before it numbered
// labels and groups: states grouped by label string, groups keyed by label
// and message name, one map from guard value to outcome per group. Its one
// change is that action lists compare entry for entry; they were joined
// with ",", so ["x,y"] and ["x", "y"] were one outcome. It is the oracle
// TestGeneralizeAgreesWithReference and FuzzGeneralizeAgreesWithReference
// hold GeneralizeEFSM to.
func referenceGeneralize(machine *core.StateMachine, abs core.EFSMAbstraction) (*core.EFSM, error) {
	table, err := machine.Table()
	if err != nil {
		return nil, fmt.Errorf("core: efsm: %w", err)
	}
	efsm := &core.EFSM{
		ModelName: machine.ModelName,
		Parameter: machine.Parameter,
		Messages:  append([]string(nil), machine.Messages...),
	}
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

	states := map[string]*core.EState{}
	labelOf := make([]string, len(machine.States))
	for i, s := range machine.States {
		label := core.FinishStateName
		if !s.Final {
			label = abs.StateLabel(s.Vector)
		}
		labelOf[i] = label
		es, ok := states[label]
		if !ok {
			es = &core.EState{Name: label, Final: s.Final}
			states[label] = es
			efsm.States = append(efsm.States, es)
		}
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

	type outcome struct {
		targetLabel string
		actions     []string
	}
	type groupKey struct{ label, msg string }
	groups := map[groupKey]map[int]outcome{}
	for i, s := range machine.States {
		if s.Final {
			continue
		}
		for _, e := range table.Out(i) {
			msg := machine.Messages[e.Msg]
			c := guardComps[e.Msg]
			val := 0
			if c >= 0 {
				val = s.Vector[c]
			}
			out := outcome{targetLabel: labelOf[e.To], actions: e.Actions}
			key := groupKey{labelOf[i], msg}
			byVal, ok := groups[key]
			if !ok {
				byVal = map[int]outcome{}
				groups[key] = byVal
			}
			if prev, dup := byVal[val]; dup {
				if prev.targetLabel != out.targetLabel || !slices.Equal(prev.actions, out.actions) {
					guardVar := "(none)"
					if c >= 0 {
						guardVar = machine.Components[c].Name()
					}
					return nil, fmt.Errorf(
						"core: efsm: abstraction unsound: state %s, message %s, %s=%d maps to both (%s,%q) and (%s,%q)",
						labelOf[i], msg, guardVar, val, prev.targetLabel, prev.actions, out.targetLabel, out.actions)
				}
				continue
			}
			byVal[val] = out
		}
	}

	for _, es := range efsm.States {
		if es.Final {
			continue
		}
		for _, msg := range machine.Messages {
			byVal, ok := groups[groupKey{es.Name, msg}]
			if !ok {
				continue
			}
			vals := make([]int, 0, len(byVal))
			for v := range byVal {
				vals = append(vals, v)
			}
			sort.Ints(vals)
			c := abs.GuardComponent(msg)
			for i := 0; i < len(vals); {
				start := i
				out := byVal[vals[i]]
				for i+1 < len(vals) && vals[i+1] == vals[i]+1 &&
					byVal[vals[i+1]].targetLabel == out.targetLabel && slices.Equal(byVal[vals[i+1]].actions, out.actions) {
					i++
				}
				lo, hi := vals[start], vals[i]
				i++
				guard := core.Guard{}
				if c >= 0 {
					guard = core.Guard{
						Variable: machine.Components[c].Name(),
						Min:      lo,
						Max:      hi,
						MinSym:   abs.Symbol(c, lo),
						MaxSym:   abs.Symbol(c, hi),
					}
				}
				es.Transitions = append(es.Transitions, &core.ETransition{
					Message: msg,
					Guard:   guard,
					VarOps:  append([]core.VarOp(nil), abs.VarOps(msg)...),
					Actions: append([]string(nil), out.actions...),
					Target:  states[out.targetLabel],
				})
			}
		}
	}

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

// generalizeAgrees fails the test unless GeneralizeEFSM and the reference
// give equal EFSMs, or the same error.
func generalizeAgrees(t testing.TB, name string, machine *core.StateMachine, abs core.EFSMAbstraction) {
	t.Helper()
	got, err := core.GeneralizeEFSM(machine, abs)
	want, wantErr := referenceGeneralize(machine, abs)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: err = %v, reference %v", name, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: differs from the reference:\n%s\n--- reference\n%s", name, efsmText(t, got), efsmText(t, want))
	}
}

func efsmText(t testing.TB, e *core.EFSM) string {
	f, err := render.NewEFSM("efsm")
	if err != nil {
		t.Fatal(err)
	}
	art, err := f.RenderEFSM(e)
	if err != nil {
		t.Fatal(err)
	}
	return art.String()
}

// TestGeneralizeAgreesWithReference: on every registry model at every
// sweep parameter, described or not, the EFSM view equals the reference's.
func TestGeneralizeAgreesWithReference(t *testing.T) {
	for _, name := range models.Names() {
		entry, err := models.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if entry.Abstraction == nil {
			continue
		}
		for _, p := range entry.SweepParams {
			m, err := entry.Model(p)
			if err != nil {
				t.Fatal(err)
			}
			abs, err := entry.Abstraction(p)
			if err != nil {
				t.Fatal(err)
			}
			machine, err := core.Generate(context.Background(), m)
			if err != nil {
				t.Fatal(err)
			}
			generalizeAgrees(t, fmt.Sprintf("%s/%d", name, p), machine, abs)
		}
	}
}

// guardAll labels every state L and guards every message on component 1.
type guardAll struct{}

func (guardAll) StateLabel(core.Vector) string  { return "L" }
func (guardAll) GuardComponent(string) int      { return 1 }
func (guardAll) VarOps(string) []core.VarOp     { return nil }
func (guardAll) Symbol(_ int, value int) string { return "" }

// TestGeneralizeSparseGuardValues: guard values far apart or negative —
// hand-built machines hold any — are grouped as the reference groups them,
// and so are values that recur with another outcome.
func TestGeneralizeSparseGuardValues(t *testing.T) {
	for name, values := range map[string][]int{
		"large":    {0, 1 << 20, 1<<20 + 1, 1 << 40},
		"negative": {-3, -2, 0, 5},
		"dense":    {0, 1, 2, 3},
		"clash":    {7, 7, 8, 9},
	} {
		m := &core.StateMachine{ModelName: name, Messages: []string{"M"},
			Components: []core.StateComponent{core.NewBoolComponent("b"), core.NewIntComponent("n", 1<<41)}}
		for i, v := range values {
			m.States = append(m.States, &core.State{Name: fmt.Sprint(i), Vector: core.Vector{0, v}, Transitions: map[string]*core.Transition{}})
		}
		for i, s := range m.States {
			actions := []string{"->" + fmt.Sprint(i%2)}
			s.Transitions["M"] = &core.Transition{Message: "M", Target: m.States[(i+1)%len(m.States)], Actions: actions}
		}
		m.Start = m.States[0]
		generalizeAgrees(t, name, m, guardAll{})
	}
}

// labelFirst labels a state by its component 0 and guards every message
// on component 1.
type labelFirst struct{ guardAll }

func (labelFirst) StateLabel(v core.Vector) string { return fmt.Sprint("L", v[0]) }

// TestGeneralizeReportsTheFirstClashWalked: of two groups that clash, the
// one whose clash comes first in state order is reported, as the reference
// reports it, although its label was numbered second.
func TestGeneralizeReportsTheFirstClashWalked(t *testing.T) {
	m := &core.StateMachine{ModelName: "clashes", Messages: []string{"M"},
		Components: []core.StateComponent{core.NewIntComponent("l", 2), core.NewIntComponent("n", 8)}}
	for i, label := range []int{0, 1, 1, 0} {
		m.States = append(m.States, &core.State{Name: fmt.Sprint(i), Vector: core.Vector{label, 5}, Transitions: map[string]*core.Transition{}})
	}
	for i, s := range m.States {
		s.Transitions["M"] = &core.Transition{Message: "M", Target: m.States[0], Actions: []string{fmt.Sprint("->", i)}}
	}
	m.Start = m.States[0]
	generalizeAgrees(t, "clashes", m, labelFirst{})
	if _, err := core.GeneralizeEFSM(m, labelFirst{}); err == nil || !strings.Contains(err.Error(), "state L1") {
		t.Errorf("err = %v, want the clash of L1, walked first", err)
	}
}

// FuzzGeneralizeAgreesWithReference: whatever spec document compiles to a
// small family member with an abstraction, the EFSM view of its machine
// equals the reference's, or both refuse it with the same error. The seeds
// are FuzzCompile's documents: the registry's spec entries, the example
// scenarios' inline specs, and a member whose states share a label but not
// an action list.
//
//	go test ./internal/core -run='^$' -fuzz=FuzzGeneralizeAgreesWithReference -fuzztime=10s
func FuzzGeneralizeAgreesWithReference(f *testing.F) {
	var docs []string
	for _, pattern := range []string{
		filepath.Join("..", "models", "*.json"),
		filepath.Join("..", "..", "examples", "fleetsim", "*.json"),
	} {
		paths, err := filepath.Glob(pattern)
		if err != nil || len(paths) == 0 {
			f.Fatalf("no seeds at %s: %v", pattern, err)
		}
		docs = append(docs, paths...)
	}
	for _, path := range docs {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		var scenario struct{ Spec json.RawMessage }
		if json.Unmarshal(data, &scenario) == nil && len(scenario.Spec) > 0 {
			data = scenario.Spec
		}
		f.Add(data, uint8(0))
		f.Add(data, uint8(3))
	}
	f.Add([]byte(splitListsSpec), uint8(0))
	f.Fuzz(func(t *testing.T, doc []byte, param uint8) {
		c, err := spec.ParseAndCompile(doc)
		if err != nil || !c.HasEFSM() {
			return
		}
		m, err := c.Model(int(param % 9)) // 0: the default
		if err != nil {
			return
		}
		space := 1
		for _, comp := range m.Components() {
			if space *= comp.Cardinality(); space <= 0 || space > 1<<12 {
				return // small members only
			}
		}
		abs, err := c.Entry().Abstraction(m.Parameter())
		if err != nil {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		machine, err := core.Generate(ctx, m)
		if err != nil {
			return
		}
		generalizeAgrees(t, "member", machine, abs)
	})
}

// splitListsSpec is a two-state member whose states share the label L and
// send x,y on M: one as the single action "x,y", the other as "x" then
// "y". Its abstraction is unsound.
const splitListsSpec = `{
  "name": "split-lists",
  "components": [{"name": "b", "kind": "bool"}],
  "messages": ["M"],
  "rules": [
    {"message": "M", "when": [{"component": "b", "op": "==", "value": {}}], "set": [{"component": "b", "set": {"offset": 1}}], "actions": ["x,y"]},
    {"message": "M", "actions": ["x", "y"]}
  ],
  "abstraction": {"labels": [{"label": "L"}]}
}`
