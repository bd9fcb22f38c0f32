package core

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// counterModel is a toy family: count to max, beep at the threshold t,
// finish past max. One boolean "armed" gates counting.
type counterModel struct {
	max int
}

func (m counterModel) Name() string   { return "counter" }
func (m counterModel) Parameter() int { return m.max }
func (m counterModel) Components() []StateComponent {
	return []StateComponent{
		NewBoolComponent("armed"),
		NewIntComponent("count", m.max),
	}
}
func (m counterModel) Messages() []string { return []string{"arm", "tick"} }
func (m counterModel) Start() Vector      { return Vector{0, 0} }
func (m counterModel) Apply(v Vector, mi int, out *Effect) bool {
	msg := m.Messages()[mi]
	switch msg {
	case "arm":
		if v[0] == 1 {
			return false
		}
		*out = Effect{Target: Vector{1, v[1]}}
		return true
	case "tick":
		if v[0] == 0 {
			return false
		}
		if v[1] == m.max {
			*out = Effect{Finished: true, Actions: []string{"->done"}}
			return true
		}
		eff := Effect{Target: Vector{1, v[1] + 1}}
		if v[1]+1 == m.max {
			eff.Actions = []string{"->beep"}
		}
		*out = eff
		return true
	default:
		return false
	}
}
func (m counterModel) DescribeState(Vector, *Text) {}

// counterAbstraction coalesces the count into an EFSM variable.
type counterAbstraction struct {
	model counterModel
}

func (a counterAbstraction) StateLabel(v Vector) string {
	if v[0] == 1 {
		return "ARMED"
	}
	return "DISARMED"
}
func (a counterAbstraction) GuardComponent(msg string) int {
	if msg == "tick" {
		return 1
	}
	return -1
}
func (a counterAbstraction) VarOps(msg string) []VarOp {
	if msg == "tick" {
		return []VarOp{{Variable: "count", Delta: 1}}
	}
	return nil
}
func (a counterAbstraction) Symbol(component, value int) string {
	switch value {
	case 0:
		return "0"
	case a.model.max:
		return "max"
	case a.model.max - 1:
		return "max-1"
	case a.model.max - 2:
		return "max-2"
	}
	return ""
}

func buildCounterEFSM(t *testing.T, max int) *EFSM {
	t.Helper()
	model := counterModel{max: max}
	machine, err := Generate(context.Background(), model)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	efsm, err := GeneralizeEFSM(machine, counterAbstraction{model: model})
	if err != nil {
		t.Fatalf("GeneralizeEFSM: %v", err)
	}
	return efsm
}

func TestGeneralizeCounterEFSM(t *testing.T) {
	efsm := buildCounterEFSM(t, 5)
	if len(efsm.States) != 3 { // DISARMED, ARMED, FINISHED
		t.Fatalf("states = %v", efsm.StateNames())
	}
	if efsm.Start == nil || efsm.Start.Name != "DISARMED" {
		t.Errorf("start = %v", efsm.Start)
	}
	if efsm.Finish == nil || !efsm.Finish.Final {
		t.Error("missing finish state")
	}
	if len(efsm.Variables) != 1 || efsm.Variables[0] != "count" {
		t.Errorf("variables = %v", efsm.Variables)
	}
	if efsm.TransitionCount() == 0 {
		t.Error("no transitions")
	}
}

func TestEFSMStructureIndependentOfMax(t *testing.T) {
	structure := func(e *EFSM) string {
		var b strings.Builder
		for _, s := range e.States {
			b.WriteString(s.Name + ":")
			for _, tr := range s.Transitions {
				b.WriteString(" " + tr.Message + "[" + tr.Guard.String() + "]{" +
					strings.Join(tr.Actions, ",") + "}->" + tr.Target.Name)
			}
			b.WriteString("\n")
		}
		return b.String()
	}
	base := structure(buildCounterEFSM(t, 5))
	for _, max := range []int{7, 11} {
		if got := structure(buildCounterEFSM(t, max)); got != base {
			t.Errorf("max=%d: structure differs:\n%s\nvs base:\n%s", max, got, base)
		}
	}
}

func TestEFSMInstanceWalk(t *testing.T) {
	efsm := buildCounterEFSM(t, 3)
	inst, err := NewEFSMInstance(efsm)
	if err != nil {
		t.Fatal(err)
	}
	if inst.StateName() != "DISARMED" {
		t.Fatalf("start = %s", inst.StateName())
	}
	// tick before arming: ignored.
	if _, ok := inst.Deliver("tick"); ok {
		t.Error("tick applied while disarmed")
	}
	if _, ok := inst.Deliver("arm"); !ok {
		t.Fatal("arm not applied")
	}
	// Count to the beep.
	var last []string
	for i := 0; i < 3; i++ {
		actions, ok := inst.Deliver("tick")
		if !ok {
			t.Fatalf("tick %d not applied", i)
		}
		last = actions
	}
	if len(last) != 1 || last[0] != "->beep" {
		t.Errorf("beep actions = %v", last)
	}
	if inst.Var("count") != 3 {
		t.Errorf("count = %d", inst.Var("count"))
	}
	// Final tick finishes.
	if _, ok := inst.Deliver("tick"); !ok {
		t.Fatal("finishing tick not applied")
	}
	if !inst.Finished() {
		t.Error("not finished")
	}
	// Delivery after finish is ignored.
	if _, ok := inst.Deliver("tick"); ok {
		t.Error("delivery accepted after finish")
	}
}

func TestNewEFSMInstanceValidation(t *testing.T) {
	if _, err := NewEFSMInstance(nil); err == nil {
		t.Error("nil EFSM accepted")
	}
	if _, err := NewEFSMInstance(&EFSM{}); err == nil {
		t.Error("EFSM without start accepted")
	}
}

// badAbstraction maps every state to one label, making states with
// different behaviour collide: GeneralizeEFSM must reject it.
type badAbstraction struct{}

func (badAbstraction) StateLabel(Vector) string      { return "EVERYTHING" }
func (badAbstraction) GuardComponent(msg string) int { return -1 }
func (badAbstraction) VarOps(string) []VarOp         { return nil }
func (badAbstraction) Symbol(int, int) string        { return "" }

func TestGeneralizeRejectsUnsoundAbstraction(t *testing.T) {
	machine, err := Generate(context.Background(), counterModel{max: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GeneralizeEFSM(machine, badAbstraction{}); err == nil {
		t.Error("unsound abstraction accepted")
	}
}

// splitListModel sends x,y on M from both of its states: as the single
// action "x,y" from b=0, as "x" then "y" from b=1.
type splitListModel struct{}

func (splitListModel) Name() string                    { return "split-lists" }
func (splitListModel) Parameter() int                  { return 1 }
func (splitListModel) Components() []StateComponent    { return []StateComponent{NewBoolComponent("b")} }
func (splitListModel) Messages() []string              { return []string{"M"} }
func (splitListModel) Start() Vector                   { return Vector{0} }
func (splitListModel) DescribeState(v Vector, t *Text) {}
func (splitListModel) Apply(v Vector, _ int, eff *Effect) bool {
	if v[0] == 0 {
		eff.Target[0] = 1
		eff.Actions = append(eff.Actions, "x,y")
	} else {
		eff.Actions = append(eff.Actions, "x", "y")
	}
	return true
}

// TestGeneralizeComparesActionListsExactly: two states under one label
// whose action lists join to the same text but differ are an unsound
// abstraction; joined with ",", ["x,y"] and ["x", "y"] were one outcome,
// and the EFSM named an action one of the states never performs.
func TestGeneralizeComparesActionListsExactly(t *testing.T) {
	machine, err := Generate(context.Background(), splitListModel{})
	if err != nil {
		t.Fatal(err)
	}
	if len(machine.States) != 2 {
		t.Fatalf("states = %v, want the two of them", machine.StateNames())
	}
	efsm, err := GeneralizeEFSM(machine, badAbstraction{})
	if err == nil || !strings.Contains(err.Error(), "abstraction unsound") {
		t.Fatalf("err = %v, want an unsound abstraction; EFSM: %+v", err, efsm)
	}
	if want := `(EVERYTHING,["x,y"]) and (EVERYTHING,["x" "y"])`; !strings.Contains(err.Error(), want) {
		t.Errorf("err = %v, want the two outcomes told apart: %s", err, want)
	}
}

func TestVarOpString(t *testing.T) {
	tests := []struct {
		op   VarOp
		want string
	}{
		{VarOp{Variable: "v", Delta: 1}, "v++"},
		{VarOp{Variable: "v", Delta: -1}, "v--"},
		{VarOp{Variable: "v", Delta: 3}, "v += 3"},
	}
	for _, tt := range tests {
		if got := tt.op.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

// refGuardString is Guard.String as fmt wrote it, before the guard
// appended itself.
func refGuardString(g Guard) string {
	if g.Unconditional() {
		return "true"
	}
	lo, hi := g.MinSym, g.MaxSym
	if lo == "" {
		lo = strconv.Itoa(g.Min)
	}
	if hi == "" {
		hi = strconv.Itoa(g.Max)
	}
	if lo == hi {
		return fmt.Sprintf("%s == %s", g.Variable, lo)
	}
	return fmt.Sprintf("%s <= %s <= %s", lo, g.Variable, hi)
}

// TestGuardAndOpAppendMatchFmt: the appenders the EFSM writers use write
// what fmt wrote, symbolic and literal bounds mixed included.
func TestGuardAndOpAppendMatchFmt(t *testing.T) {
	var guards []Guard
	for _, min := range []int{-12, 0, 3} {
		for _, max := range []int{-12, 3, 1 << 40} {
			for _, minSym := range []string{"", "3", "t-1", "a very long symbol past twenty bytes"} {
				for _, maxSym := range []string{"", "3", "t-1"} {
					guards = append(guards, Guard{Variable: "v", Min: min, Max: max, MinSym: minSym, MaxSym: maxSym})
				}
			}
		}
	}
	guards = append(guards, Guard{})
	for _, g := range guards {
		if got, want := string(g.Append([]byte("x"))), "x"+refGuardString(g); got != want {
			t.Errorf("%+v: Append wrote %q, fmt %q", g, got, want)
		}
	}
	for _, delta := range []int{-7, -1, 0, 1, 2, 1 << 40} {
		op := VarOp{Variable: "n", Delta: delta}
		want := fmt.Sprintf("%s += %d", op.Variable, op.Delta)
		switch delta {
		case 1:
			want = "n++"
		case -1:
			want = "n--"
		}
		if got := op.String(); got != want {
			t.Errorf("%+v: String = %q, fmt %q", op, got, want)
		}
	}
}

func TestGuardHolds(t *testing.T) {
	g := Guard{Variable: "v", Min: 2, Max: 4}
	for val, want := range map[int]bool{1: false, 2: true, 3: true, 4: true, 5: false} {
		if got := g.Holds(map[string]int{"v": val}); got != want {
			t.Errorf("Holds(v=%d) = %v, want %v", val, got, want)
		}
	}
}

func TestEFSMStateNames(t *testing.T) {
	efsm := buildCounterEFSM(t, 4)
	names := efsm.StateNames()
	if len(names) != 3 || names[0] != "DISARMED" {
		t.Errorf("StateNames = %v", names)
	}
}
