package core

import (
	"context"
	"errors"
	"math"
	"testing"
)

// hugeModel has a component cross product of 512^7 = 2^63, which overflows
// int, while only three states are reachable: the frontier explorer must
// generate it, and the legacy enumeration path must refuse with
// ErrStateSpaceOverflow.
type hugeModel struct{}

func hugeComponents() []StateComponent {
	comps := make([]StateComponent, 7)
	for i := range comps {
		comps[i] = NewIntComponent("dim", 511)
	}
	return comps
}

func (hugeModel) Name() string                 { return "huge" }
func (hugeModel) Parameter() int               { return 511 }
func (hugeModel) Components() []StateComponent { return hugeComponents() }
func (hugeModel) Messages() []string           { return []string{"inc"} }
func (hugeModel) Start() Vector                { return make(Vector, 7) }
func (hugeModel) DescribeState(Vector, *Text)  {}
func (hugeModel) Apply(v Vector, mi int, out *Effect) bool {
	msg := hugeModel{}.Messages()[mi]
	if msg != "inc" {
		return false
	}
	if v[0] == 2 {
		*out = Effect{Finished: true}
		return true
	}
	next := v.Clone()
	next[0]++
	*out = Effect{Target: next}
	return true
}

func TestFrontierToleratesCrossProductOverflow(t *testing.T) {
	machine, err := Generate(context.Background(), hugeModel{})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if !machine.Stats.InitialOverflow {
		t.Error("InitialOverflow not set for a 2^63 cross product")
	}
	if machine.Stats.InitialStates != math.MaxInt {
		t.Errorf("InitialStates = %d, want saturated math.MaxInt", machine.Stats.InitialStates)
	}
	// Reachable: values 0,1,2 on the first dimension, plus the finish state.
	if got := machine.Stats.ReachableStates; got != 4 {
		t.Errorf("ReachableStates = %d, want 4", got)
	}
	if machine.Finish == nil {
		t.Error("finish state missing")
	}
}

func TestLegacyEnumerationRejectsOverflow(t *testing.T) {
	_, err := GenerateEnumerated(context.Background(), hugeModel{})
	if !errors.Is(err, ErrStateSpaceOverflow) {
		t.Fatalf("GenerateEnumerated error = %v, want ErrStateSpaceOverflow", err)
	}
}

func TestStateSpaceSizeOverflow(t *testing.T) {
	if _, err := stateSpaceSize(hugeComponents()); !errors.Is(err, ErrStateSpaceOverflow) {
		t.Errorf("stateSpaceSize error = %v, want ErrStateSpaceOverflow", err)
	}
	size, err := stateSpaceSize([]StateComponent{NewBoolComponent("a"), NewIntComponent("b", 4)})
	if err != nil || size != 10 {
		t.Errorf("stateSpaceSize = %d, %v, want 10, nil", size, err)
	}
}

func TestVectorIndexOverflow(t *testing.T) {
	// 512^8 = 2^72: the top indices of this space exceed math.MaxInt.
	comps := append(hugeComponents(), NewIntComponent("dim", 511))
	v := make(Vector, 8)
	for i := range v {
		v[i] = 511
	}
	if _, err := v.index(comps); !errors.Is(err, ErrStateSpaceOverflow) {
		t.Errorf("index error = %v, want ErrStateSpaceOverflow", err)
	}
	small := Vector{1, 2}
	idx, err := small.index([]StateComponent{NewBoolComponent("a"), NewIntComponent("b", 4)})
	if err != nil || idx != 7 {
		t.Errorf("index = %d, %v, want 7, nil", idx, err)
	}
}

func TestVectorCompareMatchesIndexOrder(t *testing.T) {
	comps := []StateComponent{NewIntComponent("a", 2), NewBoolComponent("b"), NewIntComponent("c", 3)}
	size, err := stateSpaceSize(comps)
	if err != nil {
		t.Fatal(err)
	}
	prev := Vector(nil)
	for idx := 0; idx < size; idx++ {
		v := vectorFromIndex(idx, comps)
		if prev != nil && prev.Compare(v) >= 0 {
			t.Fatalf("Compare(%v, %v) >= 0, want < 0 (index order)", prev, v)
		}
		if v.Compare(v) != 0 {
			t.Fatalf("Compare(%v, itself) != 0", v)
		}
		prev = v
	}
}

// TestFrontierSkipsUnreachable asserts the memory contract of the default
// path: states unreachable from the start vector are never visited, so the
// model's Apply is never called on them.
type probeModel struct {
	toyModel
	visited map[string]bool
}

func (m *probeModel) Apply(v Vector, mi int, out *Effect) bool {
	if m.visited != nil {
		m.visited[v.Name(m.Components())] = true
	}
	return m.toyModel.Apply(v, mi, out)
}

func TestFrontierSkipsUnreachable(t *testing.T) {
	m := &probeModel{toyModel: toyModel{max: 3}, visited: map[string]bool{}}
	if _, err := Generate(context.Background(), m); err != nil {
		t.Fatal(err)
	}
	// The poison bit is never set by any transition, so no poisoned state
	// may ever be passed to Apply.
	for name := range m.visited {
		if name[len(name)-1] == 'T' {
			t.Errorf("Apply called on unreachable poisoned state %s", name)
		}
	}
	if len(m.visited) != 4 {
		t.Errorf("Apply visited %d states, want 4 reachable", len(m.visited))
	}
}
