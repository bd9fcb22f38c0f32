package core

import (
	"context"
	"errors"
	"slices"
	"testing"
)

// toyModel is a configurable model for exercising the generation pipeline.
// Its state is (value, poison): value counts 0..max, poison is a boolean
// that no transition ever sets, so poisoned states are unreachable.
//
// Messages:
//
//	inc   — value++, finishing when value would exceed max
//	reset — value = 0 (a phase transition: it emits an action)
//	same  — no effect (never applicable)
type toyModel struct {
	max       int
	mergeTail bool // values >= max-1 behave identically on reset
}

func (m *toyModel) Name() string   { return "toy" }
func (m *toyModel) Parameter() int { return m.max }
func (m *toyModel) Components() []StateComponent {
	return []StateComponent{
		NewIntComponent("value", m.max),
		NewBoolComponent("poison"),
	}
}
func (m *toyModel) Messages() []string { return []string{"inc", "reset", "same"} }
func (m *toyModel) Start() Vector      { return Vector{0, 0} }

func (m *toyModel) Apply(v Vector, mi int, out *Effect) bool {
	msg := m.Messages()[mi]
	switch msg {
	case "inc":
		if v[0] == m.max {
			*out = Effect{Finished: true, Actions: []string{"->done"}}
			return true
		}
		*out = Effect{Target: Vector{v[0] + 1, v[1]}}
		return true
	case "reset":
		target := Vector{0, v[1]}
		if m.mergeTail && v[0] >= m.max-1 {
			// Tail states reset identically, making them equivalent when
			// inc from each also behaves identically.
			target = Vector{0, v[1]}
		}
		*out = Effect{Target: target, Actions: []string{"->zero"}}
		return true
	default:
		return false
	}
}

func (m *toyModel) DescribeState(v Vector, t *Text) {
	t.Line("value state")
}

func TestGenerateToyPipeline(t *testing.T) {
	machine, err := Generate(context.Background(), &toyModel{max: 3})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	// Raw space: 4 values x 2 poison = 8. Poisoned states unreachable.
	if got := machine.Stats.InitialStates; got != 8 {
		t.Errorf("InitialStates = %d, want 8", got)
	}
	// Reachable: values 0..3 with poison=0, plus the finish state.
	if got := machine.Stats.ReachableStates; got != 5 {
		t.Errorf("ReachableStates = %d, want 5", got)
	}
	if machine.Start == nil || machine.Start.Name != "0/F" {
		t.Fatalf("Start = %+v, want state 0/F", machine.Start)
	}
	if machine.Finish == nil || !machine.Finish.Final {
		t.Fatal("missing finish state")
	}
	if machine.States[0] != machine.Start {
		t.Error("start state is not first after sorting")
	}
	if machine.States[len(machine.States)-1] != machine.Finish {
		t.Error("finish state is not last after sorting")
	}

	// The inc chain must walk 0 -> 1 -> 2 -> 3 -> FINISHED.
	s := machine.Start
	for i := 0; i < 3; i++ {
		tr := s.Transition("inc")
		if tr == nil {
			t.Fatalf("state %s: no inc transition", s.Name)
		}
		if tr.IsPhase() {
			t.Errorf("state %s: inc should be a simple transition", s.Name)
		}
		s = tr.Target
	}
	last := s.Transition("inc")
	if last == nil || !last.Target.Final {
		t.Fatalf("state %s: inc should finish, got %+v", s.Name, last)
	}
	if !last.IsPhase() {
		t.Error("finishing transition should carry the ->done action")
	}

	// reset is a phase transition back to start.
	tr := s.Transition("reset")
	if tr == nil || tr.Target != machine.Start || !tr.IsPhase() {
		t.Errorf("reset transition = %+v, want phase transition to start", tr)
	}

	// "same" is never applicable.
	if s.Transition("same") != nil {
		t.Error("inapplicable message recorded a transition")
	}
}

func TestGenerateEnumeratedKeepsUnreachableStates(t *testing.T) {
	machine, err := GenerateEnumerated(context.Background(), &toyModel{max: 3})
	if err != nil {
		t.Fatalf("GenerateEnumerated: %v", err)
	}
	// All 8 raw states plus the finish state are kept.
	if got := machine.Stats.ReachableStates; got != 9 {
		t.Errorf("ReachableStates = %d, want 9 (8 raw + finish)", got)
	}
}

func TestGenerateWithoutMerging(t *testing.T) {
	machine, err := Generate(context.Background(), &toyModel{max: 3}, WithoutMerging())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if machine.Stats.FinalStates != machine.Stats.ReachableStates {
		t.Errorf("FinalStates = %d, want %d (merging disabled)",
			machine.Stats.FinalStates, machine.Stats.ReachableStates)
	}
}

// unmergeableTwin has two boolean components where the second is dead: both
// values of the dead bit behave identically, so merging must halve the
// reachable space.
type twinModel struct{}

func (twinModel) Name() string   { return "twin" }
func (twinModel) Parameter() int { return 0 }
func (twinModel) Components() []StateComponent {
	return []StateComponent{NewBoolComponent("live"), NewBoolComponent("dead")}
}
func (twinModel) Messages() []string { return []string{"flip", "poke"} }
func (twinModel) Start() Vector      { return Vector{0, 0} }
func (twinModel) Apply(v Vector, mi int, out *Effect) bool {
	msg := twinModel{}.Messages()[mi]
	switch msg {
	case "flip":
		eff := Effect{Target: Vector{1 - v[0], v[1]}}
		if v[0] == 1 {
			eff.Actions = []string{"->down"} // makes the live bit observable
		}
		*out = eff
		return true
	case "poke":
		// Sets the dead bit; behaviourally invisible afterwards, but the
		// presence of the poke edge itself distinguishes states.
		if v[1] == 1 {
			return false
		}
		*out = Effect{Target: Vector{v[0], 1}}
		return true
	default:
		return false
	}
}
func (twinModel) DescribeState(Vector, *Text) {}

func TestMergeCollapsesDeadBit(t *testing.T) {
	machine, err := Generate(context.Background(), twinModel{})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if got := machine.Stats.ReachableStates; got != 4 {
		t.Fatalf("ReachableStates = %d, want 4", got)
	}
	// poke distinguishes dead=0 from dead=1 states structurally (the
	// latter lack the edge), so no merge happens under fixpoint
	// refinement; this guards against over-merging.
	if got := machine.Stats.FinalStates; got != 4 {
		t.Errorf("FinalStates = %d, want 4 (poke edge distinguishes)", got)
	}
}

// trueTwinModel makes the dead bit fully invisible: poke is a recorded
// self-loop on both values, so merging must collapse the pairs.
type trueTwinModel struct{}

func (trueTwinModel) Name() string   { return "truetwin" }
func (trueTwinModel) Parameter() int { return 0 }
func (trueTwinModel) Components() []StateComponent {
	return []StateComponent{NewBoolComponent("live"), NewBoolComponent("dead")}
}
func (trueTwinModel) Messages() []string { return []string{"flip", "poke"} }
func (trueTwinModel) Start() Vector      { return Vector{0, 0} }
func (trueTwinModel) Apply(v Vector, mi int, out *Effect) bool {
	msg := trueTwinModel{}.Messages()[mi]
	switch msg {
	case "flip":
		eff := Effect{Target: Vector{1 - v[0], v[1]}}
		if v[0] == 1 {
			eff.Actions = []string{"->down"} // makes the live bit observable
		}
		*out = eff
		return true
	case "poke":
		// Always applicable (a self-loop once dead=1), so the dead bit is
		// fully invisible and the twin states must merge.
		*out = Effect{Target: Vector{v[0], 1}}
		return true
	default:
		return false
	}
}
func (trueTwinModel) DescribeState(Vector, *Text) {}

func TestMergeCollapsesTrueTwins(t *testing.T) {
	machine, err := Generate(context.Background(), trueTwinModel{})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if got := machine.Stats.ReachableStates; got != 4 {
		t.Fatalf("ReachableStates = %d, want 4", got)
	}
	if got := machine.Stats.FinalStates; got != 2 {
		t.Errorf("FinalStates = %d, want 2", got)
	}
	// The merged start state must advertise both collapsed names.
	if got := len(machine.Start.MergedNames); got != 2 {
		t.Errorf("start MergedNames = %v, want 2 entries", machine.Start.MergedNames)
	}
	// The merged-away name is among them.
	if !slices.Contains(machine.Start.MergedNames, "F/T") {
		t.Errorf("start MergedNames = %v, want F/T among them", machine.Start.MergedNames)
	}
}

type badModel struct {
	components []StateComponent
	messages   []string
	start      Vector
	target     Vector
}

func (m badModel) Name() string                 { return "bad" }
func (m badModel) Parameter() int               { return 0 }
func (m badModel) Components() []StateComponent { return m.components }
func (m badModel) Messages() []string           { return m.messages }
func (m badModel) Start() Vector                { return m.start }
func (m badModel) DescribeState(Vector, *Text)  {}
func (m badModel) Apply(v Vector, mi int, out *Effect) bool {
	*out = Effect{Target: m.target}
	return true
}

func TestGenerateRejectsMalformedModels(t *testing.T) {
	comps := []StateComponent{NewBoolComponent("a")}
	tests := []struct {
		name  string
		model badModel
		want  error
	}{
		{"no components", badModel{messages: []string{"m"}}, ErrNoComponents},
		{"no messages", badModel{components: comps, start: Vector{0}}, ErrNoMessages},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Generate(context.Background(), tt.model)
			if !errors.Is(err, tt.want) {
				t.Errorf("Generate error = %v, want %v", err, tt.want)
			}
		})
	}

	t.Run("duplicate messages", func(t *testing.T) {
		_, err := Generate(context.Background(), badModel{components: comps, messages: []string{"m", "m"}, start: Vector{0}, target: Vector{0}})
		if err == nil {
			t.Error("Generate accepted duplicate messages")
		}
	})
	t.Run("empty message name", func(t *testing.T) {
		_, err := Generate(context.Background(), badModel{components: comps, messages: []string{" "}, start: Vector{0}, target: Vector{0}})
		if err == nil {
			t.Error("Generate accepted empty message name")
		}
	})
	t.Run("invalid start", func(t *testing.T) {
		_, err := Generate(context.Background(), badModel{components: comps, messages: []string{"m"}, start: Vector{5}, target: Vector{0}})
		if err == nil {
			t.Error("Generate accepted out-of-range start state")
		}
	})
	t.Run("invalid target", func(t *testing.T) {
		_, err := Generate(context.Background(), badModel{components: comps, messages: []string{"m"}, start: Vector{0}, target: Vector{9}})
		if err == nil {
			t.Error("Generate accepted out-of-range transition target")
		}
	})
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(context.Background(), &toyModel{max: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(context.Background(), &toyModel{max: 5})
	if err != nil {
		t.Fatal(err)
	}
	na, nb := a.StateNames(), b.StateNames()
	if len(na) != len(nb) {
		t.Fatalf("state count differs: %d vs %d", len(na), len(nb))
	}
	for i := range na {
		if na[i] != nb[i] {
			t.Errorf("state order differs at %d: %q vs %q", i, na[i], nb[i])
		}
	}
}

func TestTransitionCount(t *testing.T) {
	machine, err := Generate(context.Background(), &toyModel{max: 3})
	if err != nil {
		t.Fatal(err)
	}
	// 4 value states x (inc + reset) = 8 transitions; finish state has none.
	if got := machine.TransitionCount(); got != 8 {
		t.Errorf("TransitionCount = %d, want 8", got)
	}
}

func TestSortedMessages(t *testing.T) {
	machine, err := Generate(context.Background(), &toyModel{max: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := machine.Start.SortedMessages(machine.Messages)
	want := []string{"inc", "reset"}
	if len(got) != len(want) {
		t.Fatalf("SortedMessages = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("SortedMessages[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}
