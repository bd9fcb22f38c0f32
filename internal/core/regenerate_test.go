package core

import (
	"context"
	"fmt"
	"testing"
)

// gateModel exercises incremental regeneration: its state is
// (value, poison), and the "inc" rule only advances while value < gate.
// Raising the gate makes new states reachable; lowering it strands
// previously reachable ones. The gate is behavioural identity beyond the
// declared structure, so it is folded into the fingerprint extra.
//
// Messages:
//
//	inc   — value++ while value < gate
//	reset — value = 0 (emits an action)
//	fin   — finish when value == max (emits an action)
type gateModel struct {
	max, gate int
	// describeGen varies DescribeState output without touching any rule,
	// modelling a documentation-only edit.
	describeGen int
}

func (m *gateModel) Name() string   { return "gate" }
func (m *gateModel) Parameter() int { return m.max }
func (m *gateModel) Components() []StateComponent {
	return []StateComponent{
		NewIntComponent("value", m.max),
		NewBoolComponent("poison"),
	}
}
func (m *gateModel) Messages() []string { return []string{"inc", "reset", "fin"} }
func (m *gateModel) Start() Vector      { return Vector{0, 0} }

func (m *gateModel) Apply(v Vector, mi int, out *Effect) bool {
	msg := m.Messages()[mi]
	switch msg {
	case "inc":
		if v[0] < m.gate {
			*out = Effect{Target: Vector{v[0] + 1, v[1]}}
			return true
		}
		return false
	case "reset":
		*out = Effect{Target: Vector{0, v[1]}, Actions: []string{"->zero"}}
		return true
	case "fin":
		if v[0] == m.max {
			*out = Effect{Finished: true, Actions: []string{"->done"}}
			return true
		}
		return false
	default:
		return false
	}
}

func (m *gateModel) DescribeState(v Vector, t *Text) {
	t.Line(fmt.Sprintf("value %d (gen %d)", v[0], m.describeGen))
}

func (m *gateModel) FingerprintExtra() []string {
	return []string{fmt.Sprintf("gate:%d", m.gate), fmt.Sprintf("describe:%d", m.describeGen)}
}

// mustGenerate is a test helper wrapping Generate.
func mustGenerate(t *testing.T, m Model, opts ...Option) *StateMachine {
	t.Helper()
	machine, err := Generate(context.Background(), m, opts...)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return machine
}

// TestRegenerateGrowsFrontier raises the gate so regeneration must
// re-explore newly reachable states (and discover the finish state) and
// still match from-scratch generation bit for bit.
func TestRegenerateGrowsFrontier(t *testing.T) {
	old := mustGenerate(t, &gateModel{max: 6, gate: 2})
	if old.Finish != nil {
		t.Fatal("finish should be unreachable at gate 2")
	}

	edited := &gateModel{max: 6, gate: 6}
	got, err := Regenerate(context.Background(), old, edited, ModelDelta{Messages: []string{"inc"}})
	if err != nil {
		t.Fatalf("Regenerate: %v", err)
	}
	want := mustGenerate(t, edited)
	if got.Fingerprint() != want.Fingerprint() {
		t.Errorf("regenerated fingerprint %s != from-scratch %s", got.Fingerprint(), want.Fingerprint())
	}
	if got.Finish == nil {
		t.Error("regeneration should have discovered the finish state")
	}
	if got.Stats.ReachableStates != want.Stats.ReachableStates {
		t.Errorf("ReachableStates = %d, want %d", got.Stats.ReachableStates, want.Stats.ReachableStates)
	}
}

// TestRegenerateShrinksFrontier lowers the gate: states that the edit
// disconnects must not be materialised, matching fresh generation.
func TestRegenerateShrinksFrontier(t *testing.T) {
	old := mustGenerate(t, &gateModel{max: 6, gate: 6})
	edited := &gateModel{max: 6, gate: 3}
	got, err := Regenerate(context.Background(), old, edited, ModelDelta{Messages: []string{"inc"}})
	if err != nil {
		t.Fatalf("Regenerate: %v", err)
	}
	want := mustGenerate(t, edited)
	if got.Fingerprint() != want.Fingerprint() {
		t.Errorf("regenerated fingerprint %s != from-scratch %s", got.Fingerprint(), want.Fingerprint())
	}
	if got.Finish != nil {
		t.Error("finish must be unreachable after the gate was lowered")
	}
}

// TestRegenerateRebuildOnly checks the empty non-full delta: no Apply
// behaviour changed, only state documentation, so the machine is rebuilt
// from the retained exploration without re-expansion.
func TestRegenerateRebuildOnly(t *testing.T) {
	old := mustGenerate(t, &gateModel{max: 4, gate: 4})
	edited := &gateModel{max: 4, gate: 4, describeGen: 1}
	got, err := Regenerate(context.Background(), old, edited, ModelDelta{})
	if err != nil {
		t.Fatalf("Regenerate: %v", err)
	}
	want := mustGenerate(t, edited)
	if got.Fingerprint() != want.Fingerprint() {
		t.Errorf("regenerated fingerprint %s != from-scratch %s", got.Fingerprint(), want.Fingerprint())
	}
	if got.Fingerprint() == old.Fingerprint() {
		t.Error("documentation edit should have changed the machine fingerprint")
	}
}

// TestRegenerateChain applies a sequence of gate edits, regenerating each
// step from the previous step's machine.
func TestRegenerateChain(t *testing.T) {
	cur := mustGenerate(t, &gateModel{max: 8, gate: 1})
	for _, gate := range []int{3, 8, 2, 5, 8} {
		edited := &gateModel{max: 8, gate: gate}
		next, err := Regenerate(context.Background(), cur, edited, ModelDelta{Messages: []string{"inc"}})
		if err != nil {
			t.Fatalf("Regenerate gate=%d: %v", gate, err)
		}
		want := mustGenerate(t, edited)
		if next.Fingerprint() != want.Fingerprint() {
			t.Fatalf("gate=%d: regenerated fingerprint %s != from-scratch %s",
				gate, next.Fingerprint(), want.Fingerprint())
		}
		cur = next
	}
}

// TestRegenerateDoesNotMutateOld regenerates twice from one source machine
// and checks the source is untouched.
func TestRegenerateDoesNotMutateOld(t *testing.T) {
	old := mustGenerate(t, &gateModel{max: 6, gate: 3})
	before := old.Fingerprint()
	oldN := old.explored.arena.n
	for _, gate := range []int{6, 1} {
		if _, err := Regenerate(context.Background(), old, &gateModel{max: 6, gate: gate},
			ModelDelta{Messages: []string{"inc"}}); err != nil {
			t.Fatalf("Regenerate: %v", err)
		}
	}
	if old.Fingerprint() != before {
		t.Error("Regenerate mutated the source machine")
	}
	if old.explored.arena.n != oldN {
		t.Errorf("Regenerate grew the source exploration: %d -> %d", oldN, old.explored.arena.n)
	}
}

// TestRegenerateFallbacks drives every transparent-fallback path and
// checks each still produces the from-scratch machine.
func TestRegenerateFallbacks(t *testing.T) {
	edited := &gateModel{max: 5, gate: 5}
	want := mustGenerate(t, edited)

	t.Run("nil old", func(t *testing.T) {
		got, err := Regenerate(context.Background(), nil, edited, ModelDelta{Messages: []string{"inc"}})
		if err != nil {
			t.Fatalf("Regenerate: %v", err)
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Error("fallback machine differs from Generate")
		}
	})
	t.Run("no retained exploration", func(t *testing.T) {
		old, err := GenerateEnumerated(context.Background(), &gateModel{max: 5, gate: 2})
		if err != nil {
			t.Fatalf("GenerateEnumerated: %v", err)
		}
		if old.explored != nil {
			t.Fatal("an enumerated machine should retain no exploration")
		}
		got, err := Regenerate(context.Background(), old, edited, ModelDelta{Messages: []string{"inc"}})
		if err != nil {
			t.Fatalf("Regenerate: %v", err)
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Error("fallback machine differs from Generate")
		}
	})
	t.Run("full delta", func(t *testing.T) {
		old := mustGenerate(t, &gateModel{max: 5, gate: 2})
		got, err := Regenerate(context.Background(), old, edited, ModelDelta{Full: true})
		if err != nil {
			t.Fatalf("Regenerate: %v", err)
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Error("fallback machine differs from Generate")
		}
	})
	// Not a fallback: the retained exploration does not depend on the
	// options, so a machine generated under one set regenerates under
	// another.
	t.Run("option mismatch", func(t *testing.T) {
		old := mustGenerate(t, &gateModel{max: 5, gate: 2})
		got, incremental, err := regenerate(context.Background(), old, edited, ModelDelta{Messages: []string{"inc"}},
			[]Option{WithoutMerging()})
		if err != nil {
			t.Fatalf("regenerate: %v", err)
		}
		if !incremental {
			t.Error("a default machine did not serve as the source of a WithoutMerging regeneration")
		}
		unmerged := mustGenerate(t, edited, WithoutMerging())
		if got.Fingerprint() != unmerged.Fingerprint() {
			t.Error("regenerated machine differs from Generate")
		}
	})
	t.Run("structure mismatch", func(t *testing.T) {
		old := mustGenerate(t, &gateModel{max: 7, gate: 2}) // different domain
		got, err := Regenerate(context.Background(), old, edited, ModelDelta{Messages: []string{"inc"}})
		if err != nil {
			t.Fatalf("Regenerate: %v", err)
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Error("fallback machine differs from Generate")
		}
	})
	t.Run("unknown delta message", func(t *testing.T) {
		old := mustGenerate(t, &gateModel{max: 5, gate: 2})
		got, err := Regenerate(context.Background(), old, edited, ModelDelta{Messages: []string{"nonsense"}})
		if err != nil {
			t.Fatalf("Regenerate: %v", err)
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Error("fallback machine differs from Generate")
		}
	})
}

// TestCacheLinkDeltaRegeneratesIncrementally exercises the cache-level
// wiring of the regeneration link, an old fingerprint and a delta: a miss
// under WithRegenerationFrom patches the cached source machine, observable
// through the Incremental stat, and spends it.
func TestCacheLinkDeltaRegeneratesIncrementally(t *testing.T) {
	cache := NewGenerationCache()
	oldModel := &gateModel{max: 6, gate: 2}
	newModel := &gateModel{max: 6, gate: 6}

	oldMachine, err := cache.MachineFor(context.Background(), oldModel)
	if err != nil {
		t.Fatalf("MachineFor(old): %v", err)
	}
	oldFP := cache.Fingerprint(oldModel)
	from := WithRegenerationFrom(oldFP, ModelDelta{Messages: []string{"inc"}})
	if oldFP == cache.Fingerprint(newModel) {
		t.Fatal("gate must be fingerprint-relevant for this test")
	}
	if cache.Fingerprint(newModel, from) != cache.Fingerprint(newModel) {
		t.Fatal("the regeneration source entered the fingerprint")
	}

	newMachine, err := cache.MachineFor(context.Background(), newModel, from)
	if err != nil {
		t.Fatalf("MachineFor(new): %v", err)
	}
	want := mustGenerate(t, newModel)
	if newMachine.Fingerprint() != want.Fingerprint() {
		t.Error("incrementally regenerated machine differs from Generate")
	}
	stats := cache.Stats()
	if stats.Incremental != 1 {
		t.Errorf("Incremental = %d, want 1", stats.Incremental)
	}
	if stats.Generations != 2 {
		t.Errorf("Generations = %d, want 2", stats.Generations)
	}
	if stats.Entries != 1 {
		t.Errorf("Entries = %d, want 1: the source is spent by the generation that used it", stats.Entries)
	}
	if oldMachine.Fingerprint() == newMachine.Fingerprint() {
		t.Error("old and new machines should differ")
	}

	// A source that is gone degrades to a full generation.
	cache.Purge()
	again, err := cache.MachineFor(context.Background(), newModel, from)
	if err != nil {
		t.Fatalf("MachineFor after purge: %v", err)
	}
	if again.Fingerprint() != want.Fingerprint() {
		t.Error("post-purge machine differs from Generate")
	}
	if got := cache.Stats().Incremental; got != 1 {
		t.Errorf("Incremental = %d after a generation without its source, want 1", got)
	}
}
