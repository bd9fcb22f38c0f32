package core_test

import (
	"context"
	"slices"
	"strconv"
	"testing"

	"asagen/internal/core"
	"asagen/internal/models"
)

// TestGenerationAllocatesPerMember: a generation allocates per member and
// per state, not per edge. Each distinct action list, annotation list,
// composed annotation and description line is copied once, into shared
// blocks, so the largest Table 1 member and two spec family members stay
// under a ceiling per final state that fresh copies per explored edge
// exceed: 16.4 allocations per state at commit r = 46, 10.6 at consensus
// n = 25, and 5.67 at chord s = 64, whose composed annotations were a
// string per edge. What is left is about two per state, for the state's
// Transitions map.
func TestGenerationAllocatesPerMember(t *testing.T) {
	const ceiling = 3 // allocations per final state
	for _, tc := range []struct {
		model string
		param int
	}{
		{"commit", 46},
		{"consensus", 25},
		{"chord", 64},
	} {
		m, err := models.Build(tc.model, tc.param)
		if err != nil {
			t.Fatal(err)
		}
		var machine *core.StateMachine
		allocs := testing.AllocsPerRun(3, func() {
			if machine, err = core.Generate(context.Background(), m); err != nil {
				t.Fatal(err)
			}
		})
		perState := allocs / float64(machine.Stats.FinalStates)
		t.Logf("%s r=%d: %.0f allocations, %.2f per final state", tc.model, tc.param, allocs, perState)
		if perState > ceiling {
			t.Errorf("%s r=%d: %.2f allocations per final state, want at most %v",
				tc.model, tc.param, perState, ceiling)
		}
		appendsStayPut(t, machine)
	}
}

// appendsStayPut checks the hazard of sharing: transitions alias one
// interned copy of each list, and states cut their annotations from one
// block, so appending to one transition's actions or to one state's
// annotations must leave every other transition and state as it was. It
// appends an entry of its own to every list, so that any two lists
// sharing spare capacity overwrite each other's entry.
func appendsStayPut(t *testing.T, machine *core.StateMachine) {
	t.Helper()
	var lists []*[]string
	for _, st := range machine.States {
		lists = append(lists, &st.Annotations)
	}
	for _, st := range machine.States {
		for _, msg := range st.SortedMessages(machine.Messages) {
			lists = append(lists, &st.Transitions[msg].Actions)
		}
	}
	want := make([][]string, len(lists))
	for i, l := range lists {
		want[i] = append(slices.Clone(*l), strconv.Itoa(i))
	}
	for i, l := range lists {
		*l = append(*l, strconv.Itoa(i))
	}
	for i, l := range lists {
		if !slices.Equal(*l, want[i]) {
			t.Fatalf("%s: list %d reads %q after every list was appended to, want %q",
				machine.ModelName, i, *l, want[i])
		}
	}
}
