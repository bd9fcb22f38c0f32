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
// string per edge.
//
// Chord s = 64 sets the margin. Its 132 final states allow 396
// allocations; a generation makes 389, and assemble makes 312 of them,
// 262 being the states' Transitions maps (two each). The remaining
// margin of about 7 allocations is held by these mechanisms, each given
// with the allocations per final state without it:
//   - stringArena's chunks (a string per copy): 4.39;
//   - listTable's shared blocks (a slice per list): 3.48;
//   - newRefinement's presized worklists: 3.06;
//   - interner's map presized for 64 strings: 3.05;
//   - stringArena's 512-byte first chunk: 3.01;
//   - assemble's presized name buffer: 3.00.
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
		// A patched machine shares its source's lists through the
		// cloned list table, so appends are checked across the two.
		patched, err := core.Regenerate(context.Background(), machine, m,
			core.ModelDelta{Messages: machine.Messages[:1]})
		if err != nil {
			t.Fatal(err)
		}
		appendsStayPut(t, machine, patched)
	}
}

// appendsStayPut checks the hazard of sharing: transitions alias one
// interned copy of each list, within a machine and across a machine and
// the machines patched from it, and states cut their annotations from one
// slice, so appending to one transition's actions or to one state's
// annotations must leave every other transition and state as it was. It
// appends an entry of its own to every list of every machine, so that any
// two lists sharing spare capacity overwrite each other's entry.
func appendsStayPut(t *testing.T, machines ...*core.StateMachine) {
	t.Helper()
	var lists []*[]string
	for _, machine := range machines {
		for _, st := range machine.States {
			lists = append(lists, &st.Annotations)
			for _, msg := range st.SortedMessages(machine.Messages) {
				tr := st.Transitions[msg]
				lists = append(lists, &tr.Actions, &tr.Annotations)
			}
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
				machines[0].ModelName, i, *l, want[i])
		}
	}
}
