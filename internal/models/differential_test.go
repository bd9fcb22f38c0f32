package models

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"asagen/internal/core"
)

// diffParams returns the parameter values the differential tests sweep for
// an entry: the registered sweep, capped so the full-enumeration
// reference stays cheap, with the commit family extended to cover r=4..6
// contiguously.
func diffParams(e Entry) []int {
	if e.Vocabulary == VocabularyCommit {
		return []int{4, 5, 6, 7, 13}
	}
	var out []int
	for _, p := range e.SweepParams {
		if p <= 13 {
			out = append(out, p)
		}
	}
	return out
}

// reachableFingerprint renders the portion of a machine reachable from its
// start state as a canonical string: one line per state (in sorted name
// order) listing its outgoing transitions as message->target with actions.
// Two machines are state/transition-isomorphic on their reachable parts iff
// their fingerprints are equal.
func reachableFingerprint(m *core.StateMachine) string {
	reach := map[string]*core.State{}
	queue := []*core.State{m.Start}
	reach[m.Start.Name] = m.Start
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, msg := range s.SortedMessages(m.Messages) {
			t := s.Transition(msg).Target
			if _, ok := reach[t.Name]; !ok {
				reach[t.Name] = t
				queue = append(queue, t)
			}
		}
	}
	names := make([]string, 0, len(reach))
	for name := range reach {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "start=%s\n", m.Start.Name)
	for _, name := range names {
		s := reach[name]
		fmt.Fprintf(&b, "%s final=%v:", name, s.Final)
		for _, msg := range s.SortedMessages(m.Messages) {
			t := s.Transition(msg)
			fmt.Fprintf(&b, " %s->%s[%s]", msg, t.Target.Name, strings.Join(t.Actions, ","))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// fullFingerprint renders the complete machine — state order, merged names,
// annotations, transitions and stats — so two machines compare bit-identical.
func fullFingerprint(m *core.StateMachine) string {
	var b strings.Builder
	fmt.Fprintf(&b, "model=%s param=%d stats=%+v\n", m.ModelName, m.Parameter, m.Stats)
	for _, s := range m.States {
		fmt.Fprintf(&b, "%s final=%v merged=%v ann=%v:", s.Name, s.Final, s.MergedNames, s.Annotations)
		for _, msg := range s.SortedMessages(m.Messages) {
			t := s.Transition(msg)
			fmt.Fprintf(&b, " %s->%s[%s]{%s}", msg, t.Target.Name,
				strings.Join(t.Actions, ","), strings.Join(t.Annotations, ";"))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestFrontierIsomorphicToLegacyPipeline is the generation-equivalence
// differential: for every registered scenario and parameter, the
// reachability-first machine (default path) must be state/transition-
// isomorphic to the reachable portion of the paper's literal
// enumerate-then-prune pipeline, reconstructed here from
// core.GenerateEnumerated's output.
func TestFrontierIsomorphicToLegacyPipeline(t *testing.T) {
	for _, name := range Names() {
		entry, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, param := range diffParams(entry) {
			t.Run(fmt.Sprintf("%s/p=%d", name, param), func(t *testing.T) {
				model, err := entry.Build(param)
				if err != nil {
					t.Fatal(err)
				}
				// Merging is disabled on both sides so the comparison sees
				// the raw explored graphs; merge equivalence is covered by
				// the Table 1 checks.
				frontier, err := core.Generate(context.Background(), model, core.WithoutDescriptions(), core.WithoutMerging())
				if err != nil {
					t.Fatalf("frontier Generate: %v", err)
				}
				legacy, err := core.GenerateEnumerated(context.Background(), model, core.WithoutDescriptions(), core.WithoutMerging())
				if err != nil {
					t.Fatalf("GenerateEnumerated: %v", err)
				}

				if frontier.Stats.InitialStates != legacy.Stats.InitialStates {
					t.Errorf("InitialStates: frontier %d, legacy %d",
						frontier.Stats.InitialStates, legacy.Stats.InitialStates)
				}
				// The frontier machine can never exceed the enumeration
				// (strictly smaller whenever unreachable states exist —
				// termination is fully reachable, the others are not).
				if len(frontier.States) > len(legacy.States) {
					t.Errorf("frontier kept %d states, legacy enumerated %d",
						len(frontier.States), len(legacy.States))
				}

				got := reachableFingerprint(frontier)
				want := reachableFingerprint(legacy)
				if got != want {
					t.Errorf("frontier machine differs from legacy reachable portion:\nfrontier:\n%s\nlegacy:\n%s", got, want)
				}
				// Every frontier state must itself be reachable: its
				// fingerprint covers all its states.
				if lines, states := strings.Count(got, "\n")-1, len(frontier.States); lines != states {
					t.Errorf("frontier machine has %d states but only %d reachable", states, lines)
				}
			})
		}
	}
}

// TestFrontierFullPipelineMatchesTable1 pins the end-to-end frontier
// pipeline (with merging) to the published family sizes for both commit
// readings, and records the invariant sizes of the other scenarios.
func TestFrontierFullPipelineMatchesTable1(t *testing.T) {
	finals := map[int]int{4: 33, 7: 85, 13: 261, 25: 901, 46: 2945}
	for _, name := range []string{"commit", "commit-redundant"} {
		entry, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for r, want := range finals {
			model, err := entry.Build(r)
			if err != nil {
				t.Fatal(err)
			}
			machine, err := core.Generate(context.Background(), model, core.WithoutDescriptions())
			if err != nil {
				t.Fatal(err)
			}
			if machine.Stats.FinalStates != want {
				t.Errorf("%s r=%d: FinalStates = %d, want %d", name, r, machine.Stats.FinalStates, want)
			}
			if machine.Stats.InitialStates != 32*r*r {
				t.Errorf("%s r=%d: InitialStates = %d, want %d", name, r, machine.Stats.InitialStates, 32*r*r)
			}
		}
	}
}
