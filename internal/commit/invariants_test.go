package commit

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"asagen/internal/core"
)

// vectorOf decodes a state name back into component values for invariant
// checks.
func vectorOf(t *testing.T, name string) (u, v, vs, c, cs, cc, hc int) {
	t.Helper()
	parts := strings.Split(name, "/")
	if len(parts) != 7 {
		t.Fatalf("unexpected state name %q", name)
	}
	b := func(s string) int {
		if s == "T" {
			return 1
		}
		return 0
	}
	n := func(s string) int {
		val := 0
		for _, r := range s {
			val = val*10 + int(r-'0')
		}
		return val
	}
	return b(parts[0]), n(parts[1]), b(parts[2]), n(parts[3]), b(parts[4]), b(parts[5]), b(parts[6])
}

// TestReachableStateInvariants checks protocol invariants over every
// reachable state of the generated family members:
//
//	I1: has_chosen implies vote_sent (choosing always casts the vote)
//	I2: vote_sent implies !could_choose (strict reading surrenders the slot)
//	I3: commit_sent iff votes sent+received >= 2f+1 (commit follows quorum)
//	I4: commits_received <= f (the f+1-th commit finishes the machine;
//	    the paper's pruning observation)
//	I5: vote_sent below quorum implies has_chosen and update_received
//	    (only voluntary votes happen below the threshold)
func TestReachableStateInvariants(t *testing.T) {
	for _, r := range []int{4, 7, 13} {
		f := (r - 1) / 3
		threshold := 2*f + 1
		machine := mustGenerate(t, r, core.WithoutDescriptions())
		for _, s := range machine.States {
			if s.Final {
				continue
			}
			u, v, vs, c, cs, cc, hc := vectorOf(t, s.Name)
			total := v + vs
			if hc == 1 && vs != 1 {
				t.Errorf("r=%d %s: I1 violated (chosen without voting)", r, s.Name)
			}
			if vs == 1 && cc != 0 {
				t.Errorf("r=%d %s: I2 violated (voted but still free)", r, s.Name)
			}
			if (cs == 1) != (total >= threshold) {
				t.Errorf("r=%d %s: I3 violated (commit_sent=%d, total votes %d, threshold %d)",
					r, s.Name, cs, total, threshold)
			}
			if c > f {
				t.Errorf("r=%d %s: I4 violated (commits %d > f %d)", r, s.Name, c, f)
			}
			if vs == 1 && total < threshold && (hc != 1 || u != 1) {
				t.Errorf("r=%d %s: I5 violated", r, s.Name)
			}
		}
	}
}

// TestApplyDoesNotMutateInput: Apply must be side-effect free on its input
// vector (the generator reuses vectors across message probes).
func TestApplyDoesNotMutateInput(t *testing.T) {
	m, err := NewModel(7)
	if err != nil {
		t.Fatal(err)
	}
	comps := m.Components()
	prop := func(raw uint32, msgIdx uint8) bool {
		size := 1
		for _, c := range comps {
			size *= c.Cardinality()
		}
		idx := int(raw) % size
		v := make(core.Vector, len(comps))
		rem := idx
		for i := len(comps) - 1; i >= 0; i-- {
			card := comps[i].Cardinality()
			v[i] = rem % card
			rem /= card
		}
		before := v.Clone()
		msg := m.Messages()[int(msgIdx)%len(m.Messages())]
		core.Apply(m, v, msg)
		return v.Equal(before)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestApplyDeterministic: identical inputs produce identical effects.
func TestApplyDeterministic(t *testing.T) {
	m, err := NewModel(4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		v := core.Vector{
			rng.Intn(2), rng.Intn(4), rng.Intn(2), rng.Intn(4),
			rng.Intn(2), rng.Intn(2), rng.Intn(2),
		}
		msg := m.Messages()[rng.Intn(5)]
		e1, ok1 := core.Apply(m, v, msg)
		e2, ok2 := core.Apply(m, v, msg)
		if ok1 != ok2 {
			t.Fatalf("applicability nondeterministic for %v %s", v, msg)
		}
		if !ok1 {
			continue
		}
		if e1.Finished != e2.Finished || !equalStrings(e1.Actions, e2.Actions) {
			t.Fatalf("effect nondeterministic for %v %s", v, msg)
		}
		if !e1.Finished && !e1.Target.Equal(e2.Target) {
			t.Fatalf("target nondeterministic for %v %s", v, msg)
		}
	}
}

// TestMergePreservesTraces: the merged machine must be trace-equivalent to
// the unmerged one — identical action sequences and completion for any
// message schedule. Uses the redundant reading, where merging actually
// collapses states.
func TestMergePreservesTraces(t *testing.T) {
	model, err := NewModel(7, WithVariant(RedundantVariant()))
	if err != nil {
		t.Fatal(err)
	}
	merged, err := core.Generate(context.Background(), model, core.WithoutDescriptions())
	if err != nil {
		t.Fatal(err)
	}
	unmerged, err := core.Generate(context.Background(), model, core.WithoutDescriptions(), core.WithoutMerging())
	if err != nil {
		t.Fatal(err)
	}
	if merged.Stats.FinalStates >= unmerged.Stats.FinalStates {
		t.Fatalf("merging removed nothing: %d vs %d",
			merged.Stats.FinalStates, unmerged.Stats.FinalStates)
	}

	msgs := merged.Messages
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := merged.Start
		b := unmerged.Start
		for step := 0; step < 300; step++ {
			msg := msgs[rng.Intn(len(msgs))]
			ta, tb := a.Transition(msg), b.Transition(msg)
			if (ta == nil) != (tb == nil) {
				t.Fatalf("seed=%d step=%d %s: applicability diverges (%s vs %s)",
					seed, step, msg, a.Name, b.Name)
			}
			if ta == nil {
				continue
			}
			if !equalStrings(ta.Actions, tb.Actions) {
				t.Fatalf("seed=%d step=%d %s: actions diverge: %v vs %v",
					seed, step, msg, ta.Actions, tb.Actions)
			}
			if ta.Target.Final != tb.Target.Final {
				t.Fatalf("seed=%d step=%d %s: finality diverges", seed, step, msg)
			}
			a, b = ta.Target, tb.Target
			if a.Final {
				break
			}
		}
	}
}

// TestMergeIdempotent: generating twice (the second time the machine is
// already minimal) yields identical state sets.
func TestMergeIdempotent(t *testing.T) {
	m1 := mustGenerate(t, 7, core.WithoutDescriptions())
	m2 := mustGenerate(t, 7, core.WithoutDescriptions())
	n1, n2 := m1.StateNames(), m2.StateNames()
	if len(n1) != len(n2) {
		t.Fatalf("state counts differ: %d vs %d", len(n1), len(n2))
	}
	for i := range n1 {
		if n1[i] != n2[i] {
			t.Errorf("state order differs at %d: %s vs %s", i, n1[i], n2[i])
		}
	}
}

// TestMergedNamesCoverReachable: after merging under the redundant
// reading, the union of merged names equals the reachable encoded states.
func TestMergedNamesCoverReachable(t *testing.T) {
	model, err := NewModel(4, WithVariant(RedundantVariant()))
	if err != nil {
		t.Fatal(err)
	}
	machine, err := core.Generate(context.Background(), model, core.WithoutDescriptions())
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	seen := map[string]bool{}
	for _, s := range machine.States {
		for _, n := range s.MergedNames {
			if seen[n] {
				t.Errorf("name %s appears in two merged states", n)
			}
			seen[n] = true
			total++
		}
	}
	if total != machine.Stats.ReachableStates {
		t.Errorf("merged names cover %d states, reachable %d", total, machine.Stats.ReachableStates)
	}
}

// TestStartStateIsCanonical: the machine's start state is the all-zero
// vector under the default variant.
func TestStartStateIsCanonical(t *testing.T) {
	machine := mustGenerate(t, 4, core.WithoutDescriptions())
	if machine.Start.Name != "F/0/F/0/F/F/F" {
		t.Errorf("start state = %s", machine.Start.Name)
	}
}

// TestModelAccessors covers the threshold arithmetic per Table 1 row.
func TestModelAccessors(t *testing.T) {
	tests := []struct {
		r, f, voteThreshold, commitThreshold int
	}{
		{4, 1, 3, 2}, {7, 2, 5, 3}, {13, 4, 9, 5}, {25, 8, 17, 9}, {46, 15, 31, 16},
	}
	for _, tt := range tests {
		m, err := NewModel(tt.r)
		if err != nil {
			t.Fatal(err)
		}
		if m.FaultTolerance() != tt.f {
			t.Errorf("r=%d: f = %d, want %d", tt.r, m.FaultTolerance(), tt.f)
		}
		if m.VoteThreshold() != tt.voteThreshold {
			t.Errorf("r=%d: vote threshold = %d, want %d", tt.r, m.VoteThreshold(), tt.voteThreshold)
		}
		if m.CommitThreshold() != tt.commitThreshold {
			t.Errorf("r=%d: commit threshold = %d, want %d", tt.r, m.CommitThreshold(), tt.commitThreshold)
		}
		if m.ReplicationFactor() != tt.r {
			t.Errorf("ReplicationFactor = %d", m.ReplicationFactor())
		}
	}
	if _, err := NewModel(3); err == nil {
		t.Error("r=3 accepted")
	}
}

// TestDescribeStateMentionsThresholds spot-checks the generated Fig. 14
// commentary.
func TestDescribeStateMentionsThresholds(t *testing.T) {
	m, err := NewModel(4)
	if err != nil {
		t.Fatal(err)
	}
	// The Fig. 14 example state T/2/F/0/F/F/F.
	lines := core.Describe(m, core.Vector{1, 2, 0, 0, 0, 0, 0})
	joined := strings.Join(lines, "\n")
	for _, want := range []string{
		"Have received initial update from client.",
		"Have not voted since another update has already been voted for.",
		"Have received 2 votes and no commits.",
		"vote threshold (3)",
		"external commit threshold (2)",
		"Waiting for 1 further vote (including local vote if any) before sending commit.",
		"Waiting for 2 further external commits to finish.",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("description missing %q:\n%s", want, joined)
		}
	}
}
