package core_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"asagen/internal/core"
	"asagen/internal/models"
)

// TestRefineAgreesWithMoore: step 4's worklist refinement places the
// explored states in the same classes as Moore's refinement, on every
// sweep member (explored as Generate and as GenerateEnumerated do), on the
// merge twin models and on termination's long chain.
func TestRefineAgreesWithMoore(t *testing.T) {
	members := 0
	for _, name := range models.Names() {
		entry, err := models.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, param := range entry.SweepParams {
			members++
			model, err := entry.Build(param)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("%s/r=%d", name, param), func(t *testing.T) {
				if err := core.RefinementsAgree(model, false); err != nil {
					t.Errorf("Generate's exploration: %v", err)
				}
				if err := core.RefinementsAgree(model, true); err != nil {
					t.Errorf("GenerateEnumerated's exploration: %v", err)
				}
			})
		}
	}
	if members != 26 {
		t.Errorf("the sweep has %d members, want 26", members)
	}
	for _, model := range core.TwinModels {
		if err := core.RefinementsAgree(model, false); err != nil {
			t.Errorf("%s: %v", model.Name(), err)
		}
	}
	if err := core.RefinementsAgree(termination(t, 500), false); err != nil {
		t.Errorf("termination/r=500: %v", err)
	}
}

// TestMergeIsLinearOnChains: on termination's chain of 16 003 states, step
// 4 computes a few signatures per state, where a Moore refinement that
// re-signs every state in each of its thousands of rounds computes tens of
// millions; and it costs about what the rest of the generation costs,
// where that Moore refinement takes two orders of magnitude longer.
func TestMergeIsLinearOnChains(t *testing.T) {
	model := termination(t, 8000)
	signed, states, err := core.RefineSignatures(model)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d signatures for %d states", signed, states)
	if signed > 8*states {
		t.Errorf("the refinement computes %d signatures for %d states, want at most 8 per state", signed, states)
	}

	best := func(opts ...core.Option) time.Duration {
		var fastest time.Duration
		for i := 0; i < 3; i++ {
			start := time.Now()
			machine, err := core.Generate(context.Background(), model, opts...)
			elapsed := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			if got := machine.Stats.ReachableStates; got != 16003 {
				t.Fatalf("ReachableStates = %d, want 16003", got)
			}
			if i == 0 || elapsed < fastest {
				fastest = elapsed
			}
		}
		return fastest
	}
	merged := best(core.WithoutDescriptions())
	unmerged := best(core.WithoutDescriptions(), core.WithoutMerging())
	ratio := float64(merged) / float64(unmerged)
	t.Logf("merging %v, without merging %v: ratio %.2f", merged, unmerged, ratio)
	if ratio > 4 {
		t.Errorf("generation with merging takes %.1f× as long as without (%v against %v), want at most 4×", ratio, merged, unmerged)
	}
}

func termination(t *testing.T, r int) core.Model {
	t.Helper()
	entry, err := models.Get("termination")
	if err != nil {
		t.Fatal(err)
	}
	model, err := entry.Build(r)
	if err != nil {
		t.Fatal(err)
	}
	return model
}
