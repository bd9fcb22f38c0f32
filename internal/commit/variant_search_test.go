package commit

import (
	"context"
	"fmt"
	"os"
	"testing"

	"asagen/internal/core"
)

// variantFromMask decodes a 12-bit mask into a Variant, for exhaustive
// enumeration of the plausible readings of the paper's Fig. 9 pseudo-code.
func variantFromMask(mask int) Variant {
	bit := func(i int) bool { return mask&(1<<i) != 0 }
	return Variant{
		UpdateVotes:      bit(0),
		UpdateUnsetsCC:   bit(1),
		FreeUnsetsCC:     bit(2),
		VoteUnsetsCC:     bit(3),
		FreeGuardVS:      bit(4),
		NotFreeGuardVS:   bit(5),
		FreeGuardHC:      bit(6),
		NotFreeGuardHC:   bit(7),
		VoteSetsHC:       bit(8),
		CastVoteCommits:  bit(9),
		RecordNoops:      bit(10),
		StartCouldChoose: bit(11),
	}
}

const variantBits = 12

// TestVariantSearch brute-forces the space of plausible readings of the
// paper's Fig. 9 pseudo-code (whose printed guards contain reproduction
// errors) and reports the readings whose generated machine family matches
// the published Table 1 state counts. It is a development tool, not a
// regression test: enable with COMMIT_VARIANT_SEARCH=1. The winning reading
// is frozen as DefaultVariant and regression-tested elsewhere.
func TestVariantSearch(t *testing.T) {
	if os.Getenv("COMMIT_VARIANT_SEARCH") == "" {
		t.Skip("set COMMIT_VARIANT_SEARCH=1 to run the exhaustive search")
	}

	hits := 0
	for mask := 0; mask < 1<<variantBits; mask++ {
		v := variantFromMask(mask)
		if evaluateVariant(t, v) {
			hits++
		}
	}
	t.Logf("total matching variants: %d", hits)
}

// evaluateVariant generates machines for r = 4 and, when the r = 4 counts
// match, for the larger Table 1 rows; it logs any exact match.
func evaluateVariant(t *testing.T, v Variant) bool {
	t.Helper()
	stats4 := generateStats(t, 4, v)

	// The published pre-merge count is 48; our ReachableStates includes the
	// synthetic finish state, so accept 48 (paper counted it) or 49 (paper
	// counted encoded states only). Final counts must match exactly.
	okReach := stats4.ReachableStates == 48 || stats4.ReachableStates == 49
	okFinal := stats4.FinalStates == 33
	if !okReach || !okFinal {
		return false
	}
	t.Logf("candidate %+v: r=4 reach=%d final=%d", v, stats4.ReachableStates, stats4.FinalStates)

	want := map[int]int{7: 85, 13: 261, 25: 901}
	for r, wantFinal := range want {
		stats := generateStats(t, r, v)
		if stats.FinalStates != wantFinal {
			t.Logf("  ... rejected at r=%d: final=%d want %d", r, stats.FinalStates, wantFinal)
			return false
		}
	}
	t.Logf("MATCH: %+v", v)
	return true
}

func generateStats(t *testing.T, r int, v Variant) core.Stats {
	t.Helper()
	m, err := NewModel(r, WithVariant(v))
	if err != nil {
		t.Fatalf("NewModel(%d): %v", r, err)
	}
	machine, err := core.Generate(context.Background(), m, core.WithoutDescriptions())
	if err != nil {
		t.Fatalf("Generate(r=%d, %+v): %v", r, v, err)
	}
	return machine.Stats
}

// TestVariantSurvey prints the (reachable, final) landscape over the variant
// space for r = 4, as an aid to narrowing the Fig. 9 reading. Enable with
// COMMIT_VARIANT_SEARCH=1.
func TestVariantSurvey(t *testing.T) {
	if os.Getenv("COMMIT_VARIANT_SEARCH") == "" {
		t.Skip("set COMMIT_VARIANT_SEARCH=1 to run the survey")
	}
	counts := map[string]int{}
	sample := map[string]int{}
	for mask := 0; mask < 1<<variantBits; mask++ {
		s := generateStats(t, 4, variantFromMask(mask))
		key := fmt.Sprintf("reach=%-3d final=%d", s.ReachableStates, s.FinalStates)
		counts[key]++
		sample[key] = mask
	}
	for key, n := range counts {
		t.Logf("%-24s x%-4d e.g. mask %04x", key, n, sample[key])
	}
}
