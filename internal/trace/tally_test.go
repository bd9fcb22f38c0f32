package trace

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestTallyAddCountTotal(t *testing.T) {
	var tl Tally
	tl.Add(KindAccepted)
	tl.Add(KindAccepted)
	tl.Add(KindViolation)
	tl.Add(Kind(200)) // outside the vocabulary: ignored
	if got := tl.Count(KindAccepted); got != 2 {
		t.Errorf("Count(accepted) = %d, want 2", got)
	}
	if got := tl.Count(KindViolation); got != 1 {
		t.Errorf("Count(violation) = %d, want 1", got)
	}
	if got := tl.Count(Kind(200)); got != 0 {
		t.Errorf("Count(out of range) = %d, want 0", got)
	}
	if got := tl.Total(); got != 3 {
		t.Errorf("Total = %d, want 3", got)
	}
}

func TestTallyObserve(t *testing.T) {
	var tl Tally
	for _, k := range []Kind{KindAccepted, KindFinished, KindSummary} {
		if !tl.Observe(&Verdict{Kind: k}) {
			t.Fatalf("Observe(%v) stopped the run", k)
		}
	}
	if tl.Count(KindAccepted) != 1 || tl.Count(KindFinished) != 1 || tl.Count(KindSummary) != 1 {
		t.Errorf("observed counts wrong: %s", mustJSON(t, &tl))
	}
}

func TestTallyMerge(t *testing.T) {
	var a, b, combined Tally
	for i := 0; i < 10; i++ {
		k := Kind(i % int(KindSummary+1))
		combined.Add(k)
		if i%2 == 0 {
			a.Add(k)
		} else {
			b.Add(k)
		}
	}
	a.Merge(&b)
	a.Merge(nil) // no-op
	for k := Kind(0); k <= KindSummary; k++ {
		if a.Count(k) != combined.Count(k) {
			t.Errorf("Count(%v): merged %d != combined %d", k, a.Count(k), combined.Count(k))
		}
	}
	if a.Total() != combined.Total() {
		t.Errorf("Total: merged %d != combined %d", a.Total(), combined.Total())
	}
}

// TestTallyCanonicalJSON: every kind is always present, in declaration
// order, so equal tallies are byte-identical — the property fleet reports
// rely on for golden diffing.
func TestTallyCanonicalJSON(t *testing.T) {
	var a, b Tally
	a.Add(KindViolation)
	b.Add(KindViolation)
	aj, bj := mustJSON(t, &a), mustJSON(t, &b)
	if !bytes.Equal(aj, bj) {
		t.Fatalf("equal tallies marshalled differently:\n%s\n%s", aj, bj)
	}
	want := `{"accepted":0,"ignored":0,"skipped":0,"finished":0,"violation":1,"malformed":0,"aborted":0,"summary":0}`
	if string(aj) != want {
		t.Errorf("canonical JSON = %s, want %s", aj, want)
	}
	// The encoding must be valid JSON with all kinds as keys.
	var decoded map[string]int64
	if err := json.Unmarshal(aj, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != int(KindSummary)+1 {
		t.Errorf("decoded %d keys, want %d", len(decoded), int(KindSummary)+1)
	}
}

func mustJSON(t *testing.T, v json.Marshaler) []byte {
	t.Helper()
	data, err := v.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}
