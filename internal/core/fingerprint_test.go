package core

import "context"

import "testing"

// fpModel returns a toyModel fingerprint under the given options.
func fpModel(t *testing.T, max int, opts ...Option) Fingerprint {
	t.Helper()
	return FingerprintModel(&toyModel{max: max}, opts...)
}

func TestFingerprintDeterministic(t *testing.T) {
	a := fpModel(t, 3)
	b := fpModel(t, 3)
	if a != b {
		t.Errorf("fingerprints differ across runs: %s vs %s", a, b)
	}
	if a.IsZero() {
		t.Error("fingerprint is zero")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := fpModel(t, 3)
	if other := fpModel(t, 4); other == base {
		t.Error("different parameter produced an equal fingerprint")
	}
	if other := fpModel(t, 3, WithoutMerging()); other == base {
		t.Error("WithoutMerging did not change the fingerprint")
	}
	if other := fpModel(t, 3, WithoutDescriptions()); other == base {
		t.Error("WithoutDescriptions did not change the fingerprint")
	}
}

func TestMachineFingerprintMatchesContent(t *testing.T) {
	gen := func(opts ...Option) *StateMachine {
		m, err := Generate(context.Background(), &toyModel{max: 3}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := gen(), gen()
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical generations fingerprint differently")
	}
	if gen().Fingerprint() == gen(WithoutDescriptions()).Fingerprint() {
		t.Error("machines with and without descriptions fingerprint equally")
	}
	if fpModel(t, 3).String() == "" || len(fpModel(t, 3).Short()) != 12 {
		t.Error("fingerprint renderings malformed")
	}
}
