package models

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"asagen/internal/core"
	"asagen/internal/termination"
)

func TestNamesCoversAllScenarios(t *testing.T) {
	want := []string{"chord", "commit", "commit-redundant", "consensus", "storage", "termination"}
	got := Names()
	if len(got) < len(want) {
		t.Fatalf("Names() = %v, want at least %v", got, want)
	}
	for _, name := range want {
		found := false
		for _, g := range got {
			if g == name {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("Names() = %v, missing %q", got, name)
		}
	}
}

func TestGetUnknownListsKnownNames(t *testing.T) {
	_, err := Get("nonsense")
	if err == nil {
		t.Fatal("Get(nonsense) succeeded")
	}
	if !strings.Contains(err.Error(), "commit") {
		t.Errorf("error %q does not list known names", err)
	}
}

func TestBuildDefaultsAndGenerates(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			entry, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			model, err := entry.Model(0) // 0 selects the default parameter
			if err != nil {
				t.Fatalf("Model(0): %v", err)
			}
			if model.Parameter() != entry.DefaultParam {
				t.Errorf("Parameter() = %d, want default %d", model.Parameter(), entry.DefaultParam)
			}
			machine, err := core.Generate(context.Background(), model, core.WithoutDescriptions())
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			if len(machine.States) == 0 || machine.Start == nil {
				t.Error("generated machine is empty")
			}
			if entry.Abstraction != nil {
				efsm, err := entry.EFSM(context.Background(), entry.DefaultParam)
				if err != nil {
					t.Fatalf("EFSM: %v", err)
				}
				if len(efsm.States) == 0 {
					t.Error("generated EFSM is empty")
				}
			}
		})
	}
}

func TestBuildByName(t *testing.T) {
	model, err := Build("termination", 3)
	if err != nil {
		t.Fatal(err)
	}
	if model.Parameter() != 3 {
		t.Errorf("Parameter() = %d, want 3", model.Parameter())
	}
	if _, err := Build("nonsense", 3); err == nil {
		t.Error("Build(nonsense) succeeded")
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	Register(Entry{Name: "commit", Build: func(int) (core.Model, error) { return nil, nil }})
}

func TestNamesWithVocabulary(t *testing.T) {
	got := NamesWithVocabulary(VocabularyCommit)
	want := []string{"commit", "commit-redundant"}
	if len(got) != len(want) {
		t.Fatalf("NamesWithVocabulary(commit) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NamesWithVocabulary(commit) = %v, want %v", got, want)
		}
	}
	if names := NamesWithVocabulary("nonsense"); len(names) != 0 {
		t.Errorf("NamesWithVocabulary(nonsense) = %v, want empty", names)
	}
}

// TestVariantFingerprintsDiffer guards the generation cache against
// collisions between variant readings: commit and commit-redundant share
// declared structure but differ in transition logic, so their fingerprints
// must differ or the cache would serve one family for the other.
func TestVariantFingerprintsDiffer(t *testing.T) {
	strict, err := Build("commit", 4)
	if err != nil {
		t.Fatal(err)
	}
	redundant, err := Build("commit-redundant", 4)
	if err != nil {
		t.Fatal(err)
	}
	if core.FingerprintModel(strict) == core.FingerprintModel(redundant) {
		t.Error("strict and redundant commit models share a fingerprint")
	}
	if core.FingerprintModel(strict) != core.FingerprintModel(strict) {
		t.Error("fingerprint not deterministic")
	}
}

// TestRegistryConcurrentAccess locks in the registry's thread-safety:
// Register may run (e.g. from a test or a future plugin) while pipeline
// workers resolve names concurrently.
func TestRegistryConcurrentAccess(t *testing.T) {
	// The name is unique per run so `-count=N` re-registrations never
	// collide, and the entry is a real generatable model so
	// registry-iterating tests stay healthy whatever order tests run in.
	name := fmt.Sprintf("concurrent-probe-%d", time.Now().UnixNano())
	done := make(chan struct{})
	go func() {
		defer close(done)
		Register(Entry{
			Name:         name,
			Description:  "registry thread-safety probe",
			ParamName:    "fan-out bound",
			DefaultParam: 1,
			SweepParams:  []int{1, 2},
			Build:        func(k int) (core.Model, error) { return termination.NewModel(k) },
		})
	}()
	for i := 0; i < 100; i++ {
		if _, err := Get("commit"); err != nil {
			t.Fatal(err)
		}
		Names()
		NamesWithVocabulary(VocabularyCommit)
	}
	<-done
	if _, err := Get(name); err != nil {
		t.Errorf("concurrently registered entry not visible: %v", err)
	}
}
