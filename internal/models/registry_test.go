package models

import (
	"context"
	"fmt"
	"slices"
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

// TestNamesWithVocabulary: the entries tagged with the commit vocabulary
// are exactly the two commit families, the subset the version service
// can execute.
func TestNamesWithVocabulary(t *testing.T) {
	var got []string
	for _, name := range Names() {
		e, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if e.Vocabulary == VocabularyCommit {
			got = append(got, name)
		}
	}
	if want := []string{"commit", "commit-redundant"}; !slices.Equal(got, want) {
		t.Fatalf("commit-vocabulary entries = %v, want %v", got, want)
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

// TestFingerprintsArePinned holds the fingerprint of every registry model
// at its default parameter under each option set a cache can be built
// with. Fingerprints key the on-disk store, the cluster routes and the
// X-Machine-Fingerprint header, so a change to what FingerprintModel
// hashes — however well meant — orphans every warm store: the values below
// were recorded before core.Generate lost its pruning, single-pass and
// worker options, and did not move. The consensus, chord, storage and
// termination pins moved once, when those families became spec documents:
// a spec model's fingerprint covers its canonical document, which an
// adapter's did not. Their artefacts and ETags did not move.
func TestFingerprintsArePinned(t *testing.T) {
	pins := []struct{ name, def, withoutMerging, withoutDescriptions string }{
		{"chord",
			"06388a11b8c2dbcf31655238f5673dd391a582a5d5d770155e7ff64b1afb2fef",
			"f7d27b2f8cf594aec7ffb0c08a0ed6903cb26499eb0a0f21cd25617515f6bb4c",
			"86369efca80212fa9553de2bdb9066d6625dcdefddfa8e83c840f5ebfcefc992"},
		{"commit",
			"b5cce5fd17c0bcbb44d9e62b60b2e2da34a89e370a93456a5a579e7656502825",
			"d0697e4c0c0b72a93cbbaf741d81b8fc4778e58b10facb7f01694394acc6ed15",
			"b066191c4221ea0ee5d9aa82c0f33a60b96bdf70a23d84ba85a2ba6941b8f42e"},
		{"commit-redundant",
			"e6281e226f714c244280f790b9ede4935e1da8149c3866c0a57c561e5f5b50ca",
			"8e8ca6f220ef225f3e162b2c4ba6abca7adf8bb7c5402ee0241cda4a6cdf17ba",
			"6fb8e7224f2245b83f3598ae5c8be094ff0284d57923ed8186f265c6478e0e0c"},
		{"consensus",
			"ce05d42fcac48fc4d3541c877ed2345d26e6c9c1b36de4f0d98f03711810fbed",
			"86ff0f0892f62e4ee359e96b935a99a6994ac0275cbdf214be1bd2ca436b4c5f",
			"80e6996d26715688479f075154b79168dce15e59189bf5580cedb79c33980097"},
		{"storage",
			"bfd68a81069404f049cf7a7d4f64c3e510b1d3c0a68a63b66c9bdd27e8cc8154",
			"48002e27ee6057363bbdffbbee3f1061cf277b7de5e56f682d4f29faf32a16a6",
			"788fefeb9c874758a6fa47a15551a1d6225b980b3a42afa9052371011fc4eefe"},
		{"termination",
			"3049512044d5f534746b2926cd6de0cce44065365baaac8c7bd65b042abaee43",
			"17a1c8ce23f965bcbdb70dad282d5f9a530b2906de510fdcdbc8559c13609b91",
			"f580c4013f1d8c23a95ac393949b75ea5f677dec64ad1820e7f5ad3cfe58ab96"},
	}
	if len(pins) != len(Names()) {
		t.Errorf("%d models pinned, %d registered", len(pins), len(Names()))
	}
	for _, pin := range pins {
		m, err := Build(pin.name, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			set  string
			opts []core.Option
			want string
		}{
			{"default", nil, pin.def},
			{"WithoutMerging", []core.Option{core.WithoutMerging()}, pin.withoutMerging},
			{"WithoutDescriptions", []core.Option{core.WithoutDescriptions()}, pin.withoutDescriptions},
		} {
			if got := core.FingerprintModel(m, c.opts...).String(); got != c.want {
				t.Errorf("%s %s: fingerprint %s, pinned %s", pin.name, c.set, got, c.want)
			}
		}
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
	}
	<-done
	if _, err := Get(name); err != nil {
		t.Errorf("concurrently registered entry not visible: %v", err)
	}
}
