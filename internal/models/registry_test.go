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

// TestFingerprintsArePinned holds the fingerprint of every registry model
// at its default parameter under each option set a cache can be built
// with. Fingerprints key the on-disk store, the cluster routes and the
// X-Machine-Fingerprint header, so a change to what FingerprintModel
// hashes — however well meant — orphans every warm store: the values below
// were recorded before core.Generate lost its pruning, single-pass and
// worker options, and did not move.
func TestFingerprintsArePinned(t *testing.T) {
	pins := []struct{ name, def, withoutMerging, withoutDescriptions string }{
		{"chord",
			"196b991a5805b3cc986083ec5b7b4981a80cd1a42542ab3b29f3612d697fdf45",
			"1f4946e3dfdc1113adf9b44650021404dcf400e755787a402d5d01974e2c6f98",
			"c9044b293d111d9955ff0f4b7caf2d4d3d5fa7dda0f2375ff48b3e4e708dcc4d"},
		{"commit",
			"b5cce5fd17c0bcbb44d9e62b60b2e2da34a89e370a93456a5a579e7656502825",
			"d0697e4c0c0b72a93cbbaf741d81b8fc4778e58b10facb7f01694394acc6ed15",
			"b066191c4221ea0ee5d9aa82c0f33a60b96bdf70a23d84ba85a2ba6941b8f42e"},
		{"commit-redundant",
			"e6281e226f714c244280f790b9ede4935e1da8149c3866c0a57c561e5f5b50ca",
			"8e8ca6f220ef225f3e162b2c4ba6abca7adf8bb7c5402ee0241cda4a6cdf17ba",
			"6fb8e7224f2245b83f3598ae5c8be094ff0284d57923ed8186f265c6478e0e0c"},
		{"consensus",
			"a3aca23fc6fd480e89fa9812483d1fddc73e35a017ea4ecab58a9c732b234c20",
			"410bc376fc1f93990e33247bdabf8116c21c22381541df9775462a98b2c93162",
			"7aa4202de41aa8383c4cd6dcee9f98ff3300684f745e49d4092bd3afd06dc7aa"},
		{"storage",
			"7b714fc96008ec282e2d903063d6838258cf7fbd5cfc84566024b64feff10774",
			"9917b9ca426d0cc832026efbe67c9734e3032d30661cfccbb37adc9fabab2462",
			"30ed9ae74252985ef3ef3937a8db895a01390be9053eacdc059bcd6ca51a5c08"},
		{"termination",
			"db5935949bc47be2b3712845ede0af5c292bdb3357d432bce244db4f48c76f44",
			"47bea2309a409226421f19026435c18d834dda191727c9f0429adb751172a774",
			"2d19731b22dce51d5d30a950b5a21240a98f27f61d3efac4f42d8cd8ed2cc68c"},
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
		NamesWithVocabulary(VocabularyCommit)
	}
	<-done
	if _, err := Get(name); err != nil {
		t.Errorf("concurrently registered entry not visible: %v", err)
	}
}
