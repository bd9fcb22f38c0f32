package core

import (
	"context"
	"sync"
	"testing"
)

// toy returns the toy family member for a parameter; distinct calls
// return distinct model values with equal fingerprints.
func toy(parameter int) Model { return &toyModel{max: parameter} }

func TestCacheMemoises(t *testing.T) {
	cache := NewGenerationCache(WithoutDescriptions())
	m1, err := cache.MachineFor(context.Background(), toy(3))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := cache.MachineFor(context.Background(), toy(3))
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Error("second request regenerated the machine")
	}
	if got := cache.Stats().Generations; got != 1 {
		t.Errorf("generated %d times, want 1", got)
	}
	if _, err := cache.MachineFor(context.Background(), toy(5)); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 2 {
		t.Errorf("Len = %d, want 2", cache.Len())
	}
}

// TestCacheDrop: dropping a fingerprint forces regeneration on next use
// (e.g. after the model it came from is unregistered).
func TestCacheDrop(t *testing.T) {
	cache := NewGenerationCache()
	if _, err := cache.MachineFor(context.Background(), toy(3)); err != nil {
		t.Fatal(err)
	}
	fp := cache.Fingerprint(toy(3))
	if !cache.Drop(fp) {
		t.Fatal("Drop reported no entry for a generated fingerprint")
	}
	if cache.Drop(fp) {
		t.Error("second Drop reported an entry")
	}
	if _, err := cache.MachineFor(context.Background(), toy(3)); err != nil {
		t.Fatal(err)
	}
	if got := cache.Stats().Generations; got != 2 {
		t.Errorf("generated %d times after a drop, want 2", got)
	}
}

func TestCacheConcurrentFirstUse(t *testing.T) {
	cache := NewGenerationCache()
	const goroutines = 16
	var wg sync.WaitGroup
	machines := make([]*StateMachine, goroutines)
	errs := make([]error, goroutines)
	for i := 0; i < goroutines; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			machines[i], errs[i] = cache.MachineFor(context.Background(), toy(4))
		}()
	}
	wg.Wait()
	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if machines[i] != machines[0] {
			t.Fatal("concurrent first use produced different machines")
		}
	}
	if got := cache.Stats().Generations; got != 1 {
		t.Errorf("generated %d times under concurrency, want 1", got)
	}
}

func TestCacheStatsAndSingleFlight(t *testing.T) {
	cache := NewGenerationCache(WithoutDescriptions())
	if _, err := cache.MachineFor(context.Background(), toy(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.MachineFor(context.Background(), toy(3)); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Generations != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 1 generation, 1 entry", st)
	}
}

// TestCacheMachineForSharesFingerprint: two distinct model values that
// would generate identical machines share one cache entry and one
// generation.
func TestCacheMachineForSharesFingerprint(t *testing.T) {
	cache := NewGenerationCache(WithoutDescriptions())
	m1, err := cache.MachineFor(context.Background(), &toyModel{max: 3})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := cache.MachineFor(context.Background(), &toyModel{max: 3})
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Error("equal-fingerprint models generated twice")
	}
	if st := cache.Stats(); st.Generations != 1 {
		t.Errorf("generations = %d, want 1", st.Generations)
	}
}

func TestCacheLimitEvictsLRU(t *testing.T) {
	cache := NewGenerationCache(WithoutDescriptions())
	cache.SetLimit(2)
	for _, p := range []int{1, 2, 3} {
		if _, err := cache.MachineFor(context.Background(), toy(p)); err != nil {
			t.Fatal(err)
		}
	}
	st := cache.Stats()
	if st.Entries != 2 {
		t.Errorf("entries = %d, want 2 under limit", st.Entries)
	}
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	// Parameter 1 was least recently used and must regenerate; the cached
	// parameters must not.
	gens := st.Generations
	if _, err := cache.MachineFor(context.Background(), toy(3)); err != nil {
		t.Fatal(err)
	}
	if got := cache.Stats().Generations; got != gens {
		t.Error("cached parameter regenerated")
	}
	if _, err := cache.MachineFor(context.Background(), toy(1)); err != nil {
		t.Fatal(err)
	}
	if got := cache.Stats().Generations; got != gens+1 {
		t.Errorf("evicted parameter did not regenerate (generations %d -> %d)", gens, got)
	}
}

func TestCachePurge(t *testing.T) {
	cache := NewGenerationCache()
	for _, p := range []int{2, 3} {
		if _, err := cache.MachineFor(context.Background(), toy(p)); err != nil {
			t.Fatal(err)
		}
	}
	if n := cache.Purge(); n != 2 {
		t.Errorf("Purge removed %d entries, want 2", n)
	}
	if cache.Len() != 0 {
		t.Errorf("Len = %d after purge", cache.Len())
	}
	gens := cache.Stats().Generations
	if _, err := cache.MachineFor(context.Background(), toy(2)); err != nil {
		t.Fatal(err)
	}
	if got := cache.Stats().Generations; got != gens+1 {
		t.Error("purged parameter did not regenerate")
	}
}
