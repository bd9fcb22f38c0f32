package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// slowModel is a linear chain of states whose Apply sleeps, so a
// generation is reliably in flight when a test cancels it. Its
// fingerprint depends only on the declared structure, so a slow and a
// fast instance with equal sizes share a cache entry.
type slowModel struct {
	states int
	delay  time.Duration
	// finish, when set, is called by the finishing transition.
	finish func()
}

func (m *slowModel) Name() string   { return "slow" }
func (m *slowModel) Parameter() int { return m.states }
func (m *slowModel) Components() []StateComponent {
	return []StateComponent{NewIntComponent("i", m.states)}
}
func (m *slowModel) Messages() []string { return []string{"next"} }
func (m *slowModel) Start() Vector      { return Vector{0} }

func (m *slowModel) Apply(v Vector, mi int, out *Effect) bool {
	msg := m.Messages()[mi]
	if msg != "next" {
		return false
	}
	if m.delay > 0 {
		time.Sleep(m.delay)
	}
	if v[0] == m.states {
		if m.finish != nil {
			m.finish()
		}
		*out = Effect{Finished: true}
		return true
	}
	*out = Effect{Target: Vector{v[0] + 1}}
	return true
}

func (m *slowModel) DescribeState(Vector, *Text) {}

// TestGenerateCancellation: cancelling the context mid-exploration makes
// both entry points return ctx.Err() promptly instead of finishing.
func TestGenerateCancellation(t *testing.T) {
	for name, generate := range map[string]func(context.Context, Model, ...Option) (*StateMachine, error){
		"serial": Generate, "enumerated": GenerateEnumerated,
	} {
		t.Run(name, func(t *testing.T) {
			// Full generation would take ~5s; the cancel arrives after ~10ms.
			m := &slowModel{states: 50000, delay: 100 * time.Microsecond}
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(10 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			// WithoutMerging keeps the test about the exploration: the
			// cancel arrives long before it ends.
			_, err := generate(ctx, m, WithoutDescriptions(), WithoutMerging())
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("error = %v, want context.Canceled", err)
			}
			if elapsed := time.Since(start); elapsed > 3*time.Second {
				t.Errorf("cancelled Generate took %v, want prompt abort", elapsed)
			}
		})
	}
}

// TestGenerateCancelledAfterExploration: a cancel that arrives once the
// exploration is over still aborts the generation. The chain's finishing
// transition, the last Apply the exploration makes, cancels the context;
// merging and building the 8 001-state machine must notice, for every
// entry point, and the cache must count a cancellation.
func TestGenerateCancelledAfterExploration(t *testing.T) {
	const states = 8000
	cancelling := func() (context.Context, *slowModel) {
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		return ctx, &slowModel{states: states, finish: cancel}
	}
	for name, generate := range map[string]func(context.Context, Model, ...Option) (*StateMachine, error){
		"serial": Generate, "enumerated": GenerateEnumerated,
	} {
		t.Run(name, func(t *testing.T) {
			ctx, m := cancelling()
			if _, err := generate(ctx, m); !errors.Is(err, context.Canceled) {
				t.Fatalf("error = %v, want context.Canceled", err)
			}
		})
	}
	t.Run("incremental", func(t *testing.T) {
		old, err := Generate(context.Background(), &slowModel{states: states})
		if err != nil {
			t.Fatal(err)
		}
		delta := ModelDelta{Messages: []string{"next"}}
		// Uncancelled, the same edit takes the incremental path.
		if _, incremental, err := regenerate(context.Background(), old, &slowModel{states: states}, delta, nil); err != nil || !incremental {
			t.Fatalf("regenerate = incremental %v, error %v; want the incremental path", incremental, err)
		}
		ctx, m := cancelling()
		if _, err := Regenerate(ctx, old, m, delta); !errors.Is(err, context.Canceled) {
			t.Fatalf("error = %v, want context.Canceled", err)
		}
	})
	t.Run("cache", func(t *testing.T) {
		cache := NewGenerationCache()
		ctx, m := cancelling()
		if _, err := cache.MachineFor(ctx, m); !errors.Is(err, context.Canceled) {
			t.Fatalf("error = %v, want context.Canceled", err)
		}
		if st := cache.Stats(); st.Cancellations != 1 || st.Generations != 0 || cache.Len() != 0 {
			t.Errorf("stats = %+v with %d entries, want 1 cancellation, no generation and no entry", st, cache.Len())
		}
	})
}

// TestGenerateDeadline: an expired deadline surfaces as
// context.DeadlineExceeded.
func TestGenerateDeadline(t *testing.T) {
	m := &slowModel{states: 50000, delay: 100 * time.Microsecond}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := Generate(ctx, m, WithoutDescriptions(), WithoutMerging()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Generate error = %v, want context.DeadlineExceeded", err)
	}
}

// TestGenerateNilContext: a nil context is treated as background.
func TestGenerateNilContext(t *testing.T) {
	machine, err := Generate(nil, &toyModel{max: 3}, WithoutDescriptions())
	if err != nil {
		t.Fatalf("Generate(nil ctx): %v", err)
	}
	if len(machine.States) == 0 {
		t.Error("empty machine")
	}
}

// TestCacheCancellationLeavesNoPoisonedEntry is the cancellation
// acceptance test: a large generation cancelled mid-flight returns
// ctx.Err() promptly, waiters that share the cancelled context get their
// own context's error, the cache retains no entry for the fingerprint, and
// the next request regenerates successfully.
func TestCacheCancellationLeavesNoPoisonedEntry(t *testing.T) {
	cache := NewGenerationCache(WithoutDescriptions(), WithoutMerging())
	slow := &slowModel{states: 50000, delay: 100 * time.Microsecond}

	ctx, cancel := context.WithCancel(context.Background())
	const waiters = 4
	errs := make([]error, waiters+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the owner: starts the generation under the cancellable ctx
		defer wg.Done()
		_, errs[0] = cache.MachineFor(ctx, slow)
	}()

	// Wait until the generation is in flight before attaching waiters.
	waitFor(t, func() bool { return cache.Stats().Misses >= 1 })
	for i := 1; i <= waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = cache.MachineFor(ctx, slow)
		}(i)
	}
	waitFor(t, func() bool { return cache.Stats().Hits >= waiters })

	start := time.Now()
	cancel()
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("cancelled generation settled after %v, want prompt abort", elapsed)
	}
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("request %d error = %v, want context.Canceled", i, err)
		}
	}

	st := cache.Stats()
	if st.Cancellations != 1 {
		t.Errorf("cancellations = %d, want 1", st.Cancellations)
	}
	if st.Generations != 0 {
		t.Errorf("generations = %d, want 0 (the aborted run must not count)", st.Generations)
	}
	if cache.Len() != 0 {
		t.Fatalf("cache kept %d entries after a cancelled generation (poisoned entry)", cache.Len())
	}

	// The same fingerprint regenerates cleanly on the next request (the
	// fast twin shares the slow model's fingerprint).
	fast := &slowModel{states: 50000}
	if cache.Fingerprint(fast) != cache.Fingerprint(slow) {
		t.Fatal("fast and slow models should share a fingerprint")
	}
	machine, err := cache.MachineFor(context.Background(), fast)
	if err != nil {
		t.Fatalf("regeneration after cancellation: %v", err)
	}
	if machine == nil || len(machine.States) == 0 {
		t.Fatal("regeneration produced no machine")
	}
	if st := cache.Stats(); st.Generations != 1 {
		t.Errorf("generations after regeneration = %d, want 1", st.Generations)
	}
}

// TestCacheLiveWaitersRetryAfterCancelledOwner: waiters whose own context
// is still live do not inherit the owner's cancellation. One of them
// becomes the new owner and regenerates (with its own model value — the
// fast twin of the slow model, same fingerprint), the rest share that
// generation.
func TestCacheLiveWaitersRetryAfterCancelledOwner(t *testing.T) {
	cache := NewGenerationCache(WithoutDescriptions(), WithoutMerging())
	slow := &slowModel{states: 50000, delay: 100 * time.Microsecond}
	fast := &slowModel{states: 50000}

	ctx, cancel := context.WithCancel(context.Background())
	ownerDone := make(chan error, 1)
	go func() {
		_, err := cache.MachineFor(ctx, slow)
		ownerDone <- err
	}()
	waitFor(t, func() bool { return cache.Stats().Misses >= 1 })

	const waiters = 4
	machines := make([]*StateMachine, waiters)
	errs := make([]error, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			machines[i], errs[i] = cache.MachineFor(context.Background(), fast)
		}(i)
	}
	waitFor(t, func() bool { return cache.Stats().Hits >= waiters })

	cancel()
	if err := <-ownerDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("owner error = %v, want context.Canceled", err)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("waiter %d inherited a foreign failure: %v", i, errs[i])
		}
		if machines[i] != machines[0] {
			t.Errorf("waiter %d got its own machine; the retry must be single-flight too", i)
		}
	}
	st := cache.Stats()
	if st.Cancellations != 1 || st.Generations != 1 {
		t.Errorf("stats = %+v, want 1 cancellation and 1 generation", st)
	}
	if cache.Len() != 1 {
		t.Errorf("cache entries = %d, want the retried generation retained", cache.Len())
	}
}

// TestCacheWaiterCancellation: a waiter whose own context is cancelled
// stops waiting promptly while the owner's generation continues and is
// cached normally.
func TestCacheWaiterCancellation(t *testing.T) {
	cache := NewGenerationCache(WithoutDescriptions(), WithoutMerging())
	slow := &slowModel{states: 2000, delay: 100 * time.Microsecond}

	ownerDone := make(chan error, 1)
	go func() {
		_, err := cache.MachineFor(context.Background(), slow)
		ownerDone <- err
	}()
	waitFor(t, func() bool { return cache.Stats().Misses >= 1 })

	waiterCtx, cancelWaiter := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, err := cache.MachineFor(waiterCtx, slow)
		waiterDone <- err
	}()
	waitFor(t, func() bool { return cache.Stats().Hits >= 1 })

	cancelWaiter()
	select {
	case err := <-waiterDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter error = %v, want context.Canceled", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("cancelled waiter did not return promptly")
	}

	if err := <-ownerDone; err != nil {
		t.Fatalf("owner generation failed: %v", err)
	}
	st := cache.Stats()
	if st.Generations != 1 || st.Cancellations != 0 {
		t.Errorf("stats = %+v, want 1 generation and 0 cancellations", st)
	}
	if cache.Len() != 1 {
		t.Errorf("cache entries = %d, want the completed generation retained", cache.Len())
	}
}

// waitFor polls cond until it holds or the test deadline budget runs out.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
