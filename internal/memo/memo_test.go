package memo

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the budget runs out.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// flight is a leader parked inside fn on key "k" until released.
type flight struct {
	m       *Memo[string, int]
	release chan struct{} // close to let fn return
	done    chan struct{} // closed once the leader's Do has returned
	val     int
	err     error
}

// startFlight starts a leader whose fn returns (val, err) once released —
// or ctx.Err() if ctx ends first — and waits until it is in flight.
func startFlight(t *testing.T, m *Memo[string, int], ctx context.Context, val int, err error) *flight {
	t.Helper()
	f := &flight{m: m, release: make(chan struct{}), done: make(chan struct{})}
	misses := m.Stats().Misses
	go func() {
		defer close(f.done)
		f.val, f.err = m.Do(ctx, "k", func() (int, error) {
			select {
			case <-f.release:
				return val, err
			case <-ctx.Done():
				return 0, ctx.Err()
			}
		})
	}()
	waitFor(t, func() bool { return m.Stats().Misses > misses })
	return f
}

// join attaches n waiters on key "k" whose own fn (run only if they end up
// leading a retry) returns retry, and waits until all are coalesced.
func (f *flight) join(t *testing.T, ctx context.Context, n, retry int) (vals []int, errs []error, wait func()) {
	t.Helper()
	vals, errs = make([]int, n), make([]error, n)
	hits := f.m.Stats().Hits
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], errs[i] = f.m.Do(ctx, "k", func() (int, error) { return retry, nil })
		}(i)
	}
	waitFor(t, func() bool { return f.m.Stats().Hits >= hits+int64(n) })
	return vals, errs, wg.Wait
}

// TestSingleFlight: concurrent first uses of one key share one fn run.
func TestSingleFlight(t *testing.T) {
	var m Memo[string, int]
	var runs int
	start := make(chan struct{})
	var wg sync.WaitGroup
	vals := make([]int, 16)
	for i := range vals {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			vals[i], _ = m.Do(context.Background(), "k", func() (int, error) {
				runs++ // unsynchronised on purpose: -race fails if fn runs twice at once
				time.Sleep(time.Millisecond)
				return 42, nil
			})
		}(i)
	}
	close(start)
	wg.Wait()
	if runs != 1 {
		t.Errorf("fn ran %d times for 16 concurrent first uses, want 1", runs)
	}
	for i, v := range vals {
		if v != 42 {
			t.Errorf("caller %d got %d, want 42", i, v)
		}
	}
	if st := m.Stats(); st.Misses != 1 || st.Hits != 15 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 miss, 15 hits, 1 entry", st)
	}
}

// TestFlightOutcomes is the coalescing table: what the leader, live
// waiters and cancelled waiters each observe, and what the table retains,
// for every way a flight can end.
func TestFlightOutcomes(t *testing.T) {
	boom := errors.New("boom")
	cases := []struct {
		name string
		// leaderErr is what fn returns when released; cancelLeader ends the
		// leader's context instead of releasing it.
		leaderErr    error
		cancelLeader bool
		// cancelWaiters ends the waiters' own context before the flight does.
		cancelWaiters bool
		wantLeader    error
		wantWaiterVal int
		wantWaiter    error
		wantEntries   int
		wantMisses    int64
		// wantNext is what a later Do, whose own fn would return 3, gets: a
		// retained value is served, a dropped entry recomputes.
		wantNext int
	}{
		{name: "success is shared and retained",
			wantWaiterVal: 1, wantEntries: 1, wantMisses: 1, wantNext: 1},
		{name: "failure reaches every coalesced caller and leaves no entry",
			leaderErr: boom, wantLeader: boom, wantWaiter: boom, wantMisses: 1, wantNext: 3},
		{name: "cancelled waiter gets its own error; the leader completes and is retained",
			cancelWaiters: true, wantWaiter: context.Canceled, wantEntries: 1, wantMisses: 1, wantNext: 1},
		{name: "cancelled leader: live waiters retry, one leads, all succeed",
			cancelLeader: true, wantLeader: context.Canceled, wantWaiterVal: 2, wantEntries: 1, wantMisses: 2, wantNext: 2},
		{name: "cancelled leader: cancelled waiters get their own error",
			cancelLeader: true, cancelWaiters: true, wantLeader: context.Canceled, wantWaiter: context.Canceled, wantMisses: 1, wantNext: 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var m Memo[string, int]
			leaderCtx, cancelLeader := context.WithCancel(context.Background())
			defer cancelLeader()
			waiterCtx, cancelWaiters := context.WithCancel(context.Background())
			defer cancelWaiters()

			f := startFlight(t, &m, leaderCtx, 1, tc.leaderErr)
			vals, errs, wait := f.join(t, waiterCtx, 4, 2)
			if tc.cancelWaiters {
				cancelWaiters()
				wait() // they must return while the leader is still parked
			}
			if tc.cancelLeader {
				cancelLeader()
			} else {
				close(f.release)
			}
			<-f.done
			wait()

			if !errors.Is(f.err, tc.wantLeader) {
				t.Errorf("leader error = %v, want %v", f.err, tc.wantLeader)
			}
			for i := range errs {
				if !errors.Is(errs[i], tc.wantWaiter) {
					t.Errorf("waiter %d error = %v, want %v", i, errs[i], tc.wantWaiter)
				}
				if errs[i] == nil && vals[i] != tc.wantWaiterVal {
					t.Errorf("waiter %d value = %d, want %d", i, vals[i], tc.wantWaiterVal)
				}
			}
			if st := m.Stats(); st.Entries != tc.wantEntries || st.Misses != tc.wantMisses {
				t.Errorf("stats = %+v, want %d entries and %d misses", st, tc.wantEntries, tc.wantMisses)
			}
			got, err := m.Do(context.Background(), "k", func() (int, error) { return 3, nil })
			if err != nil || got != tc.wantNext {
				t.Errorf("next Do = (%d, %v), want (%d, nil)", got, err, tc.wantNext)
			}
		})
	}
}

// TestRemovedInFlight: an entry removed while in flight — by Delete,
// DeleteFunc, Purge or eviction — completes for its waiters and is never
// findable again: the next Do recomputes.
func TestRemovedInFlight(t *testing.T) {
	removals := map[string]func(t *testing.T, m *Memo[string, int]){
		"Delete": func(t *testing.T, m *Memo[string, int]) {
			if !m.Delete("k") {
				t.Error("Delete reported no entry for an in-flight key")
			}
		},
		"DeleteFunc": func(t *testing.T, m *Memo[string, int]) {
			if n := m.DeleteFunc(func(k string) bool { return k == "k" }); n != 1 {
				t.Errorf("DeleteFunc removed %d entries, want 1", n)
			}
		},
		"Purge": func(t *testing.T, m *Memo[string, int]) {
			if n := m.Purge(); n != 1 {
				t.Errorf("Purge removed %d entries, want 1", n)
			}
		},
		"eviction": func(t *testing.T, m *Memo[string, int]) {
			m.SetLimit(1)
			if _, err := m.Do(context.Background(), "other", func() (int, error) { return 0, nil }); err != nil {
				t.Error(err)
			}
			if st := m.Stats(); st.Evictions != 1 {
				t.Errorf("evictions = %d, want 1", st.Evictions)
			}
		},
	}
	for name, remove := range removals {
		t.Run(name, func(t *testing.T) {
			var m Memo[string, int]
			f := startFlight(t, &m, context.Background(), 1, nil)
			vals, errs, wait := f.join(t, context.Background(), 2, 9)
			remove(t, &m)
			if _, ok := m.Get("k"); ok {
				t.Fatal("removed entry still findable")
			}
			close(f.release)
			<-f.done
			wait()
			if f.err != nil || f.val != 1 {
				t.Errorf("leader = (%d, %v), want (1, nil)", f.val, f.err)
			}
			for i := range errs {
				if errs[i] != nil || vals[i] != 1 {
					t.Errorf("waiter %d = (%d, %v), want the removed flight's (1, nil)", i, vals[i], errs[i])
				}
			}
			if _, ok := m.Get("k"); ok {
				t.Error("a flight removed mid-way wrote itself back into the table")
			}
			got, err := m.Do(context.Background(), "k", func() (int, error) { return 2, nil })
			if err != nil || got != 2 {
				t.Errorf("Do after removal = (%d, %v), want a recomputed (2, nil)", got, err)
			}
		})
	}
}

// TestLRU: the bound evicts in recency order, and both Get and Do hits
// refresh recency.
func TestLRU(t *testing.T) {
	cases := []struct {
		name     string
		touch    func(m *Memo[int, int]) // after 1, 2, 3 are inserted in order
		survives []int                   // after 4 is inserted under limit 3
		evicted  int
	}{
		{"untouched: oldest goes", func(*Memo[int, int]) {}, []int{2, 3, 4}, 1},
		{"Get refreshes", func(m *Memo[int, int]) { m.Get(1) }, []int{1, 3, 4}, 2},
		{"Do hit refreshes", func(m *Memo[int, int]) {
			m.Do(context.Background(), 1, func() (int, error) { return -1, nil })
			m.Do(context.Background(), 2, func() (int, error) { return -1, nil })
		}, []int{1, 2, 4}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var m Memo[int, int]
			m.SetLimit(3)
			fill := func(k int) {
				if _, err := m.Do(context.Background(), k, func() (int, error) { return k * 10, nil }); err != nil {
					t.Fatal(err)
				}
			}
			fill(1)
			fill(2)
			fill(3)
			tc.touch(&m)
			fill(4)
			st := m.Stats()
			if st.Entries != 3 || st.Evictions != 1 {
				t.Fatalf("stats = %+v, want 3 entries and 1 eviction", st)
			}
			if _, ok := m.Get(tc.evicted); ok {
				t.Errorf("key %d survived, want it evicted", tc.evicted)
			}
			for _, k := range tc.survives {
				if v, ok := m.Get(k); !ok || v != k*10 {
					t.Errorf("Get(%d) = (%d, %v), want (%d, true)", k, v, ok, k*10)
				}
			}
		})
	}
	t.Run("SetLimit evicts down", func(t *testing.T) {
		var m Memo[int, int]
		for k := 1; k <= 5; k++ {
			m.Do(context.Background(), k, func() (int, error) { return k, nil })
		}
		m.SetLimit(2)
		if st := m.Stats(); st.Entries != 2 || st.Evictions != 3 {
			t.Errorf("stats = %+v, want 2 entries after 3 evictions", st)
		}
		m.SetLimit(0)
		for k := 6; k <= 9; k++ {
			m.Do(context.Background(), k, func() (int, error) { return k, nil })
		}
		if st := m.Stats(); st.Entries != 6 {
			t.Errorf("entries = %d with the bound lifted, want 6", st.Entries)
		}
	})
}

// TestDeleteFuncAndPurgeCounts: both report how many entries they removed.
func TestDeleteFuncAndPurgeCounts(t *testing.T) {
	var m Memo[int, int]
	for k := 0; k < 10; k++ {
		m.Do(context.Background(), k, func() (int, error) { return k, nil })
	}
	if m.Delete(99) {
		t.Error("Delete reported an entry for an absent key")
	}
	if n := m.DeleteFunc(func(k int) bool { return k%2 == 0 }); n != 5 {
		t.Errorf("DeleteFunc removed %d, want 5", n)
	}
	if st := m.Stats(); st.Entries != 5 || st.Evictions != 0 {
		t.Errorf("stats = %+v, want 5 entries and no evictions counted", st)
	}
	if n := m.Purge(); n != 5 {
		t.Errorf("Purge removed %d, want 5", n)
	}
	if n := m.Purge(); n != 0 {
		t.Errorf("second Purge removed %d, want 0", n)
	}
	if v, err := m.Do(context.Background(), 1, func() (int, error) { return 7, nil }); err != nil || v != 7 {
		t.Errorf("Do after Purge = (%d, %v), want (7, nil)", v, err)
	}
}

// TestEndedContext: a caller whose context has already ended still takes a
// completed entry, returns at once from an in-flight one, and as leader
// runs fn — the three properties the pipeline's Probe is built from.
func TestEndedContext(t *testing.T) {
	ended, cancel := context.WithCancel(context.Background())
	cancel()
	var m Memo[string, int]
	unreachable := func() (int, error) { t.Error("fn ran for a warm key"); return 0, nil }

	f := startFlight(t, &m, context.Background(), 1, nil)
	if _, ok := m.Get("k"); ok {
		t.Error("Get reported an in-flight entry as complete")
	}
	if _, err := m.Do(ended, "k", unreachable); !errors.Is(err, context.Canceled) {
		t.Errorf("Do on an in-flight key under an ended context = %v, want context.Canceled at once", err)
	}
	close(f.release)
	<-f.done
	for i := 0; i < 100; i++ { // a completed entry wins every time, not half of them
		if v, err := m.Do(ended, "k", unreachable); err != nil || v != 1 {
			t.Fatalf("Do on a completed key under an ended context = (%d, %v), want (1, nil)", v, err)
		}
	}
	if _, err := m.Do(ended, "cold", func() (int, error) { return 0, ended.Err() }); !errors.Is(err, context.Canceled) {
		t.Errorf("leader under an ended context = %v, want its fn's error", err)
	}
	if st := m.Stats(); st.Entries != 1 {
		t.Errorf("entries = %d, want only the completed one", st.Entries)
	}
}

// TestEachVisitsCompletedEntries: Each sees every completed entry with its
// value and no in-flight one, and is not a lookup — it neither counts hits
// nor refreshes recency.
func TestEachVisitsCompletedEntries(t *testing.T) {
	var m Memo[string, int]
	m.SetLimit(3)
	for _, k := range []string{"a", "b"} {
		m.Do(context.Background(), k, func() (int, error) { return len(k), nil })
	}
	m.Do(context.Background(), "failed", func() (int, error) { return 0, errors.New("boom") })
	f := startFlight(t, &m, context.Background(), 9, nil)

	before := m.Stats()
	seen := map[string]int{}
	m.Each(func(k string, v int) { seen[k] = v })
	if len(seen) != 2 || seen["a"] != 1 || seen["b"] != 1 {
		t.Errorf("Each visited %v, want the two completed entries", seen)
	}
	if after := m.Stats(); after != before {
		t.Errorf("Each changed the counters: %+v -> %+v", before, after)
	}
	close(f.release)
	<-f.done
	m.Each(func(k string, v int) { seen[k] = v })
	if seen["k"] != 9 {
		t.Errorf("Each after the flight landed visited %v, want k too", seen)
	}
	// "a" is still the least recently used: Each refreshed nothing.
	m.Do(context.Background(), "c", func() (int, error) { return 0, nil })
	if _, ok := m.Get("a"); ok {
		t.Error("Each refreshed recency: the oldest entry survived an eviction")
	}
}
