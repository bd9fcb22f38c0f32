// Package memo is the one cache table of the repository: a single-flight,
// LRU-bounded memo of successful computations. The generation cache and the
// pipeline's member and render tiers are all instances of it, so the §4.2
// policy — generate on first use of a parameter value, then reuse — and
// every rule around it is stated here once:
//
//   - Single-flight. Concurrent first requests for a key share one fn
//     run, under the context of the request that started it (the leader).
//     A waiter stops waiting when its own context ends.
//   - Only successes are retained. A failure is delivered to everyone
//     coalesced on that run and the entry is dropped, so the next request
//     recomputes. Cancellation is one such failure, with one addition: a
//     waiter whose own context is still live does not inherit a foreign
//     cancellation, it retries as the new leader.
//   - Entry bound. Beyond SetLimit entries the least recently used one is
//     evicted, in O(1); hits refresh recency and allocate nothing.
//   - Identity. A leader completes the entry it created, never "the entry
//     under its key": an entry deleted, purged or evicted while in flight
//     still completes for its current waiters and is never findable
//     again, so a computation begun before an invalidation cannot
//     repopulate the table after it.
package memo

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// Stats is a snapshot of a table's counters.
type Stats struct {
	// Hits counts lookups that found an entry, completed or in flight.
	Hits int64
	// Misses counts lookups that created an entry and ran fn.
	Misses int64
	// Evictions counts entries dropped by the size bound.
	Evictions int64
	// Entries is the current number of entries, in-flight ones included.
	Entries int
}

// Memo memoises fn results per key. The zero value is an empty, unbounded
// table ready for use; a Memo must not be copied after first use.
type Memo[K comparable, V any] struct {
	mu      sync.Mutex
	limit   int
	entries map[K]*entry[K, V]
	// order holds every entry of the map, least recently used first.
	order list.List

	hits, misses, evictions int64
}

// entry is one computation. val and err are final once done is closed.
type entry[K comparable, V any] struct {
	key  K
	elem *list.Element
	done chan struct{}
	val  V
	err  error
}

// Do returns the memoised value for key, running fn to compute it on
// first use. See the package comment for the coalescing, retention and
// cancellation rules. fn should honour the ctx passed to Do: it is the
// leader's, and cancelling it is how an in-flight computation is aborted.
func (m *Memo[K, V]) Do(ctx context.Context, key K, fn func() (V, error)) (V, error) {
	for {
		m.mu.Lock()
		e, ok := m.entries[key]
		if !ok {
			// Lead: run fn for the entry this caller created, drop the entry
			// if it failed and is still the one under its key, and release
			// the waiters either way.
			e = m.insertLocked(key)
			m.mu.Unlock()
			e.val, e.err = fn()
			if e.err != nil {
				m.mu.Lock()
				if m.entries[key] == e {
					m.removeLocked(e)
				}
				m.mu.Unlock()
			}
			close(e.done)
			return e.val, e.err
		}
		m.hits++
		m.order.MoveToBack(e.elem)
		m.mu.Unlock()

		select {
		case <-e.done:
		case <-ctx.Done():
			// A completed entry beats a finished context, so a caller that
			// has already given up still takes what costs nothing.
			select {
			case <-e.done:
			default:
				var zero V
				return zero, ctx.Err()
			}
		}
		if IsCancellation(e.err) && ctx.Err() == nil {
			continue // the leader was cancelled, not us: retry as leader
		}
		return e.val, e.err
	}
}

// Get returns the value for key if its computation has completed,
// counting a hit and refreshing recency. It never blocks: an absent or
// in-flight entry reports false and counts nothing.
func (m *Memo[K, V]) Get(key K) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.entries[key]; ok {
		select {
		case <-e.done:
			m.hits++
			m.order.MoveToBack(e.elem)
			return e.val, true
		default:
		}
	}
	var zero V
	return zero, false
}

// Delete removes the entry for key, reporting whether one was present.
func (m *Memo[K, V]) Delete(key K) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[key]
	if ok {
		m.removeLocked(e)
	}
	return ok
}

// DeleteFunc removes every entry whose key satisfies pred and returns how
// many were removed. pred runs under the table's lock and must not call
// back into the Memo.
func (m *Memo[K, V]) DeleteFunc(pred func(K) bool) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for key, e := range m.entries {
		if pred(key) {
			m.removeLocked(e)
			n++
		}
	}
	return n
}

// Each calls fn with the key and value of every completed entry, in no
// particular order, without counting hits or refreshing recency. fn runs
// under the table's lock and must not call back into the Memo.
func (m *Memo[K, V]) Each(fn func(K, V)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for key, e := range m.entries {
		select {
		case <-e.done:
			// A failed entry left the map before its done closed.
			fn(key, e.val)
		default:
		}
	}
}

// Purge removes every entry and returns how many were removed.
func (m *Memo[K, V]) Purge() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(m.entries)
	m.entries = nil
	m.order.Init()
	return n
}

// SetLimit bounds the number of entries; least recently used entries are
// evicted beyond it. A limit of zero or less (the default) means
// unbounded.
func (m *Memo[K, V]) SetLimit(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.limit = n
	m.evictLocked()
}

// Stats returns a snapshot of the table's counters.
func (m *Memo[K, V]) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{Hits: m.hits, Misses: m.misses, Evictions: m.evictions, Entries: len(m.entries)}
}

// insertLocked records a miss and adds an in-flight entry for key as the
// most recently used, evicting beyond the bound.
func (m *Memo[K, V]) insertLocked(key K) *entry[K, V] {
	m.misses++
	e := &entry[K, V]{key: key, done: make(chan struct{})}
	e.elem = m.order.PushBack(e)
	if m.entries == nil {
		m.entries = make(map[K]*entry[K, V])
	}
	m.entries[key] = e
	m.evictLocked()
	return e
}

func (m *Memo[K, V]) removeLocked(e *entry[K, V]) {
	delete(m.entries, e.key)
	m.order.Remove(e.elem)
}

// evictLocked drops least recently used entries until the bound is met.
// An in-flight victim completes for its waiters like any deleted entry.
func (m *Memo[K, V]) evictLocked() {
	for m.limit > 0 && len(m.entries) > m.limit {
		m.removeLocked(m.order.Front().Value.(*entry[K, V]))
		m.evictions++
	}
}

// IsCancellation reports whether err is a context cancellation or
// deadline error: the one class of failure a live waiter does not inherit.
func IsCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
