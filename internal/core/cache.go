package core

import (
	"context"
	"slices"
	"sync/atomic"

	"asagen/internal/memo"
)

// This file implements the generation policies of §4.2: generation may be
// performed once during development (the fsmgen artefact path), every time
// the algorithm is needed, or whenever a new parameter value is
// encountered. For the last policy the paper suggests caching generated
// implementations so regeneration is amortised; Cache provides that,
// safely under concurrent use.
//
// The cache is keyed by model fingerprint (see fingerprint.go), not by the
// raw parameter value: any two models that would generate bit-identical
// machines — regardless of how they were constructed — share one entry,
// and a long-running generation service can bound and observe the cache
// through SetLimit, Purge and Stats.
//
// The table itself is a memo.Memo, which states the lookup rules once for
// every cache tier of the repository: a generation runs under the context
// of the request that started it; concurrent requests for the same
// fingerprint wait on the in-flight generation but stop waiting as soon as
// their own context is cancelled; a failed or cancelled generation leaves
// no entry, so the next request regenerates from scratch; and a waiter
// whose own context is still live retries instead of inheriting another
// request's cancellation.

// CacheStats is a snapshot of the cache's counters.
type CacheStats struct {
	// Hits counts lookups answered from a memoised entry.
	Hits int64
	// Misses counts lookups that created a new entry.
	Misses int64
	// Evictions counts entries dropped by the size bound.
	Evictions int64
	// Generations counts machine generations that ran to completion. Under
	// concurrent first use of one fingerprint this stays at one: the
	// in-flight generation is shared (single-flight).
	Generations int64
	// Cancellations counts generations aborted by context cancellation.
	// Aborted generations never count as Generations and leave no entry.
	Cancellations int64
	// Incremental counts generations satisfied by patching a previously
	// cached machine's exploration (see WithRegenerationFrom) instead of
	// exploring from scratch. Incremental generations also count as Generations.
	Incremental int64
	// Entries is the current number of memoised machines.
	Entries int
}

// Cache generates machines on demand and memoises them per model
// fingerprint, so that dynamic changes to the parameter (a new replication
// factor, §4.2) pay the generation cost once. Concurrent first requests
// for the same fingerprint share a single in-flight generation. The table
// is the cache's only record of a machine: what else is known about a
// family member lives with whoever asked for it.
type Cache struct {
	opts     []Option
	machines memo.Memo[Fingerprint, *StateMachine]

	generations, cancellations, incremental atomic.Int64
}

// NewGenerationCache returns a cache generating with the given options.
// Machines are requested through MachineFor with caller-constructed
// models, so one cache serves many registered models rather than one
// parameterised family.
func NewGenerationCache(opts ...Option) *Cache {
	return &Cache{opts: append([]Option(nil), opts...)}
}

// with returns the cache's options followed by one lookup's own. A
// fingerprint names the options it was computed under, so lookups under
// different options share the table without sharing entries.
func (c *Cache) with(opts []Option) []Option {
	if len(opts) == 0 {
		return c.opts
	}
	return slices.Concat(c.opts, opts)
}

// Fingerprint returns the cache key for the model: its fingerprint under
// the cache's generation options followed by opts.
func (c *Cache) Fingerprint(m Model, opts ...Option) Fingerprint {
	return FingerprintModel(m, c.with(opts)...)
}

// MachineFor returns the generated machine for an already-constructed
// model, memoised by the model's fingerprint. Two distinct model values
// with equal fingerprints share one generation and one machine.
// Cancelling ctx aborts an in-flight generation (or stops waiting on one
// another request owns) and returns ctx.Err(). A nil ctx is treated as
// context.Background().
func (c *Cache) MachineFor(ctx context.Context, m Model, opts ...Option) (*StateMachine, error) {
	return c.MachineForFingerprint(ctx, c.Fingerprint(m, opts...), m, opts...)
}

// MachineForFingerprint is MachineFor with the fingerprint precomputed by
// the caller (it must be c.Fingerprint(m, opts...)), so callers that also
// need the fingerprint — e.g. for cache headers — hash the model once per
// request. A WithRegenerationFrom among opts is honoured on a miss.
func (c *Cache) MachineForFingerprint(ctx context.Context, fp Fingerprint, m Model, opts ...Option) (*StateMachine, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return c.machines.Do(ctx, fp, func() (*StateMachine, error) { return c.generate(ctx, fp, m, c.with(opts)) })
}

// generate is the memo's miss path: one generation, counted in the cache's
// own statistics. Under WithRegenerationFrom it patches the source machine
// if that is still cached — Get never blocks on an in-flight generation, so
// a source that is gone or unfinished means a full generation — and the
// source, which no other lookup will ask for again, leaves the table once
// its replacement exists.
func (c *Cache) generate(ctx context.Context, fp Fingerprint, m Model, opts []Option) (*StateMachine, error) {
	var (
		old   *StateMachine
		delta ModelDelta
	)
	from := newGenConfig(opts).from
	if from != nil && from.old != fp {
		old, _ = c.machines.Get(from.old)
		delta = from.delta
	}
	machine, wasIncremental, err := regenerate(ctx, old, m, delta, opts)
	if memo.IsCancellation(err) {
		c.cancellations.Add(1)
		return nil, err
	}
	c.generations.Add(1)
	if wasIncremental {
		c.incremental.Add(1)
	}
	if err == nil && old != nil {
		c.machines.Delete(from.old)
	}
	return machine, err
}

// SetLimit bounds the number of memoised machines; least recently used
// entries are evicted beyond it. A limit of zero (the default) means
// unbounded. A long-running serve process should set a limit so an
// unbounded parameter stream cannot grow the cache without bound.
func (c *Cache) SetLimit(n int) { c.machines.SetLimit(n) }

// Purge drops every memoised machine, returning the number removed.
func (c *Cache) Purge() int { return c.machines.Purge() }

// Drop removes the memoised machine for one fingerprint, reporting whether
// an entry was present. Goroutines still waiting on a dropped entry's
// in-flight generation complete normally; the entry is simply no longer
// findable, so the next request regenerates. Used by the artefact pipeline
// to purge a dynamically unregistered model's generations.
func (c *Cache) Drop(fp Fingerprint) bool { return c.machines.Delete(fp) }

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	st := c.machines.Stats()
	return CacheStats{
		Hits:          st.Hits,
		Misses:        st.Misses,
		Evictions:     st.Evictions,
		Generations:   c.generations.Load(),
		Cancellations: c.cancellations.Load(),
		Incremental:   c.incremental.Load(),
		Entries:       st.Entries,
	}
}

// Len returns the number of memoised machines.
func (c *Cache) Len() int { return c.machines.Stats().Entries }
