package core

import "context"

// ModelDelta describes how an edited model's transition function may differ
// from the model that produced an existing machine. It is the contract
// between spec-level diffing (spec.Diff) and core-level incremental
// regeneration (Regenerate): the delta must be conservative — every message
// whose Apply results could differ in any state must be listed, or Full set
// when the change cannot be scoped to messages.
type ModelDelta struct {
	// Full forces from-scratch generation: the edit changed the declared
	// structure (components, domains, message set, start state) or could
	// not be classified.
	Full bool
	// Messages lists the messages whose Apply behaviour may have changed.
	// Empty with Full unset means the transition structure is untouched
	// (e.g. only state descriptions changed) and the machine is rebuilt
	// from the existing exploration without any re-expansion.
	Messages []string
}

// IsFull reports whether the delta demands from-scratch generation.
func (d ModelDelta) IsFull() bool { return d.Full }

// Regenerate produces the machine for model m by patching the retained
// exploration of old — a machine previously generated from a model of the
// same family — instead of exploring from scratch. Only the effect columns
// of delta-affected messages are recomputed; states newly reachable through
// changed transitions are explored to closure, reachability is re-derived
// by a pure graph walk, and the machine is rebuilt and merged from the
// patched store. The result is identical to Generate(ctx, m, opts...) —
// byte-identical fingerprints — because machine content is independent of
// discovery order: state names, transitions, merging and the final sort
// depend only on the reachable set.
//
// The retained exploration is the raw record of the transition function —
// merging and descriptions are applied when the machine is built from it —
// so opts need not be the options old was generated under.
//
// Regenerate falls back to Generate transparently when old carries no
// exploration (a GenerateEnumerated machine, or one from an older
// process), when the delta is Full, or when the declared structure
// changed. The old machine is never mutated: the exploration is cloned
// before patching, so old remains valid as a regeneration source for
// further edits.
func Regenerate(ctx context.Context, old *StateMachine, m Model, delta ModelDelta, opts ...Option) (*StateMachine, error) {
	machine, _, err := regenerate(ctx, old, m, delta, opts)
	return machine, err
}

// regenerate additionally reports whether the incremental path was taken,
// for cache statistics.
func regenerate(ctx context.Context, old *StateMachine, m Model, delta ModelDelta, opts []Option) (*StateMachine, bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// full is the fallback: a generation from scratch.
	full := func() (*StateMachine, bool, error) {
		machine, err := Generate(ctx, m, opts...)
		return machine, false, err
	}
	if old == nil || old.explored == nil || delta.Full {
		return full()
	}
	components, messages, start, err := declared(m)
	if err != nil {
		return nil, false, err
	}

	// The retained exploration is only reusable when the state encoding and
	// message set are unchanged and the start state is the same interned
	// row. Anything else is a structural edit: fall back.
	if !structureMatches(old, components, messages, start) {
		return full()
	}

	affected := make([]int, 0, len(delta.Messages))
	msgIdx := make(map[string]int, len(messages))
	for i, msg := range messages {
		msgIdx[msg] = i
	}
	for _, msg := range delta.Messages {
		mi, ok := msgIdx[msg]
		if !ok {
			// The delta names a message the model does not declare; the
			// delta cannot be trusted to be conservative.
			return full()
		}
		affected = append(affected, mi)
	}

	ex := old.explored.clone(components)
	oldN := ex.arena.n

	// Patch the affected columns over every previously interned state.
	// Targets outside the interned set are appended to the arena; they form
	// the frontier of the edit.
	for _, mi := range affected {
		col := ex.cols[mi]
		for id := 0; id < oldN; id++ {
			if id&255 == 0 {
				if err := ctx.Err(); err != nil {
					return nil, false, err
				}
			}
			if col[id], err = ex.apply(m, messages, id, mi); err != nil {
				return nil, false, err
			}
		}
	}

	// Explore the edit frontier to closure: states the patch discovered get
	// full rows, exactly as fresh exploration would give them.
	for cursor := oldN; cursor < ex.arena.n; cursor++ {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		if err := ex.expandState(m, messages, cursor); err != nil {
			return nil, false, err
		}
	}

	// Reachability is a pure graph walk over the patched columns — no Apply
	// calls. The patched store may hold states that the edit disconnected
	// (or that were only ever reachable under a previous rule set); they
	// stay interned for future regenerations but are not materialised.
	startID := ex.arena.lookup(start)
	if startID != 0 {
		// Start is always row 0 of a fresh exploration; structureMatches
		// guarantees this, so reaching here is a programming error — but
		// degrade to a full generation rather than building a wrong machine.
		return full()
	}
	reach, finishReachable := reachableFrom(ex, int32(startID))
	ex.notes = interner{}

	machine, err := assemble(ctx, m, newGenConfig(opts), ex, reach, finishReachable, startID)
	if err != nil {
		return nil, false, err
	}
	machine.explored = ex
	return machine, true, nil
}

// structureMatches reports whether the new model's declared structure is
// compatible with the old machine's exploration: same component domains,
// same message list, and the same start vector (which fresh exploration
// interned as row 0).
func structureMatches(old *StateMachine, components []StateComponent, messages []string, start Vector) bool {
	if len(components) != len(old.Components) {
		return false
	}
	for i, c := range components {
		if c.Cardinality() != old.Components[i].Cardinality() {
			return false
		}
	}
	if len(messages) != len(old.Messages) {
		return false
	}
	for i, msg := range messages {
		if msg != old.Messages[i] {
			return false
		}
	}
	return len(start) == old.explored.arena.width && start.Equal(old.explored.arena.vec(0))
}

// reachableFrom walks the effect columns from the start id and returns the
// reachable ids in ascending order, plus whether the finish state is
// reachable.
func reachableFrom(ex *exploration, start int32) ([]int32, bool) {
	n := ex.arena.n
	seen := make([]bool, n)
	seen[start] = true
	queue := make([]int32, 0, n)
	queue = append(queue, start)
	finish := false
	for qi := 0; qi < len(queue); qi++ {
		id := queue[qi]
		for mi := range ex.cols {
			tgt := ex.cols[mi][id].target
			switch {
			case tgt == cellNone:
			case tgt == cellFinish:
				finish = true
			case !seen[tgt]:
				seen[tgt] = true
				queue = append(queue, tgt)
			}
		}
	}
	reach := make([]int32, 0, len(queue))
	for id := 0; id < n; id++ {
		if seen[id] {
			reach = append(reach, int32(id))
		}
	}
	return reach, finish
}
