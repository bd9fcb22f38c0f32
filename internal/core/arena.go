package core

import "fmt"

const (
	// arenaChunkShift sizes the arena chunks: 1<<arenaChunkShift vectors per
	// chunk. Chunks never move once allocated, so readers holding a chunk
	// snapshot stay valid while the owner interns further states.
	arenaChunkShift = 8
	arenaChunkSize  = 1 << arenaChunkShift
)

// vecArena interns state vectors in struct-of-arrays form: each distinct
// vector occupies one width-sized row of a chunked flat []int backing store
// and is identified by a dense id assigned in first-intern order. Lookup
// goes through an open-addressed hash table over the packed component
// values, so steady-state interning allocates nothing — a hit costs a probe
// sequence and an equality check, a miss additionally one row copy into the
// current chunk.
//
// Ids fit an int32 because a state space large enough to overflow one would
// exhaust memory long before: 2³¹ rows of even a two-component vector are
// 32 GiB of backing store alone.
type vecArena struct {
	width  int
	n      int
	chunks [][]int
	// table holds id+1 per occupied slot (0 = empty); its length is a power
	// of two so the probe sequence can wrap with a mask.
	table []int32
	mask  uint64
}

// newVecArena returns an arena for vectors of the given width, pre-sized so
// that sizeHint states can be interned without growing the hash table.
func newVecArena(width, sizeHint int) *vecArena {
	size := 64
	// Keep the table at most half full at the hinted population.
	for size < sizeHint*2 && size < 1<<30 {
		size <<= 1
	}
	return &vecArena{
		width: width,
		table: make([]int32, size),
		mask:  uint64(size - 1),
	}
}

// vec returns the interned vector with the given id as a view into the
// arena. The view must not be mutated.
func (a *vecArena) vec(id int) Vector {
	chunk := a.chunks[id>>arenaChunkShift]
	off := (id & (arenaChunkSize - 1)) * a.width
	return Vector(chunk[off : off+a.width : off+a.width])
}

// hashVec is FNV-1a over the component values, word at a time.
func hashVec(v Vector) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range v {
		h ^= uint64(x)
		h *= 1099511628211
	}
	return h
}

// intern returns the id of v, copying it into the arena when it has not
// been seen before. Callers may reuse v afterwards.
func (a *vecArena) intern(v Vector) int {
	for i := hashVec(v) & a.mask; ; i = (i + 1) & a.mask {
		e := a.table[i]
		if e == 0 {
			id := a.add(v)
			a.table[i] = int32(id) + 1
			if uint64(a.n)*2 > a.mask {
				a.grow()
			}
			return id
		}
		if a.vec(int(e - 1)).Equal(v) {
			return int(e - 1)
		}
	}
}

// lookup returns the id of v without interning, or -1 when absent.
func (a *vecArena) lookup(v Vector) int {
	for i := hashVec(v) & a.mask; ; i = (i + 1) & a.mask {
		e := a.table[i]
		if e == 0 {
			return -1
		}
		if a.vec(int(e - 1)).Equal(v) {
			return int(e - 1)
		}
	}
}

// add appends v as the next row, allocating a fresh chunk when the current
// one is full. Existing chunks are never reallocated or moved.
func (a *vecArena) add(v Vector) int {
	id := a.n
	ci := id >> arenaChunkShift
	if ci == len(a.chunks) {
		a.chunks = append(a.chunks, make([]int, 0, arenaChunkSize*a.width))
	}
	a.chunks[ci] = append(a.chunks[ci], v...)
	a.n++
	return id
}

// grow doubles the hash table and reinserts every id.
func (a *vecArena) grow() {
	size := len(a.table) * 2
	table := make([]int32, size)
	mask := uint64(size - 1)
	for id := 0; id < a.n; id++ {
		for i := hashVec(a.vec(id)) & mask; ; i = (i + 1) & mask {
			if table[i] == 0 {
				table[i] = int32(id) + 1
				break
			}
		}
	}
	a.table, a.mask = table, mask
}

// clone returns a deep copy whose chunks and table are independent of a, so
// incremental regeneration can patch the copy while the original remains
// attached to a cached machine.
func (a *vecArena) clone() *vecArena {
	b := &vecArena{width: a.width, n: a.n, mask: a.mask}
	b.table = append([]int32(nil), a.table...)
	b.chunks = make([][]int, len(a.chunks))
	for i, c := range a.chunks {
		nc := make([]int, len(c), cap(c))
		copy(nc, c)
		b.chunks[i] = nc
	}
	return b
}

// Sentinel targets for effect cells.
const (
	// cellNone marks a message that is not applicable in the state.
	cellNone int32 = -2
	// cellFinish marks a transition into the synthetic finish state.
	cellFinish int32 = -1
)

// effectCell is the stored result of one Apply call: the interned target id
// (or a sentinel) plus the effect's action and annotation lists, aliased
// from the model's Effect without copying.
type effectCell struct {
	target      int32
	actions     []string
	annotations []string
}

// exploration is the raw product of state-space exploration in
// struct-of-arrays form: the interned vectors plus one effect column per
// message, where cols[mi][id] is the effect of message mi on state id. It
// is retained (unexported) on generated machines so Regenerate can patch
// the affected columns instead of re-exploring from scratch.
type exploration struct {
	arena     *vecArena
	cols      [][]effectCell
	hasFinish bool
}

// newExploration returns an empty exploration sized for about sizeHint
// states (non-positive: a small default).
func newExploration(width, nmsg, sizeHint int) *exploration {
	ex := &exploration{
		arena: newVecArena(width, sizeHint),
		cols:  make([][]effectCell, nmsg),
	}
	if sizeHint <= 0 {
		sizeHint = 64
	}
	for i := range ex.cols {
		ex.cols[i] = make([]effectCell, 0, sizeHint)
	}
	return ex
}

// clone deep-copies the arena and columns; the cells' action and annotation
// slices stay shared (they are immutable by the Model contract).
func (ex *exploration) clone() *exploration {
	out := &exploration{
		arena:     ex.arena.clone(),
		cols:      make([][]effectCell, len(ex.cols)),
		hasFinish: ex.hasFinish,
	}
	for i, col := range ex.cols {
		out.cols[i] = append(make([]effectCell, 0, len(col)+64), col...)
	}
	return out
}

// cellOf converts one Apply result into an effect cell, interning the
// target. The target must already be validated.
func (ex *exploration) cellOf(eff Effect, ok bool) effectCell {
	switch {
	case !ok:
		return effectCell{target: cellNone}
	case eff.Finished:
		ex.hasFinish = true
		return effectCell{target: cellFinish, actions: eff.Actions, annotations: eff.Annotations}
	default:
		return effectCell{
			target:      int32(ex.arena.intern(eff.Target)),
			actions:     eff.Actions,
			annotations: eff.Annotations,
		}
	}
}

// expandState computes and records the effect of every message on state id.
// It must be called with id == len(cols[*]), i.e. states are expanded in id
// order.
func (ex *exploration) expandState(m Model, components []StateComponent, messages []string, id int) error {
	v := ex.arena.vec(id)
	for mi, msg := range messages {
		eff, ok := m.Apply(v, msg)
		if ok && !eff.Finished {
			if err := eff.Target.validate(components); err != nil {
				return fmt.Errorf("core: %s on %s: %w", msg, v.Name(components), err)
			}
		}
		ex.cols[mi] = append(ex.cols[mi], ex.cellOf(eff, ok))
	}
	return nil
}
