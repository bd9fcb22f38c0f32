package core

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"strings"
)

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

// stringArena hands out copies of byte strings cut from shared chunks, so
// that many small strings cost one allocation per chunk. A strings.Builder
// never changes the bytes it has written, and its String shares them; a
// chunk is never written past its capacity, so it never moves.
type stringArena struct {
	chunk strings.Builder
}

// copy returns b as a string of its own. b may be reused afterwards.
func (a *stringArena) copy(b []byte) string {
	if a.chunk.Cap()-a.chunk.Len() < len(b) {
		next := min(max(2*a.chunk.Cap(), 512), 4<<10)
		a.chunk = strings.Builder{}
		a.chunk.Grow(max(len(b), next))
	}
	from := a.chunk.Len()
	a.chunk.Write(b)
	return a.chunk.String()[from:]
}

// Sentinel targets for effect cells.
const (
	// cellNone marks a message that is not applicable in the state.
	cellNone int32 = -2
	// cellFinish marks a transition into the synthetic finish state.
	cellFinish int32 = -1
)

// effectCell is the stored result of one Apply call: the interned target id
// (or a sentinel) and the ids of the effect's action and annotation lists
// in the exploration's listTable.
type effectCell struct {
	target, actions, annotations int32
}

// listTable interns the string lists of an exploration's effects. Id 0 is
// the empty list, and two ids are equal exactly when their lists are, so
// step 4 compares action lists by id. A list is copied, with cap == len,
// the first time it is seen, and never changes afterwards: transitions
// alias the copies. The copies are cut from shared blocks and the keys
// from a string arena, so that a member's distinct lists cost a few
// allocations in all rather than two each.
type listTable struct {
	lists [][]string
	// ids maps a list's encoding (see key) to its id.
	ids   map[string]int32
	buf   []byte
	block []string // the spare capacity new lists are copied into
	keys  stringArena
}

func newListTable() *listTable {
	return &listTable{lists: [][]string{nil}, ids: map[string]int32{"": 0}}
}

// key encodes list as the length-prefixed concatenation of its strings.
func (t *listTable) key(list []string) []byte {
	b := t.buf[:0]
	for _, s := range list {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	t.buf = b
	return b
}

// intern returns the id of list, copying it the first time it is seen.
// Callers may reuse list afterwards.
func (t *listTable) intern(list []string) int32 {
	if len(list) == 0 {
		return 0
	}
	k := t.key(list)
	if id, ok := t.ids[string(k)]; ok {
		return id
	}
	id := int32(len(t.lists))
	if cap(t.block)-len(t.block) < len(list) {
		t.block = make([]string, 0, max(len(list), min(2*cap(t.block), 256), 16))
	}
	n := len(t.block)
	t.block = append(t.block, list...)
	t.lists = append(t.lists, t.block[n:len(t.block):len(t.block)])
	t.ids[t.keys.copy(k)] = id
	return id
}

// at returns the list with the given id; nil for the empty list.
func (t *listTable) at(id int32) []string { return t.lists[id] }

// clone returns a table that shares t's lists and interns further ones
// without changing t: into blocks and a string arena of its own.
func (t *listTable) clone() *listTable {
	return &listTable{lists: slices.Clip(t.lists), ids: maps.Clone(t.ids)}
}

// exploration is the raw product of state-space exploration in
// struct-of-arrays form: the interned vectors plus one effect column per
// message, where cols[mi][id] is the effect of message mi on state id, and
// the table of the lists the cells name. It is retained (unexported) on
// generated machines so Regenerate can patch the affected columns instead
// of re-exploring from scratch.
type exploration struct {
	arena     *vecArena
	cols      [][]effectCell
	lists     *listTable
	hasFinish bool

	// eff is what Apply writes into. Before every call it is reset to
	// scratch: a target vector and empty lists the exploration owns, and
	// the annotations models compose, each copied once.
	eff, scratch Effect
	notes        interner
	components   []StateComponent
}

// scratchList is the capacity of the scratch action and annotation lists.
const scratchList = 8

// newExploration returns an empty exploration of the given components and
// number of messages, sized for about sizeHint states (non-positive: a
// small default).
func newExploration(components []StateComponent, nmsg, sizeHint int) *exploration {
	ex := &exploration{
		arena: newVecArena(len(components), sizeHint),
		cols:  make([][]effectCell, nmsg),
		lists: newListTable(),
	}
	ex.setScratch(components)
	if sizeHint <= 0 {
		sizeHint = 64
	}
	for i := range ex.cols {
		ex.cols[i] = make([]effectCell, 0, sizeHint)
	}
	return ex
}

// setScratch gives ex the buffers apply reuses.
func (ex *exploration) setScratch(components []StateComponent) {
	ex.components = components
	ex.scratch = Effect{
		Target:      make(Vector, len(components)),
		Actions:     make([]string, 0, scratchList),
		Annotations: make([]string, 0, scratchList),
		notes:       &ex.notes,
	}
}

// clone copies the arena and columns for a model over components; the
// list table's lists stay shared (they never change). The clone gets
// scratch of its own.
func (ex *exploration) clone(components []StateComponent) *exploration {
	out := &exploration{
		arena:     ex.arena.clone(),
		cols:      make([][]effectCell, len(ex.cols)),
		lists:     ex.lists.clone(),
		hasFinish: ex.hasFinish,
	}
	out.setScratch(components)
	for i, col := range ex.cols {
		out.cols[i] = append(make([]effectCell, 0, len(col)+64), col...)
	}
	return out
}

// apply delivers message mi of m to state id and returns the effect cell,
// interning the target and the lists.
func (ex *exploration) apply(m Model, messages []string, id, mi int) (effectCell, error) {
	v := ex.arena.vec(id)
	ex.eff = ex.scratch
	eff := &ex.eff
	copy(eff.Target, v)
	if !m.Apply(v, mi, eff) {
		return effectCell{target: cellNone}, nil
	}
	cell := effectCell{
		target:      cellFinish,
		actions:     ex.lists.intern(eff.Actions),
		annotations: ex.lists.intern(eff.Annotations),
	}
	if eff.Finished {
		ex.hasFinish = true
		return cell, nil
	}
	if err := eff.Target.validate(ex.components); err != nil {
		return cell, fmt.Errorf("core: %s on %s: %w", messages[mi], v.Name(ex.components), err)
	}
	cell.target = int32(ex.arena.intern(eff.Target))
	return cell, nil
}

// expandState computes and records the effect of every message on state id.
// It must be called with id == len(cols[*]), i.e. states are expanded in id
// order.
func (ex *exploration) expandState(m Model, messages []string, id int) error {
	for mi := range messages {
		cell, err := ex.apply(m, messages, id, mi)
		if err != nil {
			return err
		}
		ex.cols[mi] = append(ex.cols[mi], cell)
	}
	return nil
}
