package core

import "context"

// flatMachine is an exploration in the integer form step 4 works on. Its
// states are positions: the explored ids in ascending order, then the
// finish state when it is reachable. Each state has one row of nm cells,
// one per message in the model's order.
type flatMachine struct {
	n, nm int
	// target[i*nm+j] is the position message j leads to from state i, -1
	// when the message is not applicable there.
	target []int32
	// action[i*nm+j] is the id of that transition's action list in the
	// exploration's listTable (equal ids, equal lists), 0 where there is
	// no transition.
	action []int32
	// finish is the finish state's position, -1 when it is unreachable.
	finish int32
}

// flatten lays the explored states out as a flatMachine: reach lists the
// ids to include in ascending order (nil selects every id), and reach must
// be closed under the exploration's targets. Action ids are laid out only
// when actions is set; otherwise action is nil. The second result maps an
// arena id to its position, nil when the two coincide.
func flatten(ex *exploration, reach []int32, finishReachable, actions bool) (*flatMachine, []int32) {
	n := ex.arena.n
	var posOf []int32
	if reach != nil {
		n = len(reach)
		posOf = make([]int32, ex.arena.n)
		for k, id := range reach {
			posOf[id] = int32(k)
		}
	}
	f := &flatMachine{n: n, nm: len(ex.cols), finish: -1}
	if finishReachable {
		f.finish = int32(n)
		f.n++
	}
	nm := f.nm
	f.target = make([]int32, f.n*nm)
	if actions {
		f.action = make([]int32, f.n*nm)
	}
	for k := 0; k < n; k++ {
		id := k
		if reach != nil {
			id = int(reach[k])
		}
		row := k * nm
		for j, col := range ex.cols {
			cell := &col[id]
			switch tgt := cell.target; {
			case tgt == cellNone:
				f.target[row+j] = -1
				continue
			case tgt == cellFinish:
				f.target[row+j] = f.finish
			case posOf != nil:
				f.target[row+j] = posOf[tgt]
			default:
				f.target[row+j] = tgt
			}
			if actions {
				f.action[row+j] = cell.actions
			}
		}
	}
	if f.finish >= 0 {
		for j := int(f.finish) * nm; j < f.n*nm; j++ {
			f.target[j] = -1
		}
	}
	return f, posOf
}

// identity is the partition WithoutMerging asks for: every state its own
// class.
func (f *flatMachine) identity() []int32 {
	class := make([]int32, f.n)
	for i := range class {
		class[i] = int32(i)
	}
	return class
}

// refineWork is how many signature cells a refinement signs between two
// looks at its context.
const refineWork = 1 << 14

// refine computes the paper's step 4 partition (§3.4: combine equivalent
// states): two states are equivalent when, for every message, both lack a
// transition or both perform the same actions and lead to equivalent
// states; the finish state is equivalent to no other state. It returns
// each state's class and the number of classes.
//
// This is Moore's refinement, from the partition {finish} and the rest to
// its fixpoint, with a worklist. Round r re-signs only the states one of
// whose targets changed class in round r−1, found through a reverse-edge
// index. Within a class the states not re-signed still share one
// signature, so they stay together and keep the class id; the re-signed
// states whose signature differs split off. The largest part keeps the id,
// so a state changes class at most log₂ n times, and no round does work
// beyond the states it re-signs and the edges into the states it moves: a
// chain, n rounds of one state each, costs linear time.
//
// ctx is observed between rounds, after about refineWork cells of work.
func refine(ctx context.Context, f *flatMachine) ([]int32, int, error) {
	r := newRefinement(f)
	if err := r.run(ctx); err != nil {
		return nil, 0, err
	}
	return r.class, len(r.classes), nil
}

func newRefinement(f *flatMachine) *refinement {
	return &refinement{
		f:       f,
		class:   make([]int32, f.n),
		elems:   make([]int32, f.n),
		loc:     make([]int32, f.n),
		next:    make([]int32, f.n),
		classes: make([]classRange, 0, f.n),
		// Sized for a round that moves a quarter of the states, so that
		// the first rounds do not grow them a step at a time.
		groups:  make([]group, 0, f.n/4+8),
		touched: make([]int32, 0, f.n/4+8),
		changed: make([]int32, 0, f.n/4+8),
		parts:   make([]span, 0, 8),
	}
}

// run refines r's machine from the initial partition to the fixpoint.
func (r *refinement) run(ctx context.Context) error {
	f := r.f
	n, nm := f.n, f.nm

	// The reverse-edge index: the predecessors of state t are
	// preds[predFirst[t]:predFirst[t+1]].
	predFirst := make([]int32, n+1)
	for _, t := range f.target {
		if t >= 0 {
			predFirst[t+1]++
		}
	}
	for t := 0; t < n; t++ {
		predFirst[t+1] += predFirst[t]
	}
	preds := make([]int32, predFirst[n])
	fill := append([]int32(nil), predFirst[:n]...)
	for i := 0; i < n; i++ {
		for _, t := range f.target[i*nm : (i+1)*nm] {
			if t >= 0 {
				preds[fill[t]] = int32(i)
				fill[t]++
			}
		}
	}

	// The initial partition: class 0 is every state but the finish state,
	// class 1 the finish state alone.
	k := 0
	for i := 0; i < n; i++ {
		if int32(i) != f.finish {
			r.elems[k], r.loc[i] = int32(i), int32(k)
			k++
		}
	}
	r.addClass(0, int32(k))
	if f.finish >= 0 {
		r.elems[k], r.loc[f.finish] = f.finish, int32(k)
		r.class[f.finish] = 1
		r.addClass(int32(k), int32(n))
	}

	// The first round signs every state.
	dirty := append([]int32(nil), r.elems...)
	queued := fill // the last round a state was queued after
	clear(queued)
	work := 0
	for round := int32(1); len(dirty) > 0; round++ {
		if work += len(dirty) * (nm + 1); work >= refineWork {
			if err := ctx.Err(); err != nil {
				return err
			}
			work = 0
		}
		r.signed += len(dirty)
		changed := r.split(dirty, round)
		dirty = dirty[:0]
		for _, s := range changed {
			for _, p := range preds[predFirst[s]:predFirst[s+1]] {
				if queued[p] != round {
					queued[p] = round
					dirty = append(dirty, p)
				}
			}
		}
		work += len(changed)
	}
	return nil
}

// refinement is the state of refine. The classes are contiguous ranges of
// elems, and loc is the inverse of elems.
type refinement struct {
	f       *flatMachine
	class   []int32
	elems   []int32
	loc     []int32
	classes []classRange
	// signed counts the signatures computed over all rounds.
	signed int

	// Groups of re-signed states with one signature within one class.
	// Members are linked through next.
	groups []group
	next   []int32
	// table maps a signature to its group+1, open-addressed; a round uses
	// the prefix its size needs and clears only that.
	table []int32

	// Reused by every round: the classes it touched, the parts of the
	// class being split and the states it moved to another class.
	touched []int32
	parts   []span
	changed []int32
}

// span is a range of elems.
type span struct{ first, end int32 }

// classRange is one class: its members are elems[first:end]. The other
// fields are valid in the round stamp only: the class's last mark members
// are the states that round re-signs, head is its first group and clean
// the group of its members not re-signed (-1 for none).
type classRange struct {
	first, end, mark int32
	stamp            int32
	head, clean      int32
}

// group is one signature among the states a round re-signs in one class.
type group struct {
	state  int32 // the member signatures are compared with
	hash   uint64
	first  int32 // first member, -1 for none
	nextIn int32 // the class's next group, -1 for none
}

func (r *refinement) addClass(first, end int32) int32 {
	r.classes = append(r.classes, classRange{first: first, end: end})
	return int32(len(r.classes) - 1)
}

// hash mixes state i's signature: its class and, per message, the action
// id and the target's class.
func (r *refinement) hash(i int32) uint64 {
	nm := r.f.nm
	h := uint64(r.class[i])*0x9E3779B97F4A7C15 + 1
	row := int(i) * nm
	for j, t := range r.f.target[row : row+nm] {
		x := uint64(uint32(r.f.action[row+j]))
		if t >= 0 {
			x |= uint64(uint32(r.class[t])) << 32
		} else {
			x |= uint64(0xFFFFFFFF) << 32
		}
		h ^= x
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 29
	}
	return h
}

// same reports whether states i and j have equal signatures.
func (r *refinement) same(i, j int32) bool {
	if r.class[i] != r.class[j] {
		return false
	}
	nm := r.f.nm
	ri, rj := int(i)*nm, int(j)*nm
	for m := 0; m < nm; m++ {
		if r.f.action[ri+m] != r.f.action[rj+m] {
			return false
		}
		ti, tj := r.f.target[ri+m], r.f.target[rj+m]
		if (ti < 0) != (tj < 0) || ti >= 0 && r.class[ti] != r.class[tj] {
			return false
		}
	}
	return true
}

// find returns the group of state i's signature, adding an empty one when
// create is set; -1 when it is absent and create is not.
func (r *refinement) find(i int32, create bool) int32 {
	h := r.hash(i)
	mask := uint64(len(r.table) - 1)
	for p := h & mask; ; p = (p + 1) & mask {
		e := r.table[p]
		if e == 0 {
			if !create {
				return -1
			}
			g := int32(len(r.groups))
			r.groups = append(r.groups, group{state: i, hash: h, first: -1, nextIn: -1})
			r.table[p] = g + 1
			return g
		}
		if g := &r.groups[e-1]; g.hash == h && r.same(g.state, i) {
			return e - 1
		}
	}
}

// split runs one round over the dirty states, which must be distinct, and
// returns the states whose class changed. Signatures are all read before
// any class changes, so the round sees one partition.
func (r *refinement) split(dirty []int32, round int32) []int32 {
	// A table at most a quarter full.
	size := 64
	for size < 4*len(dirty) {
		size <<= 1
	}
	if size > cap(r.table) {
		r.table = make([]int32, size)
	} else {
		r.table = r.table[:size]
		clear(r.table)
	}
	r.groups = r.groups[:0]

	r.touched = r.touched[:0]
	for _, i := range dirty {
		c := r.class[i]
		cr := &r.classes[c]
		if cr.stamp != round {
			*cr = classRange{first: cr.first, end: cr.end, stamp: round, head: -1, clean: -1}
			r.touched = append(r.touched, c)
		}
		// Gather i at the end of its class's range.
		cr.mark++
		p, q := cr.end-cr.mark, r.loc[i]
		j := r.elems[p]
		r.elems[p], r.elems[q] = i, j
		r.loc[i], r.loc[j] = p, q

		g := r.find(i, true)
		gr := &r.groups[g]
		if gr.first < 0 {
			gr.nextIn, cr.head = cr.head, g
		}
		r.next[i], gr.first = gr.first, i
	}
	// The states of a class not re-signed share one signature: look it up
	// through any one of them.
	for _, c := range r.touched {
		if cr := &r.classes[c]; cr.first < cr.end-cr.mark {
			cr.clean = r.find(r.elems[cr.first], false)
		}
	}

	r.changed = r.changed[:0]
	for _, c := range r.touched {
		r.splitClass(c)
	}
	return r.changed
}

// splitClass splits class c into its parts after a round: the states not
// re-signed together with the re-signed ones that kept their signature,
// then one part per other signature. The largest part keeps the id c; the
// states of every other part get a new class and are recorded as changed.
func (r *refinement) splitClass(c int32) {
	cr := r.classes[c]
	// The clean states are elems[cr.first:pos]. Lay the re-signed states
	// out after them, the clean signature's first, each group contiguous.
	pos := cr.end - cr.mark
	place := func(g int32) {
		for i := r.groups[g].first; i >= 0; i = r.next[i] {
			r.elems[pos], r.loc[i] = i, pos
			pos++
		}
	}
	r.parts = r.parts[:0]
	if cr.clean >= 0 {
		place(cr.clean)
	}
	if pos > cr.first {
		r.parts = append(r.parts, span{cr.first, pos})
	}
	for g := cr.head; g >= 0; g = r.groups[g].nextIn {
		if g != cr.clean {
			from := pos
			place(g)
			r.parts = append(r.parts, span{from, pos})
		}
	}
	if len(r.parts) == 1 {
		return
	}

	keep := 0
	for p, pt := range r.parts {
		if pt.end-pt.first > r.parts[keep].end-r.parts[keep].first {
			keep = p
		}
	}
	for p, pt := range r.parts {
		if p == keep {
			r.classes[c].first, r.classes[c].end = pt.first, pt.end
			continue
		}
		nc := r.addClass(pt.first, pt.end)
		for _, i := range r.elems[pt.first:pt.end] {
			r.class[i] = nc
			r.changed = append(r.changed, i)
		}
	}
}
