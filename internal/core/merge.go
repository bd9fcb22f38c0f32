package core

import (
	"encoding/binary"
	"sort"
)

// mergeEquivalent combines sets of equivalent states (§3.4 step 4): states
// are equivalent when the outgoing transitions from each perform the same
// actions and lead to the same destination state. Because combining two
// states can make their predecessors newly equivalent, the relation is
// computed by partition refinement to a fixpoint (Moore-style DFA
// minimisation).
//
// The refinement works on a flattened integer view of the machine —
// transition targets as state indices and action lists interned to small
// ids — so each round builds compact byte signatures in a reused buffer
// instead of per-state strings; only distinct signatures (bounded by the
// final class count) are ever copied into the lookup map.
func mergeEquivalent(machine *StateMachine) {
	states := machine.States
	n := len(states)
	if n == 0 {
		return
	}

	msgs := machine.Messages
	nm := len(msgs)

	pos := make(map[*State]int, n)
	for i, s := range states {
		pos[s] = i
	}

	// Flatten the transition structure once: targetOf[i*nm+j] is the state
	// index message j leads to from state i (-1 when not applicable), and
	// actIDOf[i*nm+j] the interned id of the transition's action list.
	targetOf := make([]int32, n*nm)
	actIDOf := make([]int32, n*nm)
	actIDs := make(map[string]int32, 8)
	var buf []byte
	for i, s := range states {
		base := i * nm
		for j, msg := range msgs {
			t, ok := s.Transitions[msg]
			if !ok {
				targetOf[base+j] = -1
				actIDOf[base+j] = -1
				continue
			}
			targetOf[base+j] = int32(pos[t.Target])
			buf = buf[:0]
			for _, a := range t.Actions {
				buf = binary.AppendUvarint(buf, uint64(len(a)))
				buf = append(buf, a...)
			}
			id, seen := actIDs[string(buf)]
			if !seen {
				id = int32(len(actIDs))
				actIDs[string(buf)] = id
			}
			actIDOf[base+j] = id
		}
	}

	// class[i] is the equivalence class of states[i]. Initially all states
	// are in one class except the finish state, which is observably
	// distinct (it terminates the machine).
	class := make([]int32, n)
	classes := 1
	if machine.Finish != nil {
		for i, s := range states {
			if s.Final {
				class[i] = 1
			}
		}
		classes = 2
	}

	next := make([]int32, n)
	sigs := newSigSet(n)
	for {
		// Refine: two states stay together only if for every message they
		// either both lack a transition, or both have one with identical
		// actions leading into the same class.
		sigs.reset()
		stable := true
		for i := 0; i < n; i++ {
			buf = binary.AppendUvarint(buf[:0], uint64(class[i]))
			base := i * nm
			for j := 0; j < nm; j++ {
				tgt := targetOf[base+j]
				if tgt < 0 {
					buf = append(buf, 0)
					continue
				}
				buf = binary.AppendUvarint(buf, uint64(actIDOf[base+j])+1)
				buf = binary.AppendUvarint(buf, uint64(class[tgt])+1)
			}
			id := sigs.intern(buf)
			next[i] = id
			if id != class[i] {
				stable = false
			}
		}
		if sigs.len() == classes && stable {
			break
		}
		class, next = next, class
		classes = sigs.len()
	}

	collapse(machine, class, classes, pos)
}

// sigSet interns byte-slice signatures to dense int32 ids without copying
// each key into a map: keys are appended to one flat buffer, looked up via
// an open-addressed table, and everything is reused across refinement
// rounds, so steady-state interning allocates nothing.
type sigSet struct {
	data  []byte
	offs  []int32 // offs[i]..offs[i+1] is key i's slice of data
	table []int32 // id+1 per occupied slot; 0 = empty
	mask  uint64
}

func newSigSet(n int) *sigSet {
	size := 64
	for size < n*2 {
		size <<= 1
	}
	return &sigSet{
		offs:  make([]int32, 1, n+1),
		table: make([]int32, size),
		mask:  uint64(size - 1),
	}
}

func (s *sigSet) len() int { return len(s.offs) - 1 }

func (s *sigSet) reset() {
	s.data = s.data[:0]
	s.offs = s.offs[:1]
	clear(s.table)
}

func (s *sigSet) key(id int32) []byte {
	return s.data[s.offs[id]:s.offs[id+1]]
}

func (s *sigSet) intern(key []byte) int32 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	for i := h & s.mask; ; i = (i + 1) & s.mask {
		e := s.table[i]
		if e == 0 {
			id := int32(s.len())
			s.data = append(s.data, key...)
			s.offs = append(s.offs, int32(len(s.data)))
			s.table[i] = id + 1
			if uint64(s.len())*2 > s.mask {
				s.grow()
			}
			return id
		}
		if string(s.key(e-1)) == string(key) {
			return e - 1
		}
	}
}

func (s *sigSet) grow() {
	size := len(s.table) * 2
	table := make([]int32, size)
	mask := uint64(size - 1)
	for id := int32(0); id < int32(s.len()); id++ {
		k := s.key(id)
		h := uint64(14695981039346656037)
		for _, b := range k {
			h ^= uint64(b)
			h *= 1099511628211
		}
		for i := h & mask; ; i = (i + 1) & mask {
			if table[i] == 0 {
				table[i] = id + 1
				break
			}
		}
	}
	s.table, s.mask = table, mask
}

// collapse rewrites the machine so each equivalence class is represented by
// a single state: the lexicographically smallest member (the start
// state wins its class outright so the entry point is stable). Transition
// targets are redirected to class representatives and merged-away names are
// recorded on the representative.
func collapse(machine *StateMachine, class []int32, classes int, pos map[*State]int) {
	states := machine.States
	if classes == len(states) {
		// Identity partition: every state is its own representative and no
		// transition needs redirecting.
		return
	}

	rep := make([]int32, classes)
	size := make([]int32, classes)
	for i := range rep {
		rep[i] = -1
	}
	for i, s := range states {
		c := class[i]
		size[c]++
		switch r := rep[c]; {
		case r < 0:
			rep[c] = int32(i)
		case s == machine.Start:
			rep[c] = int32(i)
		case states[r] == machine.Start:
			// keep current
		case !s.Final && s.Vector.Compare(states[r].Vector) < 0:
			rep[c] = int32(i)
		}
	}

	// Gather merged-away names per class; singleton classes keep their
	// existing single-entry MergedNames untouched.
	var classNames [][]string
	for i, s := range states {
		c := class[i]
		if size[c] == 1 {
			continue
		}
		if classNames == nil {
			classNames = make([][]string, classes)
		}
		classNames[c] = append(classNames[c], s.MergedNames...)
	}

	kept := make([]*State, 0, classes)
	for i, s := range states {
		c := class[i]
		if rep[c] != int32(i) {
			continue
		}
		if size[c] > 1 {
			names := classNames[c]
			sort.Strings(names)
			s.MergedNames = names
		}
		kept = append(kept, s)
	}

	for _, s := range kept {
		for _, t := range s.Transitions {
			t.Target = states[rep[class[pos[t.Target]]]]
		}
	}

	machine.States = kept
	machine.Start = states[rep[class[pos[machine.Start]]]]
	if machine.Finish != nil {
		machine.Finish = states[rep[class[pos[machine.Finish]]]]
	}
}
