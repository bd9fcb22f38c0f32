package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"testing"
)

// mooreClasses is the reference for refine: Moore's refinement as the
// generator ran it on materialised machines, every state re-signed in
// every round until the class count stops growing. It reads the
// exploration's cells itself, and interns their action lists by content
// rather than trusting the cells' list ids, in refine's
// positions: the ids of reach (nil: every id) in ascending order, then the
// finish state when it is reachable.
func mooreClasses(ex *exploration, reach []int32, finishReachable bool) []int32 {
	if reach == nil {
		reach = make([]int32, ex.arena.n)
		for id := range reach {
			reach[id] = int32(id)
		}
	}
	posOf := make(map[int32]int, len(reach))
	for k, id := range reach {
		posOf[id] = k
	}
	n, nm := len(reach), len(ex.cols)
	finish := -1
	if finishReachable {
		finish = n
		n++
	}

	// targetOf[i*nm+j] is the position message j leads to from state i (-1
	// when not applicable), and actIDOf[i*nm+j] the interned id of the
	// transition's action list.
	targetOf := make([]int32, n*nm)
	actIDOf := make([]int32, n*nm)
	for i := range targetOf {
		targetOf[i], actIDOf[i] = -1, -1
	}
	actIDs := make(map[string]int32)
	var buf []byte
	for k, id := range reach {
		for j := range ex.cols {
			cell := ex.cols[j][id]
			switch cell.target {
			case cellNone:
				continue
			case cellFinish:
				targetOf[k*nm+j] = int32(finish)
			default:
				targetOf[k*nm+j] = int32(posOf[cell.target])
			}
			buf = buf[:0]
			for _, a := range ex.lists.at(cell.actions) {
				buf = binary.AppendUvarint(buf, uint64(len(a)))
				buf = append(buf, a...)
			}
			aid, seen := actIDs[string(buf)]
			if !seen {
				aid = int32(len(actIDs))
				actIDs[string(buf)] = aid
			}
			actIDOf[k*nm+j] = aid
		}
	}

	// Initially all states are in one class except the finish state, which
	// is observably distinct (it terminates the machine).
	class := make([]int32, n)
	classes := 1
	if finish >= 0 {
		class[finish] = 1
		classes = 2
	}
	next := make([]int32, n)
	sigs := make(map[string]int32, n)
	for {
		// Two states stay together only if for every message they either
		// both lack a transition, or both have one with identical actions
		// leading into the same class.
		clear(sigs)
		for i := 0; i < n; i++ {
			buf = binary.AppendUvarint(buf[:0], uint64(class[i]))
			for j := 0; j < nm; j++ {
				tgt := targetOf[i*nm+j]
				if tgt < 0 {
					buf = append(buf, 0)
					continue
				}
				buf = binary.AppendUvarint(buf, uint64(actIDOf[i*nm+j])+1)
				buf = binary.AppendUvarint(buf, uint64(class[tgt])+1)
			}
			id, seen := sigs[string(buf)]
			if !seen {
				id = int32(len(sigs))
				sigs[string(buf)] = id
			}
			next[i] = id
		}
		class, next = next, class
		if len(sigs) == classes {
			return class
		}
		classes = len(sigs)
	}
}

// canonical renumbers a partition by first occurrence, so two partitions
// into the same sets of states compare equal.
func canonical(class []int32) []int32 {
	ids := make(map[int32]int32)
	out := make([]int32, len(class))
	for i, c := range class {
		id, ok := ids[c]
		if !ok {
			id = int32(len(ids))
			ids[c] = id
		}
		out[i] = id
	}
	return out
}

// refinementsAgree runs refine and mooreClasses over one exploration and
// reports the first state they place differently.
func refinementsAgree(ex *exploration, reach []int32, finishReachable bool) error {
	f, _ := flatten(ex, reach, finishReachable, true)
	got, classes, err := refine(context.Background(), f)
	if err != nil {
		return err
	}
	want := canonical(mooreClasses(ex, reach, finishReachable))
	got = canonical(got)
	if len(got) != len(want) {
		return fmt.Errorf("refine placed %d states, Moore %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("state %d: refine puts it in class %d, Moore in class %d", i, got[i], want[i])
		}
	}
	used := 0
	for _, c := range want {
		used = max(used, int(c)+1)
	}
	if classes != used {
		return fmt.Errorf("refine reports %d classes, Moore finds %d", classes, used)
	}
	return nil
}

// fuzzActions are the action lists a fuzzed exploration draws from; the
// last two concatenate to the same bytes.
var fuzzActions = [][]string{nil, {"a", "b"}, {"ab"}}

// fuzzExploration builds an exploration from data: at most 64 states and
// 4 messages, each cell a target (not applicable, the finish state or a
// state) and one of fuzzActions.
func fuzzExploration(data []byte) *exploration {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	n, nm, na := 1+at(0)%64, 1+at(1)%4, 1+at(2)%len(fuzzActions)
	ex := newExploration([]StateComponent{NewIntComponent("id", 63)}, nm, n)
	for id := 0; id < n; id++ {
		ex.arena.intern(Vector{id})
	}
	cellAt := 3
	for id := 0; id < n; id++ {
		for j := 0; j < nm; j++ {
			t, a := at(cellAt)%(n+2), at(cellAt+1)%na
			cellAt += 2
			cell := effectCell{target: cellNone}
			switch t {
			case 0:
			case 1:
				cell = effectCell{target: cellFinish, actions: ex.lists.intern(fuzzActions[a])}
				ex.hasFinish = true
			default:
				cell = effectCell{target: int32(t - 2), actions: ex.lists.intern(fuzzActions[a])}
			}
			ex.cols[j] = append(ex.cols[j], cell)
		}
	}
	return ex
}

// FuzzRefineAgreesWithMoore: on any exploration, the worklist refinement
// and Moore's place the states in the same classes, over every explored
// id (Generate, GenerateEnumerated) and over the ids reachable from id 0
// (Regenerate).
func FuzzRefineAgreesWithMoore(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 1, 2, 3, 0, 4, 1, 5, 0, 6, 2, 7, 1, 8, 0, 1, 1})
	f.Add([]byte{63, 3, 2, 5, 1, 9, 2, 1, 0, 1, 1, 3, 2, 4, 0, 2, 1})
	chain := []byte{31, 0, 2}
	for id := 0; id < 32; id++ {
		chain = append(chain, byte(id+3), byte(id%2))
	}
	f.Add(chain)
	f.Fuzz(func(t *testing.T, data []byte) {
		ex := fuzzExploration(data)
		if err := refinementsAgree(ex, nil, ex.hasFinish); err != nil {
			t.Fatalf("every id: %v", err)
		}
		reach, finish := reachableFrom(ex, 0)
		if err := refinementsAgree(ex, reach, finish); err != nil {
			t.Fatalf("reachable ids: %v", err)
		}
	})
}
