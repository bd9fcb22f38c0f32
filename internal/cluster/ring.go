package cluster

import (
	"sort"

	"asagen/internal/chord"
)

// ring is the consistent-hash routing table: the participating members'
// ID hashes in circle order. It is rebuilt on every membership change and
// immutable between rebuilds, so lookups are a single binary search with
// no allocation — the serve hot path pays one hash and one search per
// request.
type ring struct {
	// hashes are the members' ring positions, ascending.
	hashes []uint64
	// ids and urls are the members at the matching hashes index.
	ids  []string
	urls []string
}

// hashKey maps a routing key to the identifier circle, sharing the seed
// Ring's hash so the cluster and the in-memory overlay agree on
// placement.
func hashKey(key string) uint64 { return uint64(chord.HashString(key)) }

// buildRing constructs the ring over the given members. Members are
// placed at chord.HashString(ID), matching the seed Ring's placement, and
// sorted into circle order.
func buildRing(members []Member) ring {
	r := ring{
		hashes: make([]uint64, len(members)),
		ids:    make([]string, len(members)),
		urls:   make([]string, len(members)),
	}
	idx := make([]int, len(members))
	for i, m := range members {
		r.hashes[i] = uint64(chord.HashString(m.ID))
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return r.hashes[idx[a]] < r.hashes[idx[b]] })
	hashes := make([]uint64, len(members))
	for out, in := range idx {
		hashes[out] = r.hashes[in]
		r.ids[out] = members[in].ID
		r.urls[out] = members[in].URL
	}
	r.hashes = hashes
	return r
}

// ownerIndex returns the index of the key's successor: the first member
// at or clockwise of the key's position. An empty ring returns -1.
func (r *ring) ownerIndex(key uint64) int {
	n := len(r.hashes)
	if n == 0 {
		return -1
	}
	i := sort.Search(n, func(j int) bool { return r.hashes[j] >= key })
	if i == n {
		i = 0 // wrap past the highest position to the circle's start
	}
	return i
}

// at returns the member ID and URL at index i modulo the ring size.
func (r *ring) at(i int) (id, url string) {
	i %= len(r.ids)
	return r.ids[i], r.urls[i]
}

// size returns the number of ring positions.
func (r *ring) size() int { return len(r.ids) }
