package cluster

import (
	"encoding/json"
	"fmt"
	"strings"
)

// maxPropagated bounds the propagation dedup. Past it the set starts
// over: pushing an artefact again is harmless, since a replica's store
// only touches the row of content it already holds.
const maxPropagated = 4096

// artefactID names one artefact for the propagation dedup: a routing key
// carries every format of a family member, and each format is its own
// blob, its own store row and its own propagation.
type artefactID struct{ key, format string }

// MaybePropagate pushes a freshly rendered artifact to the key's next s
// ring successors over a binary broadcast tree, once per artefact (key and
// format) per membership epoch. Only the key's owner propagates: a node
// that rendered under a divergent view would otherwise seed the wrong
// successor set.
func (n *Node) MaybePropagate(key string, b Blob) {
	art := artefactID{key, b.Key.Format}
	n.mu.Lock()
	if n.stopped || n.propagated[art] {
		n.mu.Unlock()
		return
	}
	h := hashKey(key)
	i := n.ring.ownerIndex(h)
	if i < 0 {
		n.mu.Unlock()
		return
	}
	if id, _ := n.ring.at(i); id != n.cfg.ID {
		n.mu.Unlock()
		return
	}
	var targets []Member
	size := n.ring.size()
	for j := 1; j <= n.cfg.Replicas && j < size; j++ {
		id, url := n.ring.at(i + j)
		if id == n.cfg.ID {
			break // wrapped all the way around a small ring
		}
		targets = append(targets, Member{ID: id, URL: url})
	}
	if len(n.propagated) >= maxPropagated {
		clear(n.propagated)
	}
	n.propagated[art] = true
	if len(targets) == 0 {
		n.mu.Unlock()
		return
	}
	n.stats.PropagationsSent++
	ids := make([]string, len(targets))
	for j, t := range targets {
		ids[j] = t.ID
	}
	n.record(n.cfg.Clock.Now(), "propagate", fmt.Sprintf("key=%s format=%s targets=%s", key, art.format, strings.Join(ids, ",")))
	n.mu.Unlock()

	n.forward(targets, propagation{Key: key, Blob: b})
}

// receivePropagation ingests a pushed replica and forwards it down this
// node's subtree of the broadcast tree.
func (n *Node) receivePropagation(p propagation) {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stats.PropagationsReceived++
	now := n.cfg.Clock.Now()
	if n.cfg.Ingest == nil {
		n.record(now, "ingest", fmt.Sprintf("key=%s skipped=no-store", p.Key))
	} else if err := n.cfg.Ingest(p.Blob); err != nil {
		n.stats.IngestErrors++
		n.record(now, "ingest-error", fmt.Sprintf("key=%s err=%v", p.Key, err))
	} else {
		n.record(now, "ingest", fmt.Sprintf("key=%s sum=%s", p.Key, p.Blob.Sum))
	}
	n.mu.Unlock()

	n.forward(p.Forward, propagation{Key: p.Key, Blob: p.Blob})
}

// forward fans a propagation out to up to two children, each carrying
// half of the remaining subtree, so a push to s replicas completes in
// O(log s) sequential hops instead of s direct sends from the owner.
func (n *Node) forward(targets []Member, p propagation) {
	if len(targets) == 0 {
		return
	}
	mid := (len(targets) + 1) / 2
	groups := [][]Member{targets[:mid]}
	if mid < len(targets) {
		groups = append(groups, targets[mid:])
	}
	for _, g := range groups {
		p.Forward = g[1:]
		payload, err := json.Marshal(p)
		if err != nil {
			panic(fmt.Sprintf("cluster: marshal propagation: %v", err))
		}
		n.cfg.Transport.Send(g[0].URL, KindPropagate, payload)
	}
}
