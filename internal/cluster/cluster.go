// Package cluster is the distributed serve tier: a set of long-running
// fsmgen serve processes that form a fingerprint-sharded artifact ring.
// Nodes discover each other through a seeded gossip membership protocol
// (periodic heartbeats, anti-entropy view merges, suspicion timeouts),
// route artifact requests by consistent hashing of machine fingerprints
// onto the live member ring, and push newly rendered artifacts to the
// next s successors over a broadcast tree so replicas answer warm.
//
// The subsystem dogfoods the reproduction itself: every membership change
// is judged by a trace.Judge over the registry's generated
// chord-membership machine, which acts as the routing oracle — a delivery
// the machine rejects is a protocol violation, surfaced on /v1/cluster
// and gated to zero in CI.
//
// All protocol behaviour is driven through the Transport and Clock
// interfaces, so the same Node runs over HTTP in production and over
// simnet virtual time in the deterministic multi-node integration tests:
// one seed reproduces one byte-identical cluster event log.
package cluster

import (
	"time"

	"asagen/internal/store"
)

// Message kinds exchanged between nodes. Over HTTP they map to the
// /v1/cluster/* routes; over simnet they are the Message.Type values.
const (
	// KindGossip is a membership view push that warrants an ack carrying
	// the receiver's view (push-pull anti-entropy).
	KindGossip = "gossip"
	// KindGossipAck is a membership view merged without reply.
	KindGossipAck = "gossip-ack"
	// KindPropagate is an artifact replication push along the broadcast
	// tree.
	KindPropagate = "propagate"
)

// Status is a member's lifecycle state in the gossip view.
type Status string

// Member lifecycle states, in increasing precedence: at equal
// incarnation, the higher-precedence status wins a view merge.
const (
	StatusAlive   Status = "alive"
	StatusSuspect Status = "suspect"
	StatusDead    Status = "dead"
	StatusLeft    Status = "left"
)

// rank orders statuses for merge precedence.
func (s Status) rank() int {
	switch s {
	case StatusAlive:
		return 0
	case StatusSuspect:
		return 1
	case StatusDead:
		return 2
	case StatusLeft:
		return 3
	}
	return -1
}

// participating reports whether a member in this status holds a ring
// position. Suspect members still serve — suspicion is a hint, not a
// verdict — while dead and departed members are excluded.
func (s Status) participating() bool { return s == StatusAlive || s == StatusSuspect }

// Member is one node's entry in the gossiped membership view.
type Member struct {
	// ID is the node's stable name; its hash is the ring position.
	ID string `json:"id"`
	// URL is the node's base address, the target for transport sends.
	URL string `json:"url"`
	// Incarnation is the member's self-asserted epoch: only the member
	// itself increments it, to refute suspicion or rejoin after being
	// declared dead.
	Incarnation uint64 `json:"incarnation"`
	// Status is the lifecycle state asserted by this view entry.
	Status Status `json:"status"`
}

// supersedes reports whether view entry m should replace cur in a merge.
func (m Member) supersedes(cur Member) bool {
	if m.Incarnation != cur.Incarnation {
		return m.Incarnation > cur.Incarnation
	}
	return m.Status.rank() > cur.Status.rank()
}

// Blob is one rendered artifact pushed to replicas: the store key, the
// content sum the bytes must verify against, and the bytes themselves.
type Blob struct {
	Key   store.Key `json:"key"`
	Sum   string    `json:"sum"`
	Media string    `json:"media"`
	Ext   string    `json:"ext"`
	Data  []byte    `json:"data"`
}

// Transport delivers protocol payloads to peer nodes by base URL. Sends
// are fire-and-forget: loss is tolerated by the next gossip round.
type Transport interface {
	Send(toURL, kind string, payload []byte)
}

// Clock abstracts time so the protocol runs identically on the wall
// clock and on simnet virtual time.
type Clock interface {
	// Now returns the elapsed time on this clock's epoch.
	Now() time.Duration
	// After schedules fn once, d from now.
	After(d time.Duration, fn func())
}

// Relation classifies this node's responsibility for a routing key.
type Relation uint8

// Routing relations.
const (
	// RelRemote: another node owns the key and this node holds no
	// replica; the request is proxied.
	RelRemote Relation = iota
	// RelOwner: this node is the key's successor on the ring.
	RelOwner
	// RelReplica: this node is one of the owner's next s successors.
	RelReplica
)

// String names the relation for headers and logs.
func (r Relation) String() string {
	switch r {
	case RelOwner:
		return "owner"
	case RelReplica:
		return "replica"
	}
	return "remote"
}

// Decision is the outcome of routing one key against the current ring.
type Decision struct {
	// OwnerID and OwnerURL identify the key's owning node.
	OwnerID  string
	OwnerURL string
	// Relation is this node's own responsibility for the key.
	Relation Relation
}
