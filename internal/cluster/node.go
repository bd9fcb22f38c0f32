package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"asagen/internal/chord"
)

// Config parameterises one cluster node.
type Config struct {
	// ID is the node's stable name; its hash is its ring position.
	ID string
	// URL is the node's advertised base address.
	URL string
	// Replicas is the successor-list length s: each artifact lives on
	// its owner plus the next s ring successors.
	Replicas int
	// Seed drives gossip target selection; combined with the node ID so
	// one scenario seed yields distinct, reproducible per-node streams.
	Seed int64
	// Heartbeat is the gossip round interval.
	Heartbeat time.Duration
	// SuspectAfter is the silence span after which a member is suspected.
	SuspectAfter time.Duration
	// DeadAfter is the silence span after which a suspect is declared
	// dead and evicted from the ring.
	DeadAfter time.Duration
	// Fanout is the number of gossip targets per round.
	Fanout int
	// Peers are seed base URLs contacted until their nodes appear in
	// the membership view.
	Peers []string
	// Transport delivers protocol payloads; Clock schedules rounds.
	Transport Transport
	Clock     Clock
	// Log receives the node's cluster events; nil discards them.
	Log *Log
	// Ingest persists a replica blob pushed by the key's owner; nil
	// leaves replicas cold (they proxy instead of serving warm).
	Ingest func(Blob) error
}

// Stats counts a node's protocol activity.
type Stats struct {
	GossipSent           int64 `json:"gossip_sent"`
	GossipReceived       int64 `json:"gossip_received"`
	PropagationsSent     int64 `json:"propagations_sent"`
	PropagationsReceived int64 `json:"propagations_received"`
	IngestErrors         int64 `json:"ingest_errors"`
	RingRebuilds         int64 `json:"ring_rebuilds"`
	Refutations          int64 `json:"refutations"`
}

// memberState is a Member plus node-local failure-detector state.
type memberState struct {
	Member
	// lastHeard is the protocol time of the last direct or merged
	// evidence of liveness.
	lastHeard time.Duration
}

// Node is one cluster member: the gossiped membership view, the
// consistent-hash ring derived from it, and the chord routing oracle
// that validates every view change.
type Node struct {
	cfg Config

	mu         sync.Mutex
	members    map[string]*memberState
	seeds      map[string]bool // peer URLs not yet resolved to members
	ring       ring
	rng        *rand.Rand
	oracle     *Oracle
	propagated map[artefactID]bool
	started    bool
	stopped    bool
	stats      Stats
}

// view is the gossip payload: the sender's self entry plus its full
// membership view, sorted by ID.
type view struct {
	From    Member   `json:"from"`
	Members []Member `json:"members"`
}

// propagation is the replication payload: the blob plus the subtree of
// replicas the receiver forwards it to.
type propagation struct {
	Key     string   `json:"key"`
	Blob    Blob     `json:"blob"`
	Forward []Member `json:"forward,omitempty"`
}

// New validates cfg, generates the routing oracle and returns a node
// whose view contains only itself. Call Start to join the peer set.
func New(cfg Config) (*Node, error) {
	if cfg.ID == "" || cfg.URL == "" {
		return nil, errors.New("cluster: node needs an ID and a URL")
	}
	if cfg.Transport == nil || cfg.Clock == nil {
		return nil, errors.New("cluster: node needs a transport and a clock")
	}
	if cfg.Replicas < 1 {
		cfg.Replicas = 1
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 500 * time.Millisecond
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 4 * cfg.Heartbeat
	}
	if cfg.DeadAfter <= cfg.SuspectAfter {
		cfg.DeadAfter = 3 * cfg.SuspectAfter
	}
	if cfg.Fanout < 1 {
		cfg.Fanout = 3
	}
	oracle, err := NewOracle(cfg.Replicas)
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg:        cfg,
		members:    make(map[string]*memberState),
		seeds:      make(map[string]bool),
		rng:        rand.New(rand.NewSource(cfg.Seed ^ int64(chord.HashString(cfg.ID)))),
		oracle:     oracle,
		propagated: make(map[artefactID]bool),
	}
	n.members[cfg.ID] = &memberState{Member: Member{ID: cfg.ID, URL: cfg.URL, Incarnation: 1, Status: StatusAlive}}
	for _, p := range cfg.Peers {
		if p != "" && p != cfg.URL {
			n.seeds[p] = true
		}
	}
	return n, nil
}

// ID returns the node's name.
func (n *Node) ID() string { return n.cfg.ID }

// Start joins the overlay: the oracle bootstraps, the seed peers get an
// immediate view push, and the heartbeat loop is armed.
func (n *Node) Start() {
	n.mu.Lock()
	if n.started {
		n.mu.Unlock()
		return
	}
	n.started = true
	now := n.cfg.Clock.Now()
	violations := n.oracle.Join()
	n.record(now, "join", fmt.Sprintf("url=%s replicas=%d", n.cfg.URL, n.cfg.Replicas))
	n.recordViolations(now, violations)
	n.rebuildLocked(now)
	payload := n.snapshotPayloadLocked()
	targets := sortedKeys(n.seeds)
	n.stats.GossipSent += int64(len(targets))
	n.mu.Unlock()

	for _, url := range targets {
		n.cfg.Transport.Send(url, KindGossip, payload)
	}
	n.cfg.Clock.After(n.cfg.Heartbeat, n.heartbeat)
}

// Stop departs gracefully: the oracle leaves, the view marks this node
// left at a fresh incarnation, and the final view is pushed to every
// live member so the ring heals without a suspicion round.
func (n *Node) Stop() {
	n.mu.Lock()
	if !n.started || n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	now := n.cfg.Clock.Now()
	self := n.members[n.cfg.ID]
	self.Incarnation++
	self.Status = StatusLeft
	violations := n.oracle.Leave()
	n.record(now, "leave", fmt.Sprintf("incarnation=%d", self.Incarnation))
	n.recordViolations(now, violations)
	payload := n.snapshotPayloadLocked()
	var targets []string
	for _, id := range sortedMemberIDs(n.members) {
		m := n.members[id]
		if id != n.cfg.ID && m.Status.participating() {
			targets = append(targets, m.URL)
		}
	}
	n.stats.GossipSent += int64(len(targets))
	n.mu.Unlock()

	for _, url := range targets {
		n.cfg.Transport.Send(url, KindGossipAck, payload)
	}
}

// Handle processes one protocol payload. For KindGossip the returned
// bytes are the ack view the caller transports back to fromURL;
// other kinds return nil.
func (n *Node) Handle(kind string, payload []byte, fromURL string) ([]byte, error) {
	switch kind {
	case KindGossip, KindGossipAck:
		var v view
		if err := json.Unmarshal(payload, &v); err != nil {
			return nil, fmt.Errorf("cluster: bad gossip payload: %w", err)
		}
		if v.From.ID == "" {
			return nil, errors.New("cluster: gossip without sender identity")
		}
		n.mu.Lock()
		defer n.mu.Unlock()
		if n.stopped {
			return nil, nil
		}
		n.stats.GossipReceived++
		n.mergeViewLocked(v)
		if kind == KindGossip {
			n.stats.GossipSent++
			return n.snapshotPayloadLocked(), nil
		}
		return nil, nil
	case KindPropagate:
		var p propagation
		if err := json.Unmarshal(payload, &p); err != nil {
			return nil, fmt.Errorf("cluster: bad propagation payload: %w", err)
		}
		n.receivePropagation(p)
		return nil, nil
	default:
		return nil, fmt.Errorf("cluster: unknown message kind %q", kind)
	}
}

// mergeViewLocked folds a received view into the membership map,
// rebuilding the ring if participation changed.
func (n *Node) mergeViewLocked(v view) {
	now := n.cfg.Clock.Now()
	changed := false
	for _, rm := range v.Members {
		if n.mergeMemberLocked(rm, now) {
			changed = true
		}
	}
	// The sender's self entry is direct liveness evidence, stronger than
	// the merged hearsay: a suspect heard from directly is alive again.
	if n.mergeMemberLocked(v.From, now) {
		changed = true
	}
	if s, ok := n.members[v.From.ID]; ok && v.From.ID != n.cfg.ID {
		s.lastHeard = now
		if s.Status == StatusSuspect {
			s.Status = StatusAlive
			n.record(now, "member", fmt.Sprintf("id=%s status=%s incarnation=%d", s.ID, s.Status, s.Incarnation))
			changed = true
		}
	}
	if changed {
		n.rebuildLocked(now)
	}
}

// mergeMemberLocked applies one view entry; it reports whether ring
// participation may have changed.
func (n *Node) mergeMemberLocked(rm Member, now time.Duration) bool {
	if rm.ID == "" {
		return false
	}
	if rm.ID == n.cfg.ID {
		self := n.members[n.cfg.ID]
		// Refute rumours of our own demise: re-assert liveness at an
		// incarnation above the rumour's so the refutation wins merges.
		if rm.Status != StatusAlive && !n.stopped && rm.Incarnation >= self.Incarnation {
			self.Incarnation = rm.Incarnation + 1
			self.Status = StatusAlive
			n.stats.Refutations++
			n.record(now, "refute", fmt.Sprintf("status=%s incarnation=%d", rm.Status, self.Incarnation))
		} else if rm.Status == StatusAlive && rm.Incarnation > self.Incarnation {
			self.Incarnation = rm.Incarnation
		}
		return false
	}
	cur, ok := n.members[rm.ID]
	if !ok {
		n.members[rm.ID] = &memberState{Member: rm, lastHeard: now}
		delete(n.seeds, rm.URL)
		n.record(now, "member", fmt.Sprintf("id=%s status=%s incarnation=%d", rm.ID, rm.Status, rm.Incarnation))
		return rm.Status.participating()
	}
	if !rm.supersedes(cur.Member) {
		return false
	}
	before := cur.Status.participating()
	cur.Member = rm
	cur.lastHeard = now
	delete(n.seeds, rm.URL)
	n.record(now, "member", fmt.Sprintf("id=%s status=%s incarnation=%d", rm.ID, rm.Status, rm.Incarnation))
	return before != rm.Status.participating()
}

// heartbeat is one gossip round: sweep the failure detector, then push
// the view to a seeded selection of peers. It re-arms itself until the
// node stops.
func (n *Node) heartbeat() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	now := n.cfg.Clock.Now()
	n.sweepLocked(now)
	payload := n.snapshotPayloadLocked()
	targets := n.gossipTargetsLocked()
	n.stats.GossipSent += int64(len(targets))
	n.mu.Unlock()

	for _, url := range targets {
		n.cfg.Transport.Send(url, KindGossip, payload)
	}
	n.cfg.Clock.After(n.cfg.Heartbeat, n.heartbeat)
}

// sweepLocked advances the failure detector: silent members become
// suspect, silent suspects become dead and leave the ring.
func (n *Node) sweepLocked(now time.Duration) {
	changed := false
	for _, id := range sortedMemberIDs(n.members) {
		m := n.members[id]
		if id == n.cfg.ID || !m.Status.participating() {
			continue
		}
		silent := now - m.lastHeard
		switch {
		case m.Status == StatusAlive && silent > n.cfg.SuspectAfter:
			m.Status = StatusSuspect
			n.record(now, "member", fmt.Sprintf("id=%s status=%s incarnation=%d", m.ID, m.Status, m.Incarnation))
		case m.Status == StatusSuspect && silent > n.cfg.DeadAfter:
			m.Status = StatusDead
			n.record(now, "member", fmt.Sprintf("id=%s status=%s incarnation=%d", m.ID, m.Status, m.Incarnation))
			changed = true
		}
	}
	if changed {
		n.rebuildLocked(now)
	}
}

// gossipTargetsLocked picks this round's peers: a seeded sample of the
// participating members plus any seed URLs not yet resolved, so a node
// keeps knocking until its configured peers come up.
func (n *Node) gossipTargetsLocked() []string {
	var candidates []string
	for _, id := range sortedMemberIDs(n.members) {
		m := n.members[id]
		if id != n.cfg.ID && m.Status.participating() {
			candidates = append(candidates, m.URL)
		}
	}
	candidates = append(candidates, sortedKeys(n.seeds)...)
	if len(candidates) <= n.cfg.Fanout {
		return candidates
	}
	picked := make([]string, 0, n.cfg.Fanout)
	for _, i := range n.rng.Perm(len(candidates))[:n.cfg.Fanout] {
		picked = append(picked, candidates[i])
	}
	return picked
}

// rebuildLocked recomputes the ring from the participating members and
// reconciles the routing oracle with the new successor view.
func (n *Node) rebuildLocked(now time.Duration) {
	var parts []Member
	for _, id := range sortedMemberIDs(n.members) {
		if m := n.members[id]; m.Status.participating() {
			parts = append(parts, m.Member)
		}
	}
	n.ring = buildRing(parts)
	n.stats.RingRebuilds++
	// A membership epoch invalidates the propagation dedup: the next
	// serve of each artefact re-pushes it to its key's current successors.
	clear(n.propagated)
	n.record(now, "ring", fmt.Sprintf("size=%d members=%s", n.ring.size(), strings.Join(n.ring.ids, ",")))

	size := n.ring.size()
	succ := size - 1
	if succ > n.cfg.Replicas {
		succ = n.cfg.Replicas
	}
	if succ < 0 {
		succ = 0
	}
	violations := n.oracle.Observe(succ, size >= 2)
	n.record(now, "oracle", fmt.Sprintf("state=%s successors=%d predecessor=%t", n.oracle.judge.State().Name, succ, size >= 2))
	n.recordViolations(now, violations)
}

// Route classifies this node's responsibility for a routing key against
// the current ring: owner, replica, or remote (proxy to the owner).
func (n *Node) Route(key string) Decision {
	h := hashKey(key)
	n.mu.Lock()
	defer n.mu.Unlock()
	i := n.ring.ownerIndex(h)
	if i < 0 {
		return Decision{OwnerID: n.cfg.ID, OwnerURL: n.cfg.URL, Relation: RelOwner}
	}
	id, url := n.ring.at(i)
	d := Decision{OwnerID: id, OwnerURL: url}
	if id == n.cfg.ID {
		d.Relation = RelOwner
		return d
	}
	size := n.ring.size()
	for j := 1; j <= n.cfg.Replicas && j < size; j++ {
		if rid, _ := n.ring.at(i + j); rid == n.cfg.ID {
			d.Relation = RelReplica
			return d
		}
	}
	d.Relation = RelRemote
	return d
}

// snapshotPayloadLocked marshals the current view for gossip.
func (n *Node) snapshotPayloadLocked() []byte {
	v := view{From: n.members[n.cfg.ID].Member}
	for _, id := range sortedMemberIDs(n.members) {
		v.Members = append(v.Members, n.members[id].Member)
	}
	payload, err := json.Marshal(v)
	if err != nil {
		// The view is plain data; marshalling cannot fail.
		panic(fmt.Sprintf("cluster: marshal view: %v", err))
	}
	return payload
}

// record appends one event to the configured log.
func (n *Node) record(now time.Duration, kind, detail string) {
	n.cfg.Log.Record(now, n.cfg.ID, kind, detail)
}

// recordViolations logs the routing oracle's violations, one event each.
func (n *Node) recordViolations(now time.Duration, violations []string) {
	for _, v := range violations {
		n.record(now, "violation", v)
	}
}

func sortedMemberIDs(m map[string]*memberState) []string {
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
