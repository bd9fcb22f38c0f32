package cluster

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"asagen/internal/chord"
	"asagen/internal/store"
)

// stubTransport records sends for inspection.
type stubTransport struct {
	sent []stubSend
}

type stubSend struct {
	to      string
	kind    string
	payload []byte
}

func (t *stubTransport) Send(toURL, kind string, payload []byte) {
	t.sent = append(t.sent, stubSend{to: toURL, kind: kind, payload: payload})
}

// stubClock is a manual clock whose timers never fire; tests drive the
// node's handlers directly.
type stubClock struct{ now time.Duration }

func (c *stubClock) Now() time.Duration          { return c.now }
func (c *stubClock) After(time.Duration, func()) {}

func newTestNode(t *testing.T, id string, replicas int) (*Node, *stubTransport, *stubClock) {
	t.Helper()
	tr := &stubTransport{}
	ck := &stubClock{}
	n, err := New(Config{
		ID: id, URL: "http://" + id, Replicas: replicas, Seed: 7,
		Transport: tr, Clock: ck, Log: NewLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	return n, tr, ck
}

// inject merges a membership view into the node as if gossiped.
func inject(t *testing.T, n *Node, from Member, members ...Member) {
	t.Helper()
	payload, err := json.Marshal(view{From: from, Members: members})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Handle(KindGossipAck, payload, from.URL); err != nil {
		t.Fatal(err)
	}
}

func alive(id string) Member {
	return Member{ID: id, URL: "http://" + id, Incarnation: 1, Status: StatusAlive}
}

func TestRouteAgreesWithIndependentPlacement(t *testing.T) {
	ids := []string{"node-a", "node-b", "node-c", "node-d"}
	nodes := make(map[string]*Node, len(ids))
	for _, id := range ids {
		n, _, _ := newTestNode(t, id, 1)
		var others []Member
		for _, other := range ids {
			if other != id {
				others = append(others, alive(other))
			}
		}
		inject(t, n, others[0], others...)
		nodes[id] = n
	}

	// Independent placement: sort the ring positions by hand and find
	// each key's successor by linear scan.
	ring := make([]ringPos, len(ids))
	for i, id := range ids {
		ring[i] = ringPos{hash: uint64(chord.HashString(id)), id: id}
	}
	sort.Slice(ring, func(i, j int) bool { return ring[i].hash < ring[j].hash })
	ownerOf := func(key string) (string, string) {
		h := uint64(chord.HashString(key))
		for _, p := range ring {
			if p.hash >= h {
				return p.id, nextID(ring, p.id)
			}
		}
		return ring[0].id, nextID(ring, ring[0].id)
	}

	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("fingerprint-%02d", i)
		owner, successor := ownerOf(key)
		for id, n := range nodes {
			d := n.Route(key)
			if d.OwnerID != owner {
				t.Fatalf("node %s routes %q to %s, independent placement says %s", id, key, d.OwnerID, owner)
			}
			want := RelRemote
			switch id {
			case owner:
				want = RelOwner
			case successor:
				want = RelReplica // replicas=1: only the immediate successor
			}
			if d.Relation != want {
				t.Fatalf("node %s relation for %q = %v, want %v", id, key, d.Relation, want)
			}
		}
	}
}

type ringPos struct {
	hash uint64
	id   string
}

func nextID(ring []ringPos, id string) string {
	for i, p := range ring {
		if p.id == id {
			return ring[(i+1)%len(ring)].id
		}
	}
	return ""
}

func TestRouteStandaloneOwnsEverything(t *testing.T) {
	n, _, _ := newTestNode(t, "solo", 2)
	d := n.Route("any-key")
	if d.Relation != RelOwner || d.OwnerID != "solo" {
		t.Fatalf("standalone Route = %+v", d)
	}
}

// TestNewTrimsTrailingSlashes: an advertised URL or a peer written with a
// trailing slash is the same base address without it, so every path
// appended to it is well-formed and a peer naming this node is no seed.
func TestNewTrimsTrailingSlashes(t *testing.T) {
	tr := &stubTransport{}
	n, err := New(Config{
		ID: "node-a", URL: "http://node-a/", Peers: []string{"http://node-a/", "http://node-b/"},
		Transport: tr, Clock: &stubClock{}, Log: NewLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	if got := n.Status().URL; got != "http://node-a" {
		t.Fatalf("advertised URL = %q, want http://node-a", got)
	}
	if len(tr.sent) != 1 || tr.sent[0].to != "http://node-b" {
		t.Fatalf("start-up sends = %+v, want one to http://node-b", tr.sent)
	}
	if d := n.Route("any-key"); d.OwnerURL != "http://node-a" {
		t.Fatalf("Route owner URL = %q, want http://node-a", d.OwnerURL)
	}
}

func TestRefutationOutlivesRumour(t *testing.T) {
	n, _, _ := newTestNode(t, "node-a", 1)
	inject(t, n, alive("node-b"), alive("node-b"),
		Member{ID: "node-a", URL: "http://node-a", Incarnation: 1, Status: StatusDead})
	rep := n.Status()
	var self Member
	for _, m := range rep.Members {
		if m.ID == "node-a" {
			self = m
		}
	}
	if self.Status != StatusAlive || self.Incarnation != 2 {
		t.Fatalf("self after dead rumour = %+v, want alive at incarnation 2", self)
	}
	if rep.Stats.Refutations != 1 {
		t.Fatalf("refutations = %d, want 1", rep.Stats.Refutations)
	}
}

func TestGracefulLeaveSupersedesAlive(t *testing.T) {
	n, tr, _ := newTestNode(t, "node-a", 1)
	inject(t, n, alive("node-b"), alive("node-b"))
	tr.sent = nil
	n.Stop()
	if len(tr.sent) != 1 || tr.sent[0].kind != KindGossipAck {
		t.Fatalf("leave broadcast = %+v", tr.sent)
	}
	var v view
	if err := json.Unmarshal(tr.sent[0].payload, &v); err != nil {
		t.Fatal(err)
	}
	if v.From.Status != StatusLeft || v.From.Incarnation != 2 {
		t.Fatalf("leave self entry = %+v", v.From)
	}
	if !v.From.supersedes(Member{ID: "node-a", Incarnation: 1, Status: StatusAlive}) {
		t.Fatal("leave entry does not supersede the alive entry peers hold")
	}
}

// ownedKey returns a key the node owns in its current view.
func ownedKey(n *Node) string {
	for i := 0; ; i++ {
		if k := fmt.Sprintf("key-%d", i); n.Route(k).Relation == RelOwner {
			return k
		}
	}
}

func TestPropagateCoversSuccessorsViaTree(t *testing.T) {
	n, tr, _ := newTestNode(t, "node-a", 3)
	others := []Member{alive("node-b"), alive("node-c"), alive("node-d"), alive("node-e")}
	inject(t, n, others[0], others...)

	key := ownedKey(n)
	blob := Blob{Sum: "00", Media: "text/plain", Ext: ".txt", Data: []byte("x")}
	n.MaybePropagate(key, blob)

	// The owner sends at most two tree roots; the roots' Forward lists
	// must cover exactly the 3 successors, each once.
	if len(tr.sent) == 0 || len(tr.sent) > 2 {
		t.Fatalf("owner sent %d messages, want 1..2 tree roots", len(tr.sent))
	}
	covered := map[string]int{}
	for _, s := range tr.sent {
		if s.kind != KindPropagate {
			t.Fatalf("unexpected send kind %s", s.kind)
		}
		var p propagation
		if err := json.Unmarshal(s.payload, &p); err != nil {
			t.Fatal(err)
		}
		covered[s.to]++
		for _, f := range p.Forward {
			covered[f.URL]++
		}
	}
	if len(covered) != 3 {
		t.Fatalf("tree covers %d targets, want 3: %v", len(covered), covered)
	}
	for url, times := range covered {
		if times != 1 {
			t.Fatalf("target %s covered %d times", url, times)
		}
		if url == "http://node-a" {
			t.Fatal("owner propagated to itself")
		}
	}

	// Second serve of the same key in the same membership epoch is
	// deduplicated; a ring change re-opens it.
	tr.sent = nil
	n.MaybePropagate(key, blob)
	if len(tr.sent) != 0 {
		t.Fatalf("re-propagated within one epoch: %d sends", len(tr.sent))
	}
	inject(t, n, alive("node-f"), alive("node-f"))
	n.MaybePropagate(key, blob)
	if len(tr.sent) == 0 {
		t.Fatal("ring change did not re-open propagation")
	}
}

// TestPropagateDedupsPerFormat: the formats of one family member share a
// routing key, but each is its own artefact and propagates on its own.
func TestPropagateDedupsPerFormat(t *testing.T) {
	n, tr, _ := newTestNode(t, "node-a", 1)
	inject(t, n, alive("node-b"), alive("node-b"))
	key := ownedKey(n)
	for _, format := range []string{"text", "dot", "text"} {
		n.MaybePropagate(key, Blob{Key: store.Key{Format: format}, Sum: "00", Data: []byte(format)})
	}
	if len(tr.sent) != 2 {
		t.Fatalf("sent %d propagations for text, dot, text; want one per format", len(tr.sent))
	}
}

// TestPropagatedStaysBounded: on a stable ring, a stream of distinct owned
// artefacts cannot grow the propagation dedup past its cap.
func TestPropagatedStaysBounded(t *testing.T) {
	n, _, _ := newTestNode(t, "solo", 1)
	for i := 0; i < 10000; i++ {
		n.MaybePropagate(fmt.Sprintf("key-%d", i), Blob{Key: store.Key{Format: "text"}})
	}
	if got := len(n.propagated); got > maxPropagated {
		t.Fatalf("the propagation dedup holds %d artefacts, cap %d", got, maxPropagated)
	}
}

func TestReceivePropagationIngestsAndForwards(t *testing.T) {
	tr := &stubTransport{}
	var got []Blob
	n, err := New(Config{
		ID: "node-b", URL: "http://node-b", Replicas: 2, Transport: tr, Clock: &stubClock{},
		Ingest: func(b Blob) error { got = append(got, b); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	p := propagation{
		Key:  "k",
		Blob: Blob{Sum: "ab", Data: []byte("y")},
		Forward: []Member{
			{ID: "node-c", URL: "http://node-c"},
			{ID: "node-d", URL: "http://node-d"},
		},
	}
	payload, _ := json.Marshal(p)
	if _, err := n.Handle(KindPropagate, payload, "http://node-a"); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || string(got[0].Data) != "y" {
		t.Fatalf("ingest = %+v", got)
	}
	if len(tr.sent) != 2 {
		t.Fatalf("forwarded %d, want 2 subtree children", len(tr.sent))
	}
}

func TestOracleTracksLifecycleWithoutViolations(t *testing.T) {
	o, err := NewOracle(2)
	if err != nil {
		t.Fatal(err)
	}
	recorded := o.Join()
	recorded = append(recorded, o.Observe(1, true)...)
	recorded = append(recorded, o.Observe(2, true)...)
	recorded = append(recorded, o.Observe(0, false)...)
	recorded = append(recorded, o.Observe(2, true)...)
	recorded = append(recorded, o.Leave()...)
	if rep := o.Report(); len(recorded) != 0 || len(rep.Violations) != 0 {
		t.Fatalf("violations = %v, report %+v", recorded, rep)
	}
	if o.Report().Deliveries == 0 {
		t.Fatal("no deliveries recorded")
	}
}

func TestOracleFlagsForbiddenTransition(t *testing.T) {
	o, err := NewOracle(1)
	if err != nil {
		t.Fatal(err)
	}
	o.Join()
	// Joining twice is forbidden by the model; Join returns what it
	// recorded, for the node to log.
	if v := o.Join(); len(v) != 1 || !reflect.DeepEqual(v, o.Report().Violations) {
		t.Fatalf("second join recorded %v, report %v; want exactly the double join", v, o.Report().Violations)
	}
}

// TestOracleKeepsRecentViolations: the count of violations is exact for the
// oracle's whole life; only the last maxViolations keep their text. The
// node's status report carries all three.
func TestOracleKeepsRecentViolations(t *testing.T) {
	n, _, _ := newTestNode(t, "node-a", 1)
	inject(t, n, alive("node-b"), alive("node-b")) // STABILIZE, NOTIFY
	const rejected = 100
	for i := 0; i < rejected; i++ {
		n.oracle.deliver(chord.EvJoin, nil)
	}
	const v = "JOIN rejected in T/1/T: runtime: message JOIN not applicable in state T/1/T"
	want := OracleReport{
		State:          "T/1/T",
		Deliveries:     103,
		ViolationCount: rejected,
		Violations:     []string{v, v, v, v, v, v, v, v, v, v, v, v, v, v, v, v},
	}
	if got := n.Status().Oracle; !reflect.DeepEqual(got, want) {
		t.Fatalf("oracle report = %+v\nwant %+v", got, want)
	}
}
