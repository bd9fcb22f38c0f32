package cluster

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"
	"time"

	"asagen/internal/artifact"
	"asagen/internal/models"
	"asagen/internal/simnet"
	"asagen/internal/store"
)

// The acceptance scenario for the cluster tier: three nodes join over
// simnet under seeded gossip, requests shard by fingerprint with every
// request landing on the owner or a current replica, a crash and a
// graceful leave churn the ring with zero routing-oracle violations, and
// the same seed replays to a byte-identical cluster event log.

const (
	simHeartbeat = 100 * time.Millisecond
	simSuspect   = 300 * time.Millisecond
	simDead      = 600 * time.Millisecond
)

// simEnv is one running scenario: a simnet, its cluster nodes and the
// per-node artifact pipelines backed by on-disk stores.
type simEnv struct {
	t       *testing.T
	net     *simnet.Network
	log     *Log
	nodes   map[string]*Node
	pipes   map[string]*artifact.Pipeline
	stores  map[string]*store.Store
	crashed map[string]bool
	ref     *artifact.Pipeline // single-node reference for expected bytes
}

func newSimEnv(t *testing.T, seed int64) *simEnv {
	t.Helper()
	return &simEnv{
		t:       t,
		net:     simnet.New(seed),
		log:     NewLog(),
		nodes:   map[string]*Node{},
		pipes:   map[string]*artifact.Pipeline{},
		stores:  map[string]*store.Store{},
		crashed: map[string]bool{},
		ref:     artifact.New(artifact.WithRegistry(models.Default().Clone())),
	}
}

// addNode builds a node whose URL doubles as its simnet ID, with a
// store-backed pipeline and replica ingest wired to that store.
func (e *simEnv) addNode(id string, peers ...string) {
	e.t.Helper()
	st, err := store.Open(filepath.Join(e.t.TempDir(), id))
	if err != nil {
		e.t.Fatal(err)
	}
	e.t.Cleanup(func() { st.Close() })
	p := artifact.New(artifact.WithRegistry(models.Default().Clone()), artifact.WithStore(st))
	n, err := New(Config{
		ID: id, URL: id, Replicas: 1, Seed: 1,
		Heartbeat: simHeartbeat, SuspectAfter: simSuspect, DeadAfter: simDead,
		Peers:     peers,
		Transport: SimTransport{Net: e.net, Self: simnet.NodeID(id)},
		Clock:     SimClock{Net: e.net},
		Log:       e.log,
		Ingest: func(b Blob) error {
			return st.Ingest(b.Key, b.Data, b.Sum, b.Media, b.Ext)
		},
	})
	if err != nil {
		e.t.Fatal(err)
	}
	if err := BindSimnet(e.net, n); err != nil {
		e.t.Fatal(err)
	}
	e.nodes[id], e.pipes[id], e.stores[id] = n, p, st
}

// crash fail-stops a node: every link to it is cut in both directions,
// so in-flight and future messages drop and peers must detect the
// silence through the failure detector.
func (e *simEnv) crash(id string) {
	e.crashed[id] = true
	for other := range e.nodes {
		if other != id {
			e.net.Partition(simnet.NodeID(id), simnet.NodeID(other))
		}
	}
}

func blobOf(res artifact.Result) Blob {
	skey := store.Key{
		Model:  res.Request.Model,
		Param:  res.Request.Param,
		Format: res.Request.Format,
	}
	if !res.Fingerprint.IsZero() {
		skey.Fingerprint = res.Fingerprint.String()
	}
	return Blob{Key: skey, Sum: res.ContentHash(), Media: res.Artifact.MediaType,
		Ext: res.Artifact.Ext, Data: res.Artifact.Data}
}

// serve emulates the api layer's clustered artifact path from one node:
// the owner renders and seeds replicas, a warm replica serves its store
// copy, everyone else forwards one hop to the owner.
func (e *simEnv) serve(from string, req artifact.Request) artifact.Result {
	e.t.Helper()
	p := e.pipes[from]
	key, resolved, err := p.RouteKey(req)
	if err != nil {
		e.t.Fatalf("%s: route key for %+v: %v", from, req, err)
	}
	d := e.nodes[from].Route(key)
	switch d.Relation {
	case RelOwner:
		res := p.Render(context.Background(), resolved)
		if res.Err != nil {
			e.t.Fatalf("%s: render %+v: %v", from, req, res.Err)
		}
		e.nodes[from].MaybePropagate(key, blobOf(res))
		return res
	case RelReplica:
		if res, ok := p.Probe(resolved); ok {
			return res
		}
	}
	// Cold replica or remote: one proxy hop to the owner in this node's
	// view. A request must never be forwarded to a crashed node — the
	// requester's ring is stale if it still routes there.
	owner := d.OwnerID
	if e.crashed[owner] {
		e.t.Fatalf("%s routed key %s to crashed node %s", from, key, owner)
	}
	op := e.pipes[owner]
	okey, oresolved, err := op.RouteKey(req)
	if err != nil {
		e.t.Fatalf("%s: route key for %+v: %v", owner, req, err)
	}
	if od := e.nodes[owner].Route(okey); od.Relation == RelRemote {
		e.t.Errorf("request for %s forwarded to %s, which is neither owner nor replica in its own view", key, owner)
	}
	res := op.Render(context.Background(), oresolved)
	if res.Err != nil {
		e.t.Fatalf("%s: render %+v: %v", owner, req, res.Err)
	}
	e.nodes[owner].MaybePropagate(okey, blobOf(res))
	return res
}

// wave serves every request from every given node and checks the bytes
// and validators match the single-node reference pipeline exactly.
func (e *simEnv) wave(froms []string, reqs []artifact.Request) {
	e.t.Helper()
	for _, req := range reqs {
		ref := e.ref.Render(context.Background(), req)
		if ref.Err != nil {
			e.t.Fatalf("reference render %+v: %v", req, ref.Err)
		}
		for _, from := range froms {
			res := e.serve(from, req)
			if !bytes.Equal(res.Artifact.Data, ref.Artifact.Data) {
				e.t.Fatalf("bytes served via %s for %+v diverge from reference", from, req)
			}
			if res.ETag != ref.ETag {
				e.t.Fatalf("ETag via %s = %s, reference %s: same fingerprint must validate identically", from, res.ETag, ref.ETag)
			}
		}
	}
}

// checkReplicaWarmth asserts that, propagation having drained, every
// live node that considers itself a replica of a request's key holds
// the exact artefact bytes in its local store.
func (e *simEnv) checkReplicaWarmth(live []string, reqs []artifact.Request) {
	e.t.Helper()
	for _, req := range reqs {
		ref := e.ref.Render(context.Background(), req)
		skey := blobOf(ref).Key
		key, _, err := e.pipes[live[0]].RouteKey(req)
		if err != nil {
			e.t.Fatal(err)
		}
		for _, id := range live {
			if e.nodes[id].Route(key).Relation != RelReplica {
				continue
			}
			data, sum, _, _, ok := e.stores[id].Get(skey)
			if !ok {
				e.t.Fatalf("replica %s has no copy of %v after propagation drained", id, skey)
			}
			if sum != ref.Sum || !bytes.Equal(data, ref.Artifact.Data) {
				e.t.Fatalf("replica %s holds divergent bytes for %v", id, skey)
			}
		}
	}
}

func (e *simEnv) checkRingSize(id string, want int) {
	e.t.Helper()
	rep := e.nodes[id].Status()
	if len(rep.Ring) != want {
		e.t.Fatalf("node %s ring = %d entries (%v), want %d at t=%v",
			id, len(rep.Ring), rep.Ring, want, e.net.Now())
	}
}

// runClusterScenario drives the full churn schedule and returns the
// cluster event log it produced.
func runClusterScenario(t *testing.T, seed int64) []byte {
	e := newSimEnv(t, seed)
	e.addNode("node-a")
	e.addNode("node-b", "node-a")
	e.addNode("node-c", "node-a")

	reqs := []artifact.Request{
		{Model: "commit", Param: 4, Format: "text"},
		{Model: "commit", Param: 5, Format: "dot"},
		{Model: "chord", Param: 2, Format: "text"},
		{Model: "termination", Param: 2, Format: "efsm"},
	}

	// Staggered joins, then a full stabilisation window.
	e.net.After(0, e.nodes["node-a"].Start)
	e.net.After(50*time.Millisecond, e.nodes["node-b"].Start)
	e.net.After(120*time.Millisecond, e.nodes["node-c"].Start)
	e.net.RunUntilTime(1 * time.Second)
	for _, id := range []string{"node-a", "node-b", "node-c"} {
		e.checkRingSize(id, 3)
	}

	// Wave 1: all requests from all three nodes, then drain replica
	// propagation and verify warmth.
	e.wave([]string{"node-a", "node-b", "node-c"}, reqs)
	e.net.RunUntilTime(1500 * time.Millisecond)
	e.checkReplicaWarmth([]string{"node-a", "node-b", "node-c"}, reqs)

	// Crash node-c. The survivors must detect the silence, evict it and
	// shrink the ring to two — and requests must keep resolving.
	e.crash("node-c")
	e.net.RunUntilTime(3 * time.Second)
	e.checkRingSize("node-a", 2)
	e.checkRingSize("node-b", 2)
	e.wave([]string{"node-a", "node-b"}, reqs)

	// A fresh node joins the depleted ring.
	e.addNode("node-d", "node-a")
	e.net.After(3200*time.Millisecond-e.net.Now(), e.nodes["node-d"].Start)
	e.net.RunUntilTime(4 * time.Second)
	for _, id := range []string{"node-a", "node-b", "node-d"} {
		e.checkRingSize(id, 3)
	}
	e.wave([]string{"node-a", "node-b", "node-d"}, reqs)
	e.net.RunUntilTime(4500 * time.Millisecond)
	e.checkReplicaWarmth([]string{"node-a", "node-b", "node-d"}, reqs)

	// Graceful leave: node-b announces departure, so the ring heals
	// immediately without a suspicion round.
	e.nodes["node-b"].Stop()
	e.net.RunUntilTime(5 * time.Second)
	e.checkRingSize("node-a", 2)
	e.checkRingSize("node-d", 2)
	e.wave([]string{"node-a", "node-d"}, reqs)
	e.net.RunUntilTime(5500 * time.Millisecond)

	// No node — including the crashed and the departed — may have driven
	// the chord routing oracle through a forbidden transition.
	for id, n := range e.nodes {
		if o := n.Status().Oracle; o.ViolationCount != 0 {
			t.Errorf("node %s oracle violations: %d, recent %v", id, o.ViolationCount, o.Violations)
		}
	}
	return e.log.Bytes()
}

func TestClusterChurnScenario(t *testing.T) {
	log := runClusterScenario(t, 42)
	if len(log) == 0 {
		t.Fatal("scenario produced an empty event log")
	}
	if t.Failed() {
		t.Logf("event log:\n%s", log)
	}
}

func TestClusterScenarioDeterministic(t *testing.T) {
	first := runClusterScenario(t, 42)
	second := runClusterScenario(t, 42)
	if !bytes.Equal(first, second) {
		a, b := bytes.Split(first, []byte("\n")), bytes.Split(second, []byte("\n"))
		for i := 0; i < len(a) && i < len(b); i++ {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("event logs diverge at line %d:\n  run1: %s\n  run2: %s", i+1, a[i], b[i])
			}
		}
		t.Fatalf("event logs diverge in length: %d vs %d lines", len(a), len(b))
	}
	if other := runClusterScenario(t, 7); bytes.Equal(first, other) {
		t.Fatal("different seeds produced identical histories — the schedule is not actually seeded")
	}
}
