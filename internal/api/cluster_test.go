package api

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"asagen/internal/artifact"
	"asagen/internal/cluster"
	"asagen/internal/models"
	"asagen/internal/store"
)

func TestClusterStatusStandalone(t *testing.T) {
	ts := httptest.NewServer(NewHandler(artifact.New()))
	defer ts.Close()
	resp, body := get(t, ts, "/v1/cluster", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/cluster = %s", resp.Status)
	}
	var rep struct {
		Enabled bool `json:"enabled"`
	}
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Enabled {
		t.Fatal("standalone server reports enabled cluster")
	}
	// The cluster-internal routes refuse to exist without -cluster.
	presp, err := http.Post(ts.URL+"/v1/cluster/gossip", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer presp.Body.Close()
	if presp.StatusCode != http.StatusNotFound {
		t.Fatalf("standalone gossip route = %s, want 404 not_clustered", presp.Status)
	}
}

// startClusterNode boots one clustered handler on an httptest server:
// the server is created first (its URL is the node identity), then the
// cluster node is attached to the already-serving handler.
func startClusterNode(t *testing.T, id string, peer func() string) (*httptest.Server, *cluster.Node) {
	t.Helper()
	st, err := store.Open(filepath.Join(t.TempDir(), id))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	p := artifact.New(artifact.WithRegistry(models.Default().Clone()), artifact.WithStore(st))

	var h *Handler
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	var peers []string
	if peer != nil {
		peers = append(peers, peer())
	}
	transport := cluster.NewHTTPTransport(nil)
	n, err := cluster.New(cluster.Config{
		ID: id, URL: ts.URL, Replicas: 1, Seed: 1,
		Heartbeat: 50 * time.Millisecond,
		Peers:     peers,
		Transport: transport,
		Clock:     cluster.NewRealClock(),
		Log:       cluster.NewBoundedLog(256),
		Ingest: func(b cluster.Blob) error {
			return st.Ingest(b.Key, b.Data, b.Sum, b.Media, b.Ext)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	transport.Bind(n)
	h = NewHandler(p, WithCluster(n))
	n.Start()
	t.Cleanup(n.Stop)
	return ts, n
}

func TestClusterTwoNodeEndToEnd(t *testing.T) {
	tsA, nodeA := startClusterNode(t, "node-a", nil)
	tsB, nodeB := startClusterNode(t, "node-b", func() string { return tsA.URL })

	waitFor(t, 5*time.Second, "membership convergence", func() bool {
		return len(nodeA.Status().Ring) == 2 && len(nodeB.Status().Ring) == 2
	})

	const path = "/v1/models/commit/artifacts/text?r=4"
	respA, bodyA := get(t, tsA, path, nil)
	respB, bodyB := get(t, tsB, path, nil)
	for _, resp := range []*http.Response{respA, respB} {
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("clustered artifact GET = %s", resp.Status)
		}
	}
	if bodyA != bodyB {
		t.Fatal("the two nodes served divergent bytes for one fingerprint")
	}
	if ea, eb := respA.Header.Get("ETag"), respB.Header.Get("ETag"); ea == "" || ea != eb {
		t.Fatalf("ETags diverge across nodes: %q vs %q", ea, eb)
	}

	// Exactly one node is the key's owner; its response says so, and the
	// producing node header on both responses names that same owner.
	routeA, routeB := respA.Header.Get(HeaderRoute), respB.Header.Get(HeaderRoute)
	var ownerID string
	var replicaServer *httptest.Server
	var replicaNode *cluster.Node
	switch {
	case routeA == "owner" && routeB != "owner":
		ownerID, replicaServer, replicaNode = "node-a", tsB, nodeB
	case routeB == "owner" && routeA != "owner":
		ownerID, replicaServer, replicaNode = "node-b", tsA, nodeA
	default:
		t.Fatalf("want exactly one owner, got routes %q and %q", routeA, routeB)
	}
	// The producing-node header names whichever pipeline rendered or held
	// the bytes: the owner on owner and proxied responses, the serving
	// node itself on a warm replica hit.
	for resp, self := range map[*http.Response]string{respA: "node-a", respB: "node-b"} {
		want := ownerID
		if resp.Header.Get(HeaderRoute) == "replica" {
			want = self
		}
		if got := resp.Header.Get(HeaderNode); got != want {
			t.Fatalf("producing node = %q, want %q (route %q)",
				got, want, resp.Header.Get(HeaderRoute))
		}
	}

	// The owner pushes the artefact to its successor; the other node
	// must eventually serve it warm from its own store — locally, not
	// proxied.
	waitFor(t, 5*time.Second, "replica warmth", func() bool {
		resp, body := get(t, replicaServer, path, nil)
		return resp.StatusCode == http.StatusOK &&
			resp.Header.Get(HeaderRoute) == "replica" &&
			resp.Header.Get(HeaderNode) == replicaNode.ID() &&
			body == bodyA
	})

	// Clean bill of health from the routing oracle on both nodes.
	for _, n := range []*cluster.Node{nodeA, nodeB} {
		if o := n.Status().Oracle; o.ViolationCount != 0 {
			t.Fatalf("node %s oracle violations: %d, recent %v", n.ID(), o.ViolationCount, o.Violations)
		}
	}
	resp, body := get(t, tsA, "/v1/cluster", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/cluster = %s", resp.Status)
	}
	var rep cluster.Report
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Enabled || rep.Oracle.ViolationCount != 0 || len(rep.Members) != 2 {
		t.Fatalf("cluster report = enabled=%t violations=%d members=%d",
			rep.Enabled, rep.Oracle.ViolationCount, len(rep.Members))
	}
}

// TestClusterPropagatesEveryFormat: all formats of one family member shard
// on one routing key, yet each is its own artefact, so each reaches the
// owner's replica, not only the first one rendered.
func TestClusterPropagatesEveryFormat(t *testing.T) {
	tsA, nodeA := startClusterNode(t, "node-a", nil)
	tsB, nodeB := startClusterNode(t, "node-b", func() string { return tsA.URL })
	waitFor(t, 5*time.Second, "membership convergence", func() bool {
		return len(nodeA.Status().Ring) == 2 && len(nodeB.Status().Ring) == 2
	})

	const base = "/v1/models/commit/artifacts/"
	replica := tsB
	if resp, _ := get(t, tsA, base+"text?r=4", nil); resp.Header.Get(HeaderRoute) != "owner" {
		replica = tsA
	}
	for _, format := range []string{"text", "dot"} {
		path := base + format + "?r=4"
		if resp, _ := get(t, tsA, path, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %s", path, resp.Status)
		}
		waitFor(t, 5*time.Second, format+" on the replica", func() bool {
			resp, _ := get(t, replica, path, nil)
			return resp.StatusCode == http.StatusOK && resp.Header.Get(HeaderRoute) == "replica"
		})
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
