package api

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
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
	return startClusterNodeAt(t, id, filepath.Join(t.TempDir(), id), peer)
}

// startClusterNodeAt is startClusterNode over the store directory dir.
func startClusterNodeAt(t *testing.T, id, dir string, peer func() string) (*httptest.Server, *cluster.Node) {
	t.Helper()
	st, err := store.Open(dir)
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

// TestClusterPeerWithTrailingSlash: a peer given as "http://host:port/"
// forms a ring. Appended to it untrimmed, "/v1/cluster/gossip" is a "//"
// path the mux redirects, and the redirected request arrives as a GET the
// gossip route refuses.
func TestClusterPeerWithTrailingSlash(t *testing.T) {
	tsA, nodeA := startClusterNode(t, "node-a", nil)
	_, nodeB := startClusterNode(t, "node-b", func() string { return tsA.URL + "/" })
	waitFor(t, 5*time.Second, "membership convergence", func() bool {
		return len(nodeA.Status().Ring) == 2 && len(nodeB.Status().Ring) == 2
	})
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

// TestClusterIngestStaysInTheStore: a propagated blob's key comes from a
// peer, so one whose fingerprint or format would name a path outside the
// store's key directory is refused, counted in ingest_errors, and writes
// nothing beside the store directory.
func TestClusterIngestStaysInTheStore(t *testing.T) {
	root := t.TempDir()
	ts, node := startClusterNodeAt(t, "node-a", filepath.Join(root, "store"), nil)
	data := []byte("propagated artefact")
	sum := sha256.Sum256(data)
	for _, key := range []store.Key{
		{Model: "commit", Param: 4, Format: "../../x", Fingerprint: "aabb"},
		{Model: "commit", Param: 4, Format: "text", Fingerprint: "../../x"},
	} {
		payload, err := json.Marshal(map[string]any{"key": "k", "blob": cluster.Blob{
			Key: key, Sum: hex.EncodeToString(sum[:]), Media: "text/plain", Ext: ".txt", Data: data,
		}})
		if err != nil {
			t.Fatal(err)
		}
		if resp, body := do(t, ts, http.MethodPost, "/v1/cluster/artifacts", payload); resp.StatusCode != http.StatusNoContent {
			t.Fatalf("POST /v1/cluster/artifacts = %s: %s", resp.Status, body)
		}
	}
	if got := node.Status().Stats.IngestErrors; got != 2 {
		t.Errorf("ingest_errors = %d, want 2", got)
	}
	if entries, err := os.ReadDir(root); err != nil || len(entries) != 1 {
		t.Errorf("beside the store directory: %v, %v", entries, err)
	}
	filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			t.Errorf("refused ingest left %s", path)
		}
		return nil
	})
}

// TestClusterRefusesAnOversizeBody: a gossip or propagation body one byte
// over maxClusterBytes is refused as too large, not cut at the bound and
// then reported as malformed JSON.
func TestClusterRefusesAnOversizeBody(t *testing.T) {
	_, node := startClusterNode(t, "node-a", nil)
	h := NewHandler(artifact.New(), WithCluster(node))
	body := bytes.Repeat([]byte(" "), maxClusterBytes+1)
	for _, path := range []string{"/v1/cluster/gossip", "/v1/cluster/artifacts"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("POST %s = %d, want 400", path, rec.Code)
			continue
		}
		env := envelope(t, rec.Body.String())
		if env.Code != CodeBadClusterPayload || !strings.Contains(env.Message, "too large") {
			t.Errorf("POST %s: %+v, want %s saying the body is too large", path, env, CodeBadClusterPayload)
		}
	}
}

// TestClusterTakesNoRegistryWrite: a clustered node serves no registry
// write, so a document accepted by one node can never leave another
// answering 404, or another document's bytes, for the same URL. POST, PUT
// and DELETE on either node answer 405 with the routes' GET methods in
// Allow; afterwards both nodes list the same models, neither serves the
// posted one, and both answer every commit sweep member with one ETag.
func TestClusterTakesNoRegistryWrite(t *testing.T) {
	tsA, nodeA := startClusterNode(t, "node-a", nil)
	tsB, nodeB := startClusterNode(t, "node-b", func() string { return tsA.URL })
	waitFor(t, 5*time.Second, "membership convergence", func() bool {
		return len(nodeA.Status().Ring) == 2 && len(nodeB.Status().Ring) == 2
	})

	edited := countDoc("commit")
	edited.Description = "a document under a built-in's name"
	type write struct {
		method, path string
		body         []byte
	}
	for ts, writes := range map[*httptest.Server][]write{
		tsA: {
			{http.MethodPost, "/v1/models", specJSON(t, countDoc("steps"))},
			{http.MethodPut, "/v1/models/steps", specJSON(t, countDoc("steps"))},
			{http.MethodDelete, "/v1/models/chord", nil},
		},
		tsB: {
			{http.MethodPut, "/v1/models/commit", specJSON(t, edited)},
			{http.MethodDelete, "/v1/models/steps", nil},
		},
	} {
		for _, w := range writes {
			resp, body := do(t, ts, w.method, w.path, w.body)
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("%s %s = %d, want 405", w.method, w.path, resp.StatusCode)
				continue
			}
			if allow := resp.Header.Get("Allow"); allow != "GET, HEAD" {
				t.Errorf("%s %s Allow = %q, want \"GET, HEAD\"", w.method, w.path, allow)
			}
			if code := envelope(t, body).Code; code != CodeMethodNotAllowed {
				t.Errorf("%s %s code = %q", w.method, w.path, code)
			}
		}
	}

	_, listA := get(t, tsA, "/v1/models", nil)
	_, listB := get(t, tsB, "/v1/models", nil)
	if listA != listB {
		t.Error("the nodes list different models")
	}
	for _, ts := range []*httptest.Server{tsA, tsB} {
		for _, r := range countDoc("steps").SweepParams {
			path := fmt.Sprintf("/v1/models/steps/artifacts/text?r=%d", r)
			if resp, _ := get(t, ts, path, nil); resp.StatusCode != http.StatusNotFound {
				t.Errorf("%s, a model no write registered = %s, want 404", path, resp.Status)
			}
		}
	}
	entry, err := models.Get("commit")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range entry.SweepParams {
		path := fmt.Sprintf("/v1/models/commit/artifacts/text?r=%d", r)
		respA, bodyA := get(t, tsA, path, nil)
		respB, bodyB := get(t, tsB, path, nil)
		if respA.StatusCode != http.StatusOK || respB.StatusCode != http.StatusOK {
			t.Fatalf("r=%d: %s from A, %s from B", r, respA.Status, respB.Status)
		}
		if ea, eb := respA.Header.Get("ETag"), respB.Header.Get("ETag"); ea == "" || ea != eb || bodyA != bodyB {
			t.Errorf("r=%d: A answers %s, B answers %s", r, ea, eb)
		}
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
