package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on http.DefaultServeMux
	"strings"
	"time"

	"asagen/internal/api"
	"asagen/internal/artifact"
	"asagen/internal/cluster"
	"asagen/internal/models"
	"asagen/internal/render"
	"asagen/internal/store"
)

// Serve mode: the versioned HTTP generation service (the paper's §4.2
// "generation whenever a new parameter value is encountered" policy,
// behind a network endpoint). The wire surface — /v1 routes including the
// writable model collection, error envelope, caching headers and
// request-scoped cancellation — lives in internal/api and is documented in
// the generated API.md.
//
// With -cluster the server additionally joins a peer ring (internal/
// cluster): artifact requests shard across nodes by consistent hashing
// on machine fingerprints, membership spreads by gossip, and rendered
// artifacts propagate to the next -replicas ring successors.
//
// With -debug-addr, net/http/pprof's profiles are served on a listener of
// their own, never on the public one.

// runServe parses serve-mode flags and blocks serving HTTP.
func runServe(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fsmgen serve", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":8091", "listen address")
		cacheLimit = fs.Int("cache-limit", 128, "machine cache entry bound (0 = unbounded)")
		storeDir   = fs.String("store", "", "content-addressed artifact store directory (empty = in-memory only); a restarted server serves previously rendered artefacts from disk")
		storeLimit = fs.Int64("store-limit", 0, "artifact store size bound in bytes (0 = unbounded); least-recently-used artefacts are evicted beyond it")
		clustered  = fs.Bool("cluster", false, "join a peer ring: shard artifact requests by fingerprint and replicate renders to ring successors")
		peers      = fs.String("peers", "", "comma-separated peer base URLs gossiped to at startup (cluster mode)")
		nodeID     = fs.String("node-id", "", "stable node name hashed onto the ring (default: the advertised URL)")
		advertise  = fs.String("advertise", "", "base URL peers reach this node at (default: http://<addr's host, or localhost>:<bound port>)")
		replicas   = fs.Int("replicas", 2, "successor-list length s: each artifact is pushed to its owner's next s ring successors (cluster mode)")
		debugAddr  = fs.String("debug-addr", "", "listen address for net/http/pprof's /debug/pprof/ routes, apart from -addr (empty = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Bind first, so the banner and the advertised URL name the port
	// actually bound: -addr 127.0.0.1:0 serves on a free one.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		// Only this listener serves http.DefaultServeMux; the public one
		// serves api's own mux.
		debug := &http.Server{Handler: http.DefaultServeMux, ReadHeaderTimeout: 10 * time.Second}
		go debug.Serve(dln) // returns once Close stops it; a failed debug listener leaves the public one up
		defer debug.Close()
		fmt.Fprintf(stdout, "fsmgen serve: pprof on %s\n", dln.Addr())
	}
	// Every serve instance owns a clone of the built-in registry, so
	// POST /v1/models registrations are never shared between concurrent
	// servers (or with any other code in the process).
	reg := models.Default().Clone()
	opts := []artifact.Option{artifact.WithRegistry(reg)}
	var st *store.Store
	if *storeDir != "" {
		s, err := store.Open(*storeDir)
		if err != nil {
			return fmt.Errorf("open artifact store: %w", err)
		}
		defer s.Close()
		if *storeLimit > 0 {
			s.SetLimit(*storeLimit)
		}
		st = s
		opts = append(opts, artifact.WithStore(s))
		fmt.Fprintf(stdout, "fsmgen serve: artifact store %s (%d artefacts warm)\n",
			s.Dir(), s.Len())
	}
	p := artifact.New(opts...)
	p.SetLimit(*cacheLimit)

	var handlerOpts []api.HandlerOption
	if *clustered {
		url := *advertise
		if url == "" {
			url = advertised(*addr, ln.Addr())
		}
		id := *nodeID
		if id == "" {
			id = url
		}
		cfg := cluster.Config{
			ID:       id,
			URL:      url,
			Replicas: *replicas,
			Seed:     1,
			Clock:    cluster.NewRealClock(),
			Log:      cluster.NewBoundedLog(256),
			Peers:    splitList(*peers),
		}
		transport := cluster.NewHTTPTransport(nil)
		cfg.Transport = transport
		if st != nil {
			cfg.Ingest = func(b cluster.Blob) error {
				return st.Ingest(b.Key, b.Data, b.Sum, b.Media, b.Ext)
			}
		}
		node, err := cluster.New(cfg)
		if err != nil {
			return err
		}
		transport.Bind(node)
		node.Start()
		defer node.Stop()
		handlerOpts = append(handlerOpts, api.WithCluster(node))
		fmt.Fprintf(stdout, "fsmgen serve: cluster node %s at %s (replicas %d, peers %v)\n",
			id, url, *replicas, splitList(*peers))
	}

	fmt.Fprintf(stdout, "fsmgen serve: listening on %s (%d models, %d formats)\n",
		ln.Addr(), len(reg.Names()), len(render.Formats()))
	srv := &http.Server{
		Handler:           api.NewHandler(p, handlerOpts...),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	return srv.Serve(ln)
}

// advertised is the base URL peers reach a node at that listens on addr
// and is bound at bound: addr's host, localhost when it names none, and
// the port bound.
func advertised(addr string, bound net.Addr) string {
	host, _, _ := net.SplitHostPort(addr)
	if host == "" {
		host = "localhost"
	}
	_, port, _ := net.SplitHostPort(bound.String())
	return "http://" + net.JoinHostPort(host, port)
}

// splitList splits a comma-separated flag value, dropping empty items.
func splitList(s string) []string {
	var out []string
	for _, item := range strings.Split(s, ",") {
		if item = strings.TrimSpace(item); item != "" {
			out = append(out, item)
		}
	}
	return out
}
