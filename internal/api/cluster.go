package api

import (
	"fmt"
	"io"
	"net/http"

	"asagen/internal/artifact"
	"asagen/internal/cluster"
	"asagen/internal/store"
)

// Cluster response and routing headers.
const (
	// HeaderNode names the node whose pipeline produced the response —
	// on a proxied response it is the owner, not the proxying node.
	HeaderNode = "X-Asagen-Node"
	// HeaderRoute reports the serving node's role for the request's
	// routing key: owner, replica, or proxied.
	HeaderRoute = "X-Asagen-Route"
	// HeaderForwardedBy marks a proxied request with the forwarding
	// node's ID; the receiver serves locally, so divergent views can
	// never proxy in circles.
	HeaderForwardedBy = "X-Asagen-Forwarded-By"
	// HeaderProxiedBy is stamped on proxied responses with the node that
	// relayed them.
	HeaderProxiedBy = "X-Asagen-Proxied-By"
)

// maxClusterBytes bounds the cluster-internal POST bodies: gossip views
// are small, and propagated artefacts are render outputs, not uploads.
const maxClusterBytes = 16 << 20

// serveClustered routes one artifact request over the cluster ring: the
// key's owner renders locally and seeds its replicas, a warm replica
// serves its copy, and everyone else proxies one hop to the owner.
func (h *Handler) serveClustered(w http.ResponseWriter, r *http.Request, req artifact.Request) {
	key, resolved, err := h.p.RouteKey(req)
	if err != nil {
		h.writeRenderError(w, r, err)
		return
	}
	d := h.cluster.Route(key)
	forwarded := r.Header.Get(HeaderForwardedBy) != ""
	switch {
	case d.Relation == cluster.RelOwner || forwarded:
		// Forwarded requests always render locally, whatever this node's
		// own view says: one hop is the loop bound during divergence.
		res := h.p.Render(r.Context(), resolved)
		if res.Err != nil {
			h.writeRenderError(w, r, res.Err)
			return
		}
		h.cluster.MaybePropagate(key, resultBlob(res))
		h.writeArtifact(w, r, res, d.Relation.String())
	case d.Relation == cluster.RelReplica:
		if res, ok := h.p.Probe(resolved); ok {
			h.writeArtifact(w, r, res, cluster.RelReplica.String())
			return
		}
		// Cold replica: the owner renders once and pushes the blob back
		// here; serving the miss locally would render the same bytes on
		// every replica instead.
		h.proxyArtifact(w, r, d)
	default:
		h.proxyArtifact(w, r, d)
	}
}

// resultBlob packages a rendered result for replica propagation.
func resultBlob(res artifact.Result) cluster.Blob {
	return cluster.Blob{
		Key: store.Key{
			Model:       res.Request.Model,
			Param:       res.Request.Param,
			Format:      res.Request.Format,
			Fingerprint: res.Fingerprint.String(),
		},
		Sum:   res.ContentHash(),
		Media: res.Artifact.MediaType,
		Ext:   res.Artifact.Ext,
		Data:  res.Artifact.Data,
	}
}

// proxyArtifact relays the request to the key's owner and copies the
// response through, preserving the owner's validator and node identity.
func (h *Handler) proxyArtifact(w http.ResponseWriter, r *http.Request, d cluster.Decision) {
	preq, err := http.NewRequestWithContext(r.Context(), r.Method, d.OwnerURL+r.URL.RequestURI(), nil)
	if err != nil {
		writeError(w, http.StatusBadGateway, CodeProxyFailed,
			fmt.Sprintf("proxy to owner %s: %v", d.OwnerID, err))
		return
	}
	if inm := r.Header.Get("If-None-Match"); inm != "" {
		preq.Header.Set("If-None-Match", inm)
	}
	preq.Header.Set(HeaderForwardedBy, h.cluster.ID())
	resp, err := h.proxyClient.Do(preq)
	if err != nil {
		writeError(w, http.StatusBadGateway, CodeProxyFailed,
			fmt.Sprintf("owner %s (%s) unreachable: %v", d.OwnerID, d.OwnerURL, err))
		return
	}
	defer resp.Body.Close()
	header := w.Header()
	for _, k := range []string{
		"ETag", "Cache-Control", "Vary", "Content-Type", "Content-Length",
		"X-Machine-Fingerprint", HeaderNode,
	} {
		if v := resp.Header.Get(k); v != "" {
			header.Set(k, v)
		}
	}
	header.Set(HeaderRoute, "proxied")
	header.Set(HeaderProxiedBy, h.cluster.ID())
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// handleClusterStatus serves GET /v1/cluster.
func (h *Handler) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	if h.cluster == nil {
		writeJSON(w, struct {
			Enabled bool `json:"enabled"`
		}{})
		return
	}
	writeJSON(w, h.cluster.Status())
}

// handleClusterGossip serves POST /v1/cluster/gossip: the body is a
// membership view; a push (the default kind) is answered with this
// node's view, completing the push-pull exchange in one round trip.
func (h *Handler) handleClusterGossip(w http.ResponseWriter, r *http.Request) {
	body, ok := h.readClusterBody(w, r)
	if !ok {
		return
	}
	kind := cluster.KindGossip
	if r.Header.Get(cluster.HeaderClusterKind) == cluster.KindGossipAck {
		kind = cluster.KindGossipAck
	}
	reply, err := h.cluster.Handle(kind, body, r.RemoteAddr)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadClusterPayload, err.Error())
		return
	}
	if reply == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", fmt.Sprint(len(reply)))
	w.Write(reply)
}

// handleClusterIngest serves POST /v1/cluster/artifacts: a propagated
// artefact blob, verified against its advertised sum before it lands in
// this node's store.
func (h *Handler) handleClusterIngest(w http.ResponseWriter, r *http.Request) {
	body, ok := h.readClusterBody(w, r)
	if !ok {
		return
	}
	if _, err := h.cluster.Handle(cluster.KindPropagate, body, r.RemoteAddr); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadClusterPayload, err.Error())
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// readClusterBody reads the body of a cluster-internal POST, at most
// maxClusterBytes of it. On false the error response is written: 404 on a
// server outside cluster mode, 400 for a body that is too large or fails
// to arrive.
func (h *Handler) readClusterBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if h.cluster == nil {
		writeError(w, http.StatusNotFound, CodeNotClustered,
			"this server is not running in cluster mode (-cluster)")
		return nil, false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxClusterBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadClusterPayload, "read cluster body: "+err.Error())
		return nil, false
	}
	return body, true
}
