// Package api is the versioned HTTP wire surface of the generation
// service: the /v1 route family served by `fsmgen serve`, backed by the
// artefact pipeline. Artefacts are immutable per fingerprint, so
// responses carry a content-hash ETag and conditional requests are
// answered 304 without rendering. Failures are reported in a JSON error
// envelope:
//
//	{"error": {"code": "unknown_model", "message": "..."}}
//
// Every request is scoped to its own context: when the client disconnects
// mid-generation, the generation aborts promptly and leaves no cache
// entry (observable as a cancelled generation in /v1/stats).
//
// The model collection is writable: POST /v1/models registers a model
// from a declarative JSON spec and DELETE /v1/models/{model} unregisters
// one, purging its cached work. Registrations are scoped to the serving
// instance's registry — `fsmgen serve` hands every server its own clone —
// so concurrent servers never share mutable state.
package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"asagen/internal/artifact"
	"asagen/internal/cluster"
	"asagen/internal/models"
	"asagen/internal/render"
	"asagen/internal/spec"
)

// Error codes carried in the JSON error envelope.
const (
	CodeUnknownModel      = "unknown_model"
	CodeUnknownFormat     = "unknown_format"
	CodeNoEFSM            = "no_efsm"
	CodeBadParameter      = "bad_parameter"
	CodeRenderFailed      = "render_failed"
	CodeNotFound          = "not_found"
	CodeMethodNotAllowed  = "method_not_allowed"
	CodeGenerationAborted = "generation_aborted"
	CodeModelExists       = "model_exists"
	CodeInvalidSpec       = "invalid_spec"
	CodeBadTrace          = "bad_trace"
	CodeTraceAborted      = "trace_aborted"
	CodeNotClustered      = "not_clustered"
	CodeBadClusterPayload = "bad_cluster_payload"
	CodeProxyFailed       = "proxy_failed"
)

// maxSpecBytes bounds the POST /v1/models request body; a model spec is a
// compact document, so anything beyond this is a caller mistake, not a
// bigger scenario.
const maxSpecBytes = 1 << 20

// Route documents one wire endpoint; the served mux and the generated
// API.md route table are both derived from the same list, so the document
// cannot drift from the implementation.
type Route struct {
	// Method and Pattern are the net/http mux pattern parts, e.g. "GET"
	// and "/v1/models/{model}".
	Method  string
	Pattern string
	// Summary is a one-line description for the route table.
	Summary string
	// Query documents accepted query parameters as "name: meaning".
	Query []string

	handler http.HandlerFunc
}

// Handler serves the wire API over an artefact pipeline. Model names
// resolve against the pipeline's registry, so a server constructed over a
// cloned registry (as `fsmgen serve` always does) accepts dynamic model
// registrations without sharing mutable state with any other instance.
type Handler struct {
	p      *artifact.Pipeline
	reg    *models.Registry
	routes []Route
	mux    *http.ServeMux
	// cluster, when set, shards the artifact hot path across a node ring:
	// every render request is routed by its fingerprint key and either
	// served locally (owner or warm replica) or proxied to the owner.
	cluster     *cluster.Node
	proxyClient *http.Client
	// checkWriteTimeout is the constant of that name; tests shorten it.
	checkWriteTimeout time.Duration
}

// HandlerOption configures a Handler.
type HandlerOption func(*Handler)

// WithCluster attaches a cluster node: artifact requests are routed over
// its hash ring and the /v1/cluster routes answer with live state
// instead of enabled=false.
func WithCluster(n *cluster.Node) HandlerOption {
	return func(h *Handler) { h.cluster = n }
}

// WithProxyClient substitutes the HTTP client used to proxy artifact
// requests to owning nodes (default: 10-second timeout).
func WithProxyClient(c *http.Client) HandlerOption {
	return func(h *Handler) {
		if c != nil {
			h.proxyClient = c
		}
	}
}

// NewHandler returns the HTTP handler serving the /v1 API over the
// pipeline.
func NewHandler(p *artifact.Pipeline, opts ...HandlerOption) *Handler {
	h := &Handler{p: p, reg: p.Registry(), proxyClient: &http.Client{Timeout: 10 * time.Second},
		checkWriteTimeout: checkWriteTimeout}
	for _, opt := range opts {
		opt(h)
	}
	h.routes = []Route{
		{
			Method:  "GET",
			Pattern: "/v1/models",
			Summary: "List registered models with their metadata.",
			handler: h.handleModels,
		},
		{
			Method:  "POST",
			Pattern: "/v1/models",
			Summary: "Register a model from a JSON spec; it is immediately generatable and renderable.",
			handler: h.handleRegisterModel,
		},
		{
			Method:  "GET",
			Pattern: "/v1/models/{model}",
			Summary: "Describe one registered model.",
			handler: h.handleModel,
		},
		{
			Method:  "PUT",
			Pattern: "/v1/models/{model}",
			Summary: "Register or replace a model in place; compatible edits regenerate cached machines incrementally.",
			handler: h.handleUpdateModel,
		},
		{
			Method:  "DELETE",
			Pattern: "/v1/models/{model}",
			Summary: "Unregister a model and purge its cached machines and artefacts.",
			handler: h.handleUnregisterModel,
		},
		{
			Method:  "GET",
			Pattern: "/v1/models/{model}/artifacts/{format}",
			Summary: "Generate and render one artefact; cancelling the request aborts the generation.",
			Query:   []string{"r: model parameter (default: the model's default)"},
			handler: h.handleArtifact,
		},
		{
			Method:  "POST",
			Pattern: "/v1/models/{model}/check",
			Summary: "Check a streamed trace against the model's machine; verdicts arrive as Server-Sent Events.",
			Query: []string{
				"r: model parameter (default: the model's default)",
				"format: trace encoding, `jsonl` (default) or `regex`",
				"tolerance: rejected deliveries absorbed before a violation (default 0)",
				"match: regex transition pattern `PATTERN` or `PATTERN=>TEMPLATE` (repeatable; implies format=regex, and with format=jsonl is a `bad_trace` 400)",
				"keep_going: `1`/`true` keeps checking past the first violation",
			},
			handler: h.handleCheck,
		},
		{
			Method:  "GET",
			Pattern: "/v1/formats",
			Summary: "List registered artefact formats.",
			handler: h.handleFormats,
		},
		{
			Method:  "GET",
			Pattern: "/v1/stats",
			Summary: "Report pipeline cache statistics, including cancelled generations.",
			handler: h.handleStats,
		},
		{
			Method:  "GET",
			Pattern: "/v1/cluster",
			Summary: "Report cluster membership, hash ring and routing-oracle status; standalone servers report enabled=false.",
			handler: h.handleClusterStatus,
		},
		{
			Method:  "POST",
			Pattern: "/v1/cluster/gossip",
			Summary: "Cluster-internal: merge a gossiped membership view; a push is answered with this node's own view.",
			handler: h.handleClusterGossip,
		},
		{
			Method:  "POST",
			Pattern: "/v1/cluster/artifacts",
			Summary: "Cluster-internal: ingest an artefact pushed by its owner, verified against its content sum.",
			handler: h.handleClusterIngest,
		},
	}
	h.mux = http.NewServeMux()
	byPattern := map[string][]Route{}
	var patterns []string
	for _, route := range h.routes {
		if _, seen := byPattern[route.Pattern]; !seen {
			patterns = append(patterns, route.Pattern)
		}
		byPattern[route.Pattern] = append(byPattern[route.Pattern], route)
	}
	for _, pattern := range patterns {
		h.mux.HandleFunc(pattern, methodDispatch(byPattern[pattern]))
	}
	// Unmatched paths get the JSON envelope rather than the mux's plain
	// text 404.
	h.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, CodeNotFound,
			fmt.Sprintf("no route %s %s; see API.md", r.Method, r.URL.Path))
	})
	return h
}

// Routes returns the route table the handler serves.
func (h *Handler) Routes() []Route {
	return append([]Route(nil), h.routes...)
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

// methodDispatch selects among the routes sharing one pattern by request
// method (HEAD is served by the GET route), answering unsupported methods
// 405 with an Allow header and the JSON error envelope.
func methodDispatch(routes []Route) http.HandlerFunc {
	var allowed []string
	for _, route := range routes {
		allowed = append(allowed, route.Method)
		if route.Method == http.MethodGet {
			allowed = append(allowed, http.MethodHead)
		}
	}
	allow := strings.Join(allowed, ", ")
	return func(w http.ResponseWriter, r *http.Request) {
		for _, route := range routes {
			if r.Method != route.Method && !(route.Method == http.MethodGet && r.Method == http.MethodHead) {
				continue
			}
			route.handler(w, r)
			return
		}
		w.Header().Set("Allow", allow)
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
			fmt.Sprintf("method %s not allowed on %s (allow: %s)", r.Method, routes[0].Pattern, allow))
	}
}

// modelInfo is the wire representation of a registry entry.
type modelInfo struct {
	Name         string `json:"name"`
	Description  string `json:"description"`
	ParamName    string `json:"param_name"`
	DefaultParam int    `json:"default_param"`
	SweepParams  []int  `json:"sweep_params,omitempty"`
	HasEFSM      bool   `json:"has_efsm"`
	Vocabulary   string `json:"vocabulary,omitempty"`
}

func modelInfoFor(e models.Entry) modelInfo {
	return modelInfo{
		Name:         e.Name,
		Description:  e.Description,
		ParamName:    e.ParamName,
		DefaultParam: e.DefaultParam,
		SweepParams:  append([]int(nil), e.SweepParams...),
		HasEFSM:      e.Abstraction != nil,
		Vocabulary:   e.Vocabulary,
	}
}

func (h *Handler) handleModels(w http.ResponseWriter, r *http.Request) {
	names := h.reg.Names()
	out := make([]modelInfo, 0, len(names))
	for _, name := range names {
		e, err := h.reg.Get(name)
		if err != nil {
			continue
		}
		out = append(out, modelInfoFor(e))
	}
	writeJSON(w, out)
}

func (h *Handler) handleModel(w http.ResponseWriter, r *http.Request) {
	e, err := h.reg.Get(r.PathValue("model"))
	if err != nil {
		writeError(w, http.StatusNotFound, CodeUnknownModel, err.Error())
		return
	}
	writeJSON(w, modelInfoFor(e))
}

// readSpec reads, decodes and compiles the model spec a POST or PUT
// carries. The body is at most maxSpecBytes long and is read into one
// buffer, sized from Content-Length when the request states it: what the
// length claims decides what is allocated up front, never beyond the cap,
// and what http.MaxBytesReader lets through decides what is read.
func readSpec(w http.ResponseWriter, r *http.Request) (*spec.Compiled, error) {
	var body bytes.Buffer
	if n := min(r.ContentLength, maxSpecBytes); n > 0 {
		// bytes.MinRead spare: ReadFrom grows a buffer with less room
		// than that, even to learn that the body has ended.
		body.Grow(int(n) + bytes.MinRead)
	}
	if _, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, maxSpecBytes)); err != nil {
		return nil, fmt.Errorf("read spec body: %w", err)
	}
	return spec.ParseAndCompile(body.Bytes())
}

// handleRegisterModel serves POST /v1/models: the body is a JSON model
// spec (see the spec package and the README's authoring section), decoded
// strictly and compiled; a valid spec registers on this server's registry
// and is immediately generatable and renderable. Malformed or invalid
// specs are caller mistakes (400, code invalid_spec, with the compile
// diagnostics in the message); a taken name is a conflict (409).
func (h *Handler) handleRegisterModel(w http.ResponseWriter, r *http.Request) {
	compiled, err := readSpec(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, err.Error())
		return
	}
	if err := h.reg.Add(compiled.Entry()); err != nil {
		if errors.Is(err, models.ErrExists) {
			writeError(w, http.StatusConflict, CodeModelExists, err.Error())
			return
		}
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, err.Error())
		return
	}
	e, err := h.reg.Get(compiled.Name())
	if err != nil {
		// Registered and immediately removed by a concurrent DELETE; the
		// registration itself succeeded.
		e = compiled.Entry()
	}
	w.Header().Set("Location", "/v1/models/"+compiled.Name())
	writeJSONStatus(w, http.StatusCreated, modelInfoFor(e))
}

// handleUpdateModel serves PUT /v1/models/{model}: the body is a JSON
// model spec as for POST /v1/models, but the name may already be taken —
// the entry is replaced in place (200) or newly registered (201). The
// spec's name must match the path segment (400 otherwise). On
// replacement, stale EFSMs and rendered artefacts are purged; when the
// previous entry was also spec-defined and the edit preserves the
// declared structure, previously generated machines are kept and linked
// so the replacement's first generation regenerates incrementally from
// the cached exploration (spec.Diff → core.Regenerate) instead of
// exploring from scratch.
func (h *Handler) handleUpdateModel(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("model")
	compiled, err := readSpec(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, err.Error())
		return
	}
	if compiled.Name() != name {
		writeError(w, http.StatusBadRequest, CodeInvalidSpec,
			fmt.Sprintf("spec name %q does not match path model %q", compiled.Name(), name))
		return
	}
	replaced, err := h.p.UpdateModel(compiled.Entry(), compiled.DeltaFrom(h.reg))
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, err.Error())
		return
	}
	e, err := h.reg.Get(name)
	if err != nil {
		// Replaced and immediately removed by a concurrent DELETE; the
		// update itself succeeded.
		e = compiled.Entry()
	}
	w.Header().Set("Location", "/v1/models/"+name)
	status := http.StatusOK
	if !replaced {
		status = http.StatusCreated
	}
	writeJSONStatus(w, status, modelInfoFor(e))
}

// handleUnregisterModel serves DELETE /v1/models/{model}: the model is
// removed from this server's registry and its cached machines, EFSMs and
// rendered artefacts are purged, so re-registering the name never
// observes stale work.
func (h *Handler) handleUnregisterModel(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("model")
	if !h.reg.Remove(name) {
		writeError(w, http.StatusNotFound, CodeUnknownModel,
			fmt.Sprintf("models: unknown model %q (known: %v)", name, h.reg.Names()))
		return
	}
	h.p.PurgeModel(name)
	w.WriteHeader(http.StatusNoContent)
}

func (h *Handler) handleFormats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, render.Formats())
}

func (h *Handler) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, h.p.Stats())
}

// handleArtifact serves /v1/models/{model}/artifacts/{format}. Unknown
// models and formats are missing resources (404); parameter problems are
// caller mistakes (400).
func (h *Handler) handleArtifact(w http.ResponseWriter, r *http.Request) {
	req := artifact.Request{Model: r.PathValue("model"), Format: r.PathValue("format")}
	if rs := r.URL.Query().Get("r"); rs != "" {
		param, err := strconv.Atoi(rs)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeBadParameter,
				fmt.Sprintf("bad parameter %q: %v", rs, err))
			return
		}
		req.Param = param
	}

	if h.cluster != nil {
		h.serveClustered(w, r, req)
		return
	}

	res := h.p.Render(r.Context(), req)
	if res.Err != nil {
		h.writeRenderError(w, r, res.Err)
		return
	}
	h.writeArtifact(w, r, res, "")
}

// writeArtifact writes a successful render. relation, when non-empty, is
// the serving node's cluster role for the key (owner/replica), stamped
// with the node identity so clients and CI can see who answered.
func (h *Handler) writeArtifact(w http.ResponseWriter, r *http.Request, res artifact.Result, relation string) {
	// The validator, length and bytes were all precomputed at render time
	// (artifact.Result); a cache hit writes the memoised byte slice without
	// hashing, formatting or copying anything per request.
	header := w.Header()
	header.Set("ETag", res.ETag)
	header.Set("Cache-Control", "public, max-age=3600")
	header.Set("Vary", "Accept-Encoding")
	header.Set("X-Machine-Fingerprint", res.Fingerprint.String())
	if relation != "" {
		header.Set(HeaderNode, h.cluster.ID())
		header.Set(HeaderRoute, relation)
	}
	if ifNoneMatchHas(r.Header.Get("If-None-Match"), res.ETag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	header.Set("Content-Type", res.Artifact.MediaType)
	header.Set("Content-Length", res.ContentLength)
	w.Write(res.Artifact.Data)
}

// writeRenderError maps a pipeline error to a wire response. Unknown
// models and formats are path segments, hence 404.
func (h *Handler) writeRenderError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		if r.Context().Err() != nil {
			// The client is gone (request-scoped cancellation); nothing
			// useful can be written. Close without a body.
			return
		}
		// This request is alive but shared work it waited on was aborted
		// (e.g. the generation's starter disconnected): tell the client to
		// retry rather than letting the server write an empty 200.
		writeError(w, http.StatusServiceUnavailable, CodeGenerationAborted, err.Error())
	case errors.Is(err, artifact.ErrUnknownModel):
		writeError(w, http.StatusNotFound, CodeUnknownModel, err.Error())
	case errors.Is(err, artifact.ErrUnknownFormat):
		writeError(w, http.StatusNotFound, CodeUnknownFormat, err.Error())
	case errors.Is(err, artifact.ErrNoEFSM):
		writeError(w, http.StatusBadRequest, CodeNoEFSM, err.Error())
	case errors.Is(err, artifact.ErrRender):
		// A renderer failure on a well-formed request is a server defect,
		// not a caller mistake.
		writeError(w, http.StatusInternalServerError, CodeRenderFailed, err.Error())
	default:
		// Model construction rejected the parameter value.
		writeError(w, http.StatusBadRequest, CodeBadParameter, err.Error())
	}
}

// ifNoneMatchHas reports whether the If-None-Match header value names the
// ETag. Comparison is RFC 9110 weak comparison — a W/ prefix on either
// side is ignored — the wildcard `*` matches anything, and the list is
// walked without allocating.
func ifNoneMatchHas(header, etag string) bool {
	etag = strings.TrimPrefix(etag, "W/")
	for header != "" {
		var candidate string
		if i := strings.IndexByte(header, ','); i >= 0 {
			candidate, header = header[:i], header[i+1:]
		} else {
			candidate, header = header, ""
		}
		candidate = strings.TrimSpace(candidate)
		if candidate == "*" {
			return true
		}
		if strings.TrimPrefix(candidate, "W/") == etag {
			return true
		}
	}
	return false
}

// errorEnvelope is the wire error shape of the /v1 API.
type errorEnvelope struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// bufPool recycles the encode buffers behind every JSON response, so the
// serve path's envelope writes stop allocating a fresh buffer per request
// and every JSON response carries an exact Content-Length.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSONStatus encodes v through a pooled buffer and writes it with
// the given status (0 means 200 via the implicit WriteHeader).
func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	buf := bufPool.Get().(*bytes.Buffer)
	defer bufPool.Put(buf)
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	if status != 0 {
		w.WriteHeader(status)
	}
	w.Write(buf.Bytes())
}

func writeError(w http.ResponseWriter, status int, code, message string) {
	writeJSONStatus(w, status, errorEnvelope{Error: errorBody{Code: code, Message: message}})
}

func writeJSON(w http.ResponseWriter, v any) {
	writeJSONStatus(w, 0, v)
}
