package asagen

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"iter"
	"slices"

	"asagen/internal/artifact"
	"asagen/internal/core"
	"asagen/internal/models"
	"asagen/internal/render"
)

// VocabularyCommit marks models whose generated machines react to the
// commit protocol's message set; only these can drive the version-service
// runtime (see ModelInfo.Vocabulary).
const VocabularyCommit = models.VocabularyCommit

// ModelInfo describes one registered scenario.
type ModelInfo struct {
	// Name is the registry key, e.g. "commit".
	Name string
	// Description is a one-line summary of the scenario.
	Description string
	// ParamName names the model parameter, e.g. "replication factor".
	ParamName string
	// DefaultParam is the parameter used when a request passes none.
	DefaultParam int
	// SweepParams are representative parameter values, ascending.
	SweepParams []int
	// HasEFSM reports whether the model declares the parameter-independent
	// EFSM generalisation (required by the efsm formats).
	HasEFSM bool
	// Vocabulary names the message vocabulary the generated machines react
	// to; empty when no runtime layer consumes it.
	Vocabulary string
}

// Request names one artefact: a registered model, a parameter value (<= 0
// selects the model's default) and a registered format.
type Request struct {
	Model  string
	Param  int
	Format string
}

// Result is one rendered artefact, or the classified failure to produce
// it.
type Result struct {
	// Model, Param and Format echo the request, with Param resolved to the
	// effective parameter value.
	Model  string
	Param  int
	Format string
	// MediaType is the artefact's MIME type; Ext the suggested filename
	// extension including the dot.
	MediaType string
	Ext       string
	// Data is the rendered content.
	Data []byte
	// Fingerprint is the hex fingerprint of the generated machine family
	// member, the one machine every format of the member renders.
	Fingerprint string
	// ContentHash is the hex SHA-256 of Data, for content addressing;
	// empty when Err is set.
	ContentHash string
	// Err classifies the failure under the package's sentinel errors; nil
	// on success.
	Err error
}

// FileName returns a content-addressed filename:
// <model>-r<param>.<format>.<hash12><ext>. Equal content always maps to
// the same name, so re-running a batch never duplicates artefacts.
func (r Result) FileName() string {
	hash := r.ContentHash
	if len(hash) > 12 {
		hash = hash[:12]
	}
	return fmt.Sprintf("%s-r%d.%s.%s%s", r.Model, r.Param, r.Format, hash, r.Ext)
}

// Stats is a snapshot of a client's memoisation counters.
type Stats struct {
	// Generations counts machine generations that ran to completion;
	// CancelledGenerations counts generations aborted by context
	// cancellation. Concurrent first requests for one machine share a
	// single generation.
	Generations          int64
	CancelledGenerations int64
	// IncrementalGenerations counts generations satisfied by patching a
	// previously cached machine after UpdateModel, rather than exploring
	// from scratch. They also count as Generations.
	IncrementalGenerations int64
	// CacheHits/CacheMisses/CacheEvictions report the machine cache;
	// CachedMachines is its current size.
	CacheHits, CacheMisses, CacheEvictions int64
	CachedMachines                         int
	// RenderHits and RenderMisses count rendered-artefact memo lookups.
	RenderHits, RenderMisses int64
}

// Client is the public facade over the generation core, the scenario and
// format registries, and the artefact pipeline. It memoises generated
// machines per model fingerprint and rendered artefacts per
// (fingerprint, format), both single-flight under concurrency. The zero
// cost path — repeated requests for cached work — is lock-cheap and
// allocation-free beyond the returned values. A Client is safe for
// concurrent use.
type Client struct {
	pipeline *artifact.Pipeline
	reg      *models.Registry
	genOpts  []core.Option
}

// NewClient returns a client with the given options.
func NewClient(opts ...ClientOption) *Client {
	var cfg clientConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	reg := models.Default()
	if cfg.isolated {
		reg = reg.Clone()
	}
	_, _, _, coreOpts := splitGenerateOptions(cfg.genOpts)
	p := artifact.New(
		artifact.WithJobs(cfg.jobs),
		artifact.WithGenerateOptions(coreOpts...),
		artifact.WithRegistry(reg),
	)
	if cfg.cacheLimit > 0 {
		p.SetLimit(cfg.cacheLimit)
	}
	return &Client{pipeline: p, reg: reg, genOpts: coreOpts}
}

// Models returns the registered scenarios, sorted by name.
func (c *Client) Models() []ModelInfo {
	names := c.reg.Names()
	out := make([]ModelInfo, 0, len(names))
	for _, name := range names {
		info, err := c.Model(name)
		if err != nil {
			continue
		}
		out = append(out, info)
	}
	return out
}

// Model returns the description of one registered scenario, or
// ErrUnknownModel.
func (c *Client) Model(name string) (ModelInfo, error) {
	e, err := c.reg.Get(name)
	if err != nil {
		return ModelInfo{}, wrapSentinel(ErrUnknownModel, err)
	}
	return ModelInfo{
		Name:         e.Name,
		Description:  e.Description,
		ParamName:    e.ParamName,
		DefaultParam: e.DefaultParam,
		SweepParams:  append([]int(nil), e.SweepParams...),
		HasEFSM:      e.Abstraction != nil,
		Vocabulary:   e.Vocabulary,
	}, nil
}

// Formats returns the artefact format names, sorted.
func (c *Client) Formats() []string { return render.Formats() }

// IsEFSMFormat reports whether the format renders the
// parameter-independent EFSM generalisation rather than a concrete
// machine. EFSM artefacts are produced through Render; Machine.Render
// handles only concrete-machine formats.
func (c *Client) IsEFSMFormat(name string) bool { return render.IsEFSMFormat(name) }

// Generate executes the named model and returns the generated machine
// family member. The machine is memoised per model fingerprint (unless
// WithoutCache is passed), so repeated and concurrent calls for equivalent
// models pay the generation cost once. The fingerprint names the
// generation options, so calls that pass their own share the client's one
// cache, its limit and its purges. Cancelling ctx aborts the generation
// promptly with ctx.Err() and leaves no cache entry.
func (c *Client) Generate(ctx context.Context, model string, opts ...GenerateOption) (*Machine, error) {
	param, _, fresh, callOpts := splitGenerateOptions(opts)
	mb, err := c.pipeline.Member(model, param, callOpts...)
	if err != nil {
		return nil, mapErr(err)
	}
	var machine *core.StateMachine
	if fresh {
		machine, err = core.Generate(ctx, mb.Model, slices.Concat(c.genOpts, callOpts)...)
	} else {
		machine, err = mb.Machine(ctx)
	}
	if err != nil {
		return nil, mapErr(err)
	}
	return &Machine{name: model, param: mb.Param, machine: machine, model: mb.Model, fp: mb.Fingerprint}, nil
}

// RegisterModel compiles the spec and registers it on the client's
// registry, making it immediately generatable and renderable alongside
// the built-in scenarios (including batch cross products). It fails with
// ErrInvalidSpec when the spec does not compile (the *SpecError cause
// lists every diagnostic) and ErrModelExists when the name is taken.
// Registration is thread-safe with concurrent lookups and renders.
//
// By default registrations land on the process-wide registry shared by
// all non-isolated clients; construct the client WithIsolatedRegistry for
// per-instance isolation (the serve endpoint always isolates).
func (c *Client) RegisterModel(s *ModelSpec) error {
	compiled, err := s.compile()
	if err != nil {
		return err
	}
	if err := c.reg.Add(compiled.Entry()); err != nil {
		if errors.Is(err, models.ErrExists) {
			return wrapSentinel(ErrModelExists, err)
		}
		return wrapSentinel(ErrInvalidSpec, err)
	}
	return nil
}

// UpdateModel compiles the spec and registers or replaces it on the
// client's registry in place, like PUT /v1/models/{model}. Unlike
// RegisterModel, a taken name is not a conflict: the existing entry is
// replaced, its stale EFSMs and rendered artefacts are purged, and — when
// the previous entry came from a declarative spec whose structure the new
// spec preserves — every previously generated family member is linked so
// its next generation patches the cached machine's exploration
// incrementally (see spec.Delta and core.Regenerate) instead of exploring
// from scratch. The pipeline diffs each member's entry against the new
// one under its write lock, so concurrent updates never patch a machine
// with another edit's delta. It fails with ErrInvalidSpec when the spec
// does not compile.
func (c *Client) UpdateModel(s *ModelSpec) error {
	compiled, err := s.compile()
	if err != nil {
		return err
	}
	if _, err := c.pipeline.UpdateModel(compiled.Entry(), core.ModelDelta{}); err != nil {
		return wrapSentinel(ErrInvalidSpec, err)
	}
	return nil
}

// UnregisterModel removes a registered model from the client's registry
// and purges every memoised machine, EFSM and rendered artefact produced
// for it, so a later registration under the same name can never observe
// the departed model's cached work. (Re-registering a changed spec is
// additionally protected by fingerprints: behaviourally different specs
// never share a cache key.) It fails with ErrUnknownModel when the name
// is not registered.
func (c *Client) UnregisterModel(name string) error {
	if !c.reg.Remove(name) {
		return wrapSentinel(ErrUnknownModel,
			fmt.Errorf("asagen: unknown model %q (known: %v)", name, c.reg.Names()))
	}
	c.pipeline.PurgeModel(name)
	return nil
}

// Render produces the artefact for one request. Generation and rendering
// are memoised and single-flight. The returned error equals Result.Err.
func (c *Client) Render(ctx context.Context, req Request) (Result, error) {
	res := publicResult(c.pipeline.Render(ctx, artifact.Request{
		Model:  req.Model,
		Param:  req.Param,
		Format: req.Format,
	}))
	return res, res.Err
}

// RenderAll renders every request concurrently under the client's worker
// bound and yields (index, result) pairs in request order. Per-request
// failures are delivered in Result.Err; cancelling ctx makes the remaining
// results carry ctx.Err().
func (c *Client) RenderAll(ctx context.Context, reqs []Request) iter.Seq2[int, Result] {
	return func(yield func(int, Result) bool) {
		for i, res := range c.pipeline.RenderAll(ctx, toInternalRequests(reqs)) {
			if !yield(i, publicResult(res)) {
				return
			}
		}
	}
}

// Stream renders every request concurrently and yields results as they
// complete, in arbitrary order. Breaking out of the loop early never
// leaks the workers; renders already in flight run to completion.
func (c *Client) Stream(ctx context.Context, reqs []Request) iter.Seq[Result] {
	return func(yield func(Result) bool) {
		for res := range c.pipeline.Stream(ctx, toInternalRequests(reqs)) {
			if !yield(publicResult(res)) {
				return
			}
		}
	}
}

// AllRequests is the full registry cross product: every registered model
// (at its default parameter) in every registered format, skipping EFSM
// formats for models without an EFSM generalisation. Ordered by model
// name, then format name. Dynamically registered models are included.
func (c *Client) AllRequests() []Request {
	internal := c.pipeline.AllRequests()
	reqs := make([]Request, len(internal))
	for i, r := range internal {
		reqs[i] = Request{Model: r.Model, Param: r.Param, Format: r.Format}
	}
	return reqs
}

// Stats returns a snapshot of the client's memoisation counters.
func (c *Client) Stats() Stats {
	st := c.pipeline.Stats()
	return Stats{
		Generations:            st.Machine.Generations,
		CancelledGenerations:   st.Machine.Cancellations,
		IncrementalGenerations: st.Machine.Incremental,
		CacheHits:              st.Machine.Hits,
		CacheMisses:            st.Machine.Misses,
		CacheEvictions:         st.Machine.Evictions,
		CachedMachines:         st.Machine.Entries,
		RenderHits:             st.RenderHits,
		RenderMisses:           st.RenderMisses,
	}
}

// Purge drops every memoised machine, EFSM and rendered artefact.
func (c *Client) Purge() { c.pipeline.Purge() }

func toInternalRequests(reqs []Request) []artifact.Request {
	out := make([]artifact.Request, len(reqs))
	for i, r := range reqs {
		out[i] = artifact.Request{Model: r.Model, Param: r.Param, Format: r.Format}
	}
	return out
}

// publicResult converts a pipeline result to the public shape, classifying
// its error under the package sentinels.
func publicResult(res artifact.Result) Result {
	out := Result{
		Model:  res.Request.Model,
		Param:  res.Request.Param,
		Format: res.Request.Format,
		Err:    mapErr(res.Err),
	}
	if res.Err != nil {
		return out
	}
	out.MediaType = res.Artifact.MediaType
	out.Ext = res.Artifact.Ext
	out.Data = res.Artifact.Data
	out.ContentHash = hex.EncodeToString(res.Sum[:])
	out.Fingerprint = res.Fingerprint.String()
	return out
}
