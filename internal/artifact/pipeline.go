// Package artifact is the unified artefact pipeline: it takes
// (model × format) requests, memoises machine generation per model
// fingerprint in a content-addressed cache, renders formats concurrently
// under a bounded worker pool, and exposes batch (RenderAll) and streaming
// (Stream) APIs. It is the layer behind `fsmgen -all`, `fsmgen serve` and
// the codegen example: one generation per distinct fingerprint no matter
// how many formats or concurrent requests consume it (§4.2's cached
// generation policy, industrialised). Every format is a rendering of that
// one machine: the EFSM formats (§5.3) generalise the cached generation
// under the model's abstraction instead of generating a second time.
//
// Every cache tier is an instance of one table, memo.Memo, which states
// the single-flight, retention, cancellation and eviction rules once. The
// result tier answers repeat requests with a fully precomputed Result
// (shared bytes, content hash, ETag) without resolving the model; below it
// sit the render tier (per fingerprint and format), the EFSM tier and the
// generation cache (both per fingerprint), and beside it the route tier of
// the clustered serve path. Under the render tier an optional
// content-addressed on-disk store (WithStore) persists every rendered
// artefact, so a pipeline reopened over a warm store serves previously
// rendered artefacts from disk without regenerating machines.
package artifact

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"strconv"
	"sync"

	"asagen/internal/core"
	"asagen/internal/memo"
	"asagen/internal/models"
	"asagen/internal/render"
	"asagen/internal/store"
)

// Errors classifying request failures, for callers (such as the serve
// endpoint) that map them to protocol responses.
var (
	// ErrUnknownModel reports a model name absent from the registry.
	ErrUnknownModel = errors.New("artifact: unknown model")
	// ErrUnknownFormat reports a format name absent from the registry.
	ErrUnknownFormat = errors.New("artifact: unknown format")
	// ErrNoEFSM reports an EFSM format requested for a model that
	// declares no EFSM abstraction.
	ErrNoEFSM = errors.New("artifact: model declares no EFSM abstraction")
	// ErrRender wraps a renderer failure on a well-formed request — a
	// server-side defect, as opposed to the request-classification errors
	// above.
	ErrRender = errors.New("artifact: render failed")
)

// Request names one artefact: a registered model, a parameter value
// (<= 0 selects the model's default) and a registered format.
type Request struct {
	Model  string
	Param  int
	Format string
}

// Result is the outcome of one request. Results are shared between
// concurrent and repeat callers; treat Artifact.Data as immutable.
type Result struct {
	// Request echoes the request with Param resolved to the effective
	// parameter value.
	Request Request
	// Fingerprint is the model fingerprint of the family member every
	// format renders; zero only when the request failed before its model
	// was built.
	Fingerprint core.Fingerprint
	// Artifact is the rendered artefact; zero when Err is set.
	Artifact render.Artifact
	// Sum is the SHA-256 of the artefact content, for content addressing.
	Sum [sha256.Size]byte
	// ETag is the strong HTTP entity validator for the artefact content
	// (the quoted hex Sum), precomputed at render time so the serve path
	// never re-derives it per request. Empty when Err is set.
	ETag string
	// ContentLength is the decimal rendering of len(Artifact.Data),
	// precomputed at render time for the same reason. Empty when Err is
	// set.
	ContentLength string
	// Err is the failure, classified by the package's sentinel errors.
	Err error
}

// ContentHash returns the hex SHA-256 of the artefact content.
func (r Result) ContentHash() string { return hex.EncodeToString(r.Sum[:]) }

// FileName returns a content-addressed filename:
// <model>-r<param>.<format>.<hash12><ext>. Equal content always maps to
// the same name, so re-running a batch never duplicates artefacts.
func (r Result) FileName() string {
	return fmt.Sprintf("%s-r%d.%s.%s%s",
		r.Request.Model, r.Request.Param, r.Request.Format,
		hex.EncodeToString(r.Sum[:6]), r.Artifact.Ext)
}

// Stats is a snapshot of the pipeline's caches.
type Stats struct {
	// Machine reports the generation cache: at most one generation per
	// distinct model fingerprint, however many formats consume it.
	Machine core.CacheStats
	// RenderHits and RenderMisses count render-tier lookups; hits
	// answered by the result tier count as RenderHits too.
	RenderHits, RenderMisses int64
	// HotHits counts result-tier hits: requests answered with a
	// precomputed Result — no model build, no hashing, no render tier.
	HotHits int64
	// Store reports the on-disk artifact store; nil when none is attached.
	Store *store.Stats
}

// Pipeline renders (model × format) requests with memoised generation and
// rendering. It is safe for concurrent use.
type Pipeline struct {
	jobs  int
	cache *core.Cache
	reg   *models.Registry
	store *store.Store

	// The memo tiers, outermost first. results holds complete successful
	// Results per request, the zero-work fast path for repeat serve
	// traffic; routes holds the cluster routing key per request, so the
	// clustered serve path pays one lookup instead of a model build and
	// fingerprint per request. Both are keyed by the request with its
	// parameter resolved (see key), so the raw and resolved forms of one
	// request share an entry.
	results memo.Memo[Request, Result]
	routes  memo.Memo[Request, string]
	renders memo.Memo[renderKey, rendered]
	efsms   memo.Memo[core.Fingerprint, *core.EFSM]

	mu sync.Mutex
	// modelFPs records, per registry name, the machine fingerprints the
	// pipeline generated for it and what each was generated from, so
	// PurgeModel can evict a dynamically unregistered model's generations
	// from the fingerprint-keyed cache and UpdateModel can link each
	// family member's old generation to its replacement for incremental
	// regeneration.
	modelFPs map[string]map[core.Fingerprint]tracked

	// epoch counts Purge, PurgeModel and UpdateModel calls. The memo tiers
	// need no such guard — an entry deleted in flight is never findable
	// again — but store rows are found by key, not identity: a render that
	// resolved its model before one of those calls must not persist after
	// it. persistMu orders each check-and-Put against the increment, which
	// precedes the store eviction, so a straggler's row is either never
	// written or written before the eviction that removes it.
	persistMu sync.RWMutex
	epoch     uint64
}

// tracked is what a recorded fingerprint was computed from, besides the
// registry entry: the parameter and the per-call generation options.
type tracked struct {
	param int
	opts  []core.Option
}

// renderKey addresses one rendered artefact: two models with equal
// fingerprints share the rendered bytes.
type renderKey struct {
	fp     core.Fingerprint
	format string
}

// rendered is the memoised outcome of one successful render: the artefact
// plus every piece of serving metadata precomputed once.
type rendered struct {
	art  render.Artifact
	sum  [sha256.Size]byte
	etag string
	clen string
}

func newRendered(art render.Artifact, sum [sha256.Size]byte) rendered {
	return rendered{art: art, sum: sum, etag: etagFor(sum), clen: strconv.Itoa(len(art.Data))}
}

// Option configures a Pipeline.
type Option func(*Pipeline)

// WithJobs bounds the worker pool used by RenderAll and Stream. Values
// below 1 select GOMAXPROCS.
func WithJobs(n int) Option {
	return func(p *Pipeline) {
		if n >= 1 {
			p.jobs = n
		}
	}
}

// WithGenerateOptions sets the core generation options applied to every
// machine the pipeline generates. They become part of the fingerprint, so
// pipelines with different options never share cache entries.
func WithGenerateOptions(opts ...core.Option) Option {
	return func(p *Pipeline) { p.cache = core.NewGenerationCache(opts...) }
}

// WithRegistry substitutes the scenario registry the pipeline resolves
// model names against. The default is the process-wide registry of
// built-in scenarios; a long-running serve instance passes its own clone
// so dynamic registrations are never shared between concurrent servers.
func WithRegistry(r *models.Registry) Option {
	return func(p *Pipeline) {
		if r != nil {
			p.reg = r
		}
	}
}

// WithStore layers a content-addressed on-disk artifact store under the
// render memo. Every artefact rendered is persisted, and a render-memo
// miss probes the store before generating: a pipeline opened over a warm
// store serves previously rendered artefacts from disk — the first
// request after a restart is a disk hit, not a regeneration. The caller
// retains ownership of the store (Close it after the pipeline is done).
func WithStore(s *store.Store) Option {
	return func(p *Pipeline) { p.store = s }
}

// New returns a pipeline with the given options.
func New(opts ...Option) *Pipeline {
	p := &Pipeline{
		jobs:     runtime.GOMAXPROCS(0),
		cache:    core.NewGenerationCache(),
		reg:      models.Default(),
		modelFPs: make(map[string]map[core.Fingerprint]tracked),
	}
	for _, opt := range opts {
		opt(p)
	}
	return p
}

// Cache returns the pipeline's generation cache.
func (p *Pipeline) Cache() *core.Cache { return p.cache }

// Registry returns the scenario registry the pipeline resolves model
// names against.
func (p *Pipeline) Registry() *models.Registry { return p.reg }

// Store returns the attached artifact store; nil when none.
func (p *Pipeline) Store() *store.Store { return p.store }

// SetLimit bounds every memo tier from one number, the machines a
// long-running serve process may keep: n generated machines and EFSMs,
// and n × len(render.Formats()) rendered artefacts, Results and routes —
// every format of every retained machine. Least recently used entries are
// evicted beyond each bound, so an unbounded parameter stream cannot grow
// memory without bound. Zero or less (the default) means unbounded.
func (p *Pipeline) SetLimit(n int) {
	artefacts := n * len(render.Formats())
	p.cache.SetLimit(n)
	p.efsms.SetLimit(n)
	p.renders.SetLimit(artefacts)
	p.results.SetLimit(artefacts)
	p.routes.SetLimit(artefacts)
}

// Stats returns a snapshot of the pipeline's cache counters.
func (p *Pipeline) Stats() Stats {
	var st *store.Stats
	if p.store != nil {
		s := p.store.Stats()
		st = &s
	}
	results, renders := p.results.Stats(), p.renders.Stats()
	return Stats{
		Machine:      p.cache.Stats(),
		RenderHits:   results.Hits + renders.Hits,
		RenderMisses: renders.Misses,
		HotHits:      results.Hits,
		Store:        st,
	}
}

// Purge drops every memoised machine, EFSM and rendered artefact,
// including the rows and blobs of an attached store.
func (p *Pipeline) Purge() {
	p.advanceEpoch()
	if p.store != nil {
		p.store.Purge()
	}
	p.mu.Lock()
	p.modelFPs = make(map[string]map[core.Fingerprint]tracked)
	p.mu.Unlock()
	p.cache.Purge()
	p.results.Purge()
	p.routes.Purge()
	p.renders.Purge()
	p.efsms.Purge()
}

// PurgeModel drops every memoised machine, EFSM and rendered artefact
// produced for one registry name — in-memory memos and, when a store is
// attached, its on-disk blobs and index rows — returning the number of
// machine generations evicted. Called when a dynamically registered model
// is unregistered, so a later registration under the same name can never
// observe the departed model's cached work.
func (p *Pipeline) PurgeModel(name string) int {
	p.mu.Lock()
	fps := p.modelFPs[name]
	delete(p.modelFPs, name)
	p.mu.Unlock()
	p.evictDerived(name, fps)
	dropped := 0
	for fp := range fps {
		if p.cache.Drop(fp) {
			dropped++
		}
	}
	return dropped
}

// evictDerived drops everything derived from the registry entry under
// name, given the machine fingerprints recorded for it: the store's rows
// and every memo tier's entries, generated machines excepted. The store
// goes first, so an entry created after the tiers are swept can only have
// read an already-evicted store; computations in flight across the sweep
// complete for their waiters and are never findable again.
func (p *Pipeline) evictDerived(name string, fps map[core.Fingerprint]tracked) {
	p.advanceEpoch()
	if p.store != nil {
		p.store.EvictModel(name, fpHexSet(fps))
	}
	named := func(req Request) bool { return req.Model == name }
	p.results.DeleteFunc(named)
	p.routes.DeleteFunc(named)
	recorded := func(fp core.Fingerprint) bool {
		_, ok := fps[fp]
		return ok
	}
	p.efsms.DeleteFunc(recorded)
	p.renders.DeleteFunc(func(key renderKey) bool { return recorded(key.fp) })
}

// fpHexSet renders a fingerprint set in the store's hex key form.
func fpHexSet(fps map[core.Fingerprint]tracked) map[string]bool {
	if len(fps) == 0 {
		return nil
	}
	set := make(map[string]bool, len(fps))
	for fp := range fps {
		set[fp.String()] = true
	}
	return set
}

func (p *Pipeline) advanceEpoch() {
	p.persistMu.Lock()
	p.epoch++
	p.persistMu.Unlock()
}

func (p *Pipeline) currentEpoch() uint64 {
	p.persistMu.RLock()
	defer p.persistMu.RUnlock()
	return p.epoch
}

// persist writes one rendered artefact to the attached store, unless the
// epoch it was resolved under has passed (see Pipeline.epoch).
func (p *Pipeline) persist(epoch uint64, skey store.Key, out rendered) {
	if p.store == nil {
		return
	}
	p.persistMu.RLock()
	defer p.persistMu.RUnlock()
	if p.epoch == epoch {
		// Persist errors degrade to an unpersisted artefact and are
		// counted by the store; the response is unaffected.
		_ = p.store.Put(skey, out.art.Data, out.sum, out.art.MediaType, out.art.Ext)
	}
}

// etagFor renders the strong HTTP entity validator for a content sum.
func etagFor(sum [sha256.Size]byte) string {
	return `"` + hex.EncodeToString(sum[:]) + `"`
}

// Render produces the artefact for one request. Repeat requests are
// answered from the result tier; concurrent first requests for the same
// request coalesce into one computation. Below that, generation is
// memoised per model fingerprint and rendering per (fingerprint, format),
// both single-flight, with an optional on-disk store probed before
// machines are generated.
//
// Cancelling ctx aborts an in-flight generation promptly; the aborted
// computation leaves no cache entry, and Result.Err carries ctx.Err().
// Waiters coalesced behind a leader that was cancelled retry with their
// own context rather than inheriting the leader's cancellation. A nil ctx
// is treated as context.Background().
func (p *Pipeline) Render(ctx context.Context, req Request) Result {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return Result{Request: req, Err: err}
	}
	return p.serve(ctx, req)
}

// serve answers req from the result tier, computing it on first use.
func (p *Pipeline) serve(ctx context.Context, req Request) Result {
	key := p.key(req)
	// Get before Do: a hit returns here without building Do's closure or
	// passing the Result through it, which the warm batch path measures.
	if res, ok := p.results.Get(key); ok {
		return res
	}
	res, err := p.results.Do(ctx, key, func() (Result, error) {
		res := p.render(ctx, key)
		return res, res.Err
	})
	if err != nil && res.Err == nil {
		// This caller's own context ended while it waited on another's run.
		return Result{Request: req, Err: err}
	}
	return res
}

// key returns the result- and route-tier key for req: the request with a
// non-positive parameter replaced by the model's default, so the raw and
// resolved forms of one request share one entry. The key is settled before
// the entry is created and the entry before resolve reads the registry, so
// whatever a later PurgeModel or UpdateModel finds under the model's name
// covers every computation that saw the departing registry entry. An
// unknown model keeps the raw form; resolve then classifies the failure.
func (p *Pipeline) key(req Request) Request {
	if req.Param <= 0 {
		if _, param, err := p.entryFor(req.Model, req.Param); err == nil {
			req.Param = param
		}
	}
	return req
}

// resolution is a request resolved against the registry: the entry, the
// effective parameter, the built model and its fingerprint.
type resolution struct {
	req   Request
	entry models.Entry
	model core.Model
	fp    core.Fingerprint
}

// resolve classifies req with the package's sentinel errors and builds
// what rendering, routing and probing it all need. On failure the
// resolution is filled in as far as resolution got.
func (p *Pipeline) resolve(req Request) (resolution, error) {
	r := resolution{req: req}
	var err error
	if r.entry, r.req.Param, err = p.entryFor(req.Model, req.Param); err != nil {
		return r, err
	}
	if !render.Known(req.Format) {
		return r, fmt.Errorf("%w: %q (known: %v)", ErrUnknownFormat, req.Format, render.Formats())
	}
	if render.IsEFSMFormat(req.Format) && r.entry.Abstraction == nil {
		return r, fmt.Errorf("%w: %q", ErrNoEFSM, req.Model)
	}
	r.model, r.fp, err = p.build(r.entry, r.req.Param)
	return r, err
}

// entryFor looks the model up in the registry and resolves a non-positive
// parameter to the entry's default.
func (p *Pipeline) entryFor(name string, param int) (models.Entry, int, error) {
	entry, err := p.reg.Get(name)
	if err != nil {
		return entry, param, fmt.Errorf("%w: %q (known: %v)", ErrUnknownModel, name, p.reg.Names())
	}
	if param <= 0 {
		param = entry.DefaultParam
	}
	return entry, param, nil
}

// build constructs the entry's model at param and fingerprints it,
// tracking the fingerprint under the entry's name.
func (p *Pipeline) build(entry models.Entry, param int) (core.Model, core.Fingerprint, error) {
	model, err := entry.Build(param)
	if err != nil {
		return nil, core.Fingerprint{}, err
	}
	fp := p.cache.Fingerprint(model)
	p.TrackFingerprint(entry.Name, param, fp)
	return model, fp, nil
}

// renderKey and storeKey address the resolved artefact in the render tier
// and the store. Both carry the model fingerprint, which is also what the
// cluster shards on: all seven formats of one family member land on the
// node that holds its machine, and a single propagation warms all of them.
func (r resolution) renderKey() renderKey {
	return renderKey{fp: r.fp, format: r.req.Format}
}

func (r resolution) storeKey() store.Key {
	return store.Key{Model: r.req.Model, Param: r.req.Param, Format: r.req.Format, Fingerprint: r.fp.String()}
}

// render is the slow path behind the result tier: resolve the request
// against the registry and take the artefact from the render tier, whose
// leader probes the attached store before producing — a disk hit skips
// generation entirely — and persists what it produces.
func (p *Pipeline) render(ctx context.Context, req Request) Result {
	epoch := p.currentEpoch() // before resolve reads the registry
	r, err := p.resolve(req)
	res := Result{Request: r.req, Fingerprint: r.fp, Err: err}
	if err != nil {
		return res
	}
	out, err := p.renders.Do(ctx, r.renderKey(), func() (rendered, error) {
		skey := r.storeKey()
		if p.store != nil {
			if data, sum, media, ext, ok := p.store.Get(skey); ok {
				return newRendered(render.Artifact{Format: req.Format, MediaType: media, Ext: ext, Data: data}, sum), nil
			}
		}
		// Producing starts only for a caller still there to want it; Probe
		// relies on this to take what is warm and never generate.
		if err := ctx.Err(); err != nil {
			return rendered{}, err
		}
		art, err := p.produce(ctx, r)
		if err != nil {
			return rendered{}, err
		}
		out := newRendered(art, sha256.Sum256(art.Data))
		p.persist(epoch, skey, out)
		return out, nil
	})
	res.Artifact, res.Sum, res.ETag, res.ContentLength, res.Err = out.art, out.sum, out.etag, out.clen, err
	return res
}

// produce takes the family member's machine from the generation cache —
// or, for an EFSM format, its generalisation from the EFSM tier — and
// renders it.
func (p *Pipeline) produce(ctx context.Context, r resolution) (render.Artifact, error) {
	var art render.Artifact
	if render.IsEFSMFormat(r.req.Format) {
		efsm, err := p.efsms.Do(ctx, r.fp, func() (*core.EFSM, error) { return p.generalize(ctx, r) })
		if err != nil {
			return art, err
		}
		renderer, err := render.NewEFSM(r.req.Format)
		if err == nil {
			art, err = renderer.RenderEFSM(efsm)
		}
		if err != nil {
			return art, fmt.Errorf("%w: %v", ErrRender, err)
		}
		return art, nil
	}
	machine, err := p.cache.MachineForFingerprint(ctx, r.fp, r.model)
	if err != nil {
		return art, err
	}
	renderer, err := render.New(r.req.Format)
	if err == nil {
		art, err = renderer.Render(machine)
	}
	if err != nil {
		return art, fmt.Errorf("%w: %v", ErrRender, err)
	}
	return art, nil
}

// generalize is the EFSM tier's miss path: the family member's one cached
// machine, coalesced under the entry's abstraction. Every machine the
// cache can hold generalises soundly.
func (p *Pipeline) generalize(ctx context.Context, r resolution) (*core.EFSM, error) {
	machine, err := p.cache.MachineForFingerprint(ctx, r.fp, r.model)
	if err != nil {
		return nil, err
	}
	abs, err := r.entry.Abstraction(r.req.Param)
	if err != nil {
		return nil, err
	}
	return core.GeneralizeEFSM(machine, abs)
}

// Machine resolves a model name and parameter against the pipeline's
// registry and returns the generated machine, its fingerprint and the
// resolved parameter (non-positive params select the model's default).
// Generation is memoised and single-flight through the pipeline's cache,
// exactly like the artefact path, and the fingerprint is tracked so
// PurgeModel evicts the machine; the trace-conformance layer generates
// the machines it monitors through here, so a check and a render of the
// same family member share one generation.
func (p *Pipeline) Machine(ctx context.Context, model string, param int) (*core.StateMachine, core.Fingerprint, int, error) {
	entry, param, err := p.entryFor(model, param)
	if err != nil {
		return nil, core.Fingerprint{}, 0, err
	}
	m, fp, err := p.build(entry, param)
	if err != nil {
		return nil, fp, param, err
	}
	machine, err := p.cache.MachineForFingerprint(ctx, fp, m)
	return machine, fp, param, err
}

// TrackFingerprint records that the named model generates under fp at the
// given parameter and per-call options in the pipeline's cache, so
// PurgeModel can later evict the generation and UpdateModel can link it
// for incremental regeneration. Callers that generate through Cache()
// directly (the SDK facade's Generate) must track here for unregistration
// to purge their machines; Render tracks its own requests.
func (p *Pipeline) TrackFingerprint(model string, param int, fp core.Fingerprint, opts ...core.Option) {
	p.mu.Lock()
	set, ok := p.modelFPs[model]
	if !ok {
		set = make(map[core.Fingerprint]tracked, 1)
		p.modelFPs[model] = set
	}
	set[fp] = tracked{param: param, opts: opts}
	p.mu.Unlock()
}

// UpdateModel replaces the registry entry under entry.Name in place,
// reporting whether a previous entry existed (false means the model was
// newly registered). Rendered artefacts and EFSMs derived from the
// previous entry are purged (from the store too, when one is attached);
// generated machines are kept and, when delta permits (see
// core.Cache.LinkDelta), each previously generated family member is
// linked so its replacement's first generation regenerates incrementally
// from the cached machine instead of exploring from scratch. The delta
// must conservatively describe the edit from the previous entry's model
// to the new one (spec.Diff produces it for declarative specs); pass a
// full delta when the relationship between the entries is unknown.
func (p *Pipeline) UpdateModel(entry models.Entry, delta core.ModelDelta) (bool, error) {
	oldEntry, oldErr := p.reg.Get(entry.Name)
	replaced, err := p.reg.Replace(entry)
	if err != nil {
		return false, err
	}

	// Artefacts derived from the previous entry are stale; renders and
	// EFSMs are keyed by fingerprint and the new entry fingerprints
	// differently, so those are unreachable garbage either way. The recorded
	// fingerprints stay recorded: the machines are kept, and PurgeModel
	// must still find them.
	p.mu.Lock()
	old := maps.Clone(p.modelFPs[entry.Name])
	p.mu.Unlock()
	p.evictDerived(entry.Name, old)

	if !replaced || oldErr != nil || delta.IsFull() {
		return replaced, nil
	}
	// Link each recorded generation of the departing entry. Its fingerprint
	// is recomputed from that entry, so fingerprints left over from entries
	// two or more versions back — against which delta says nothing — are
	// never linked.
	for oldFP, t := range old {
		om, err := oldEntry.Model(t.param)
		if err != nil || p.cache.Fingerprint(om, t.opts...) != oldFP {
			continue
		}
		nm, err := entry.Model(t.param)
		if err != nil {
			continue
		}
		newFP := p.cache.Fingerprint(nm, t.opts...)
		p.TrackFingerprint(entry.Name, t.param, newFP, t.opts...)
		p.cache.LinkDelta(newFP, oldFP, delta)
	}
	return replaced, nil
}

// RenderAll renders every request concurrently under the pipeline's
// worker bound and returns the results in request order. Cancelling ctx
// makes the remaining requests complete immediately with ctx.Err() in
// their Result.Err.
func (p *Pipeline) RenderAll(ctx context.Context, reqs []Request) []Result {
	results := make([]Result, len(reqs))
	p.each(ctx, reqs, func(i int, res Result) { results[i] = res })
	return results
}

// Stream renders every request concurrently and delivers results on the
// returned channel as they complete, in arbitrary order. The channel is
// closed once all requests are done. It is buffered for the full request
// count, so a consumer that stops reading early strands at most the
// remaining renders' memory — never the worker goroutines.
func (p *Pipeline) Stream(ctx context.Context, reqs []Request) <-chan Result {
	out := make(chan Result, len(reqs))
	go func() {
		defer close(out)
		p.each(ctx, reqs, func(_ int, res Result) { out <- res })
	}()
	return out
}

// each runs Render for every request on a bounded worker pool. deliver
// must be safe for concurrent calls with distinct indices (slice writes to
// distinct elements and channel sends both are).
func (p *Pipeline) each(ctx context.Context, reqs []Request, deliver func(i int, res Result)) {
	workers := min(p.jobs, len(reqs))
	if workers < 1 {
		return
	}
	var (
		wg   sync.WaitGroup
		next = make(chan int)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				deliver(i, p.Render(ctx, reqs[i]))
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()
}

// AllRequests is the full cross product of the pipeline's registry: every
// registered model (at its default parameter) in every registered format,
// skipping EFSM formats for models that declare no EFSM abstraction.
// Requests are ordered by model name, then format name, so dynamically
// registered models join a batch deterministically.
func (p *Pipeline) AllRequests() []Request {
	return registryRequests(p.reg)
}

// AllRequests is the full default-registry cross product; see
// Pipeline.AllRequests for the per-pipeline form.
func AllRequests() []Request {
	return registryRequests(models.Default())
}

func registryRequests(reg *models.Registry) []Request {
	var reqs []Request
	for _, name := range reg.Names() {
		entry, err := reg.Get(name)
		if err != nil {
			continue
		}
		for _, format := range render.Formats() {
			if render.IsEFSMFormat(format) && entry.Abstraction == nil {
				continue
			}
			reqs = append(reqs, Request{Model: name, Format: format})
		}
	}
	return reqs
}
