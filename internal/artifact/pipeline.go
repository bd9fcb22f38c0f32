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
// There are three cache tiers and nothing beside them. Each is an instance
// of one table, memo.Memo, which states the single-flight, retention,
// cancellation and eviction rules once, and SetLimit bounds all three:
//
//   - members, per (registry name, parameter, generation options): the
//     family member resolved against the registry — entry, built model,
//     fingerprint, route key, and once an EFSM format asks for it the
//     machine generalised under the entry's abstraction — which every
//     format of the member, the cluster's routing, Probe, Machine and the
//     SDK's Generate share.
//   - renders, per (fingerprint, format): the rendered artefact with its
//     content hash, ETag and Content-Length, so a repeat request is a hit
//     here and in the member tier and computes nothing.
//   - machines (core.Cache), per fingerprint: the generated machine.
//
// What the pipeline knows about a family member lives in the member's
// entry: invalidating a registry name is a sweep of the member tier for
// the fingerprints to evict further down, and replacing a model in place
// replaces its members in place, each carrying the machine it can be
// regenerated from into the one generation that uses it. Under the render
// tier an optional content-addressed on-disk store (WithStore) persists
// every rendered artefact, so a pipeline reopened over a warm store
// serves previously rendered artefacts from disk without regenerating
// machines.
package artifact

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"asagen/internal/core"
	"asagen/internal/memo"
	"asagen/internal/models"
	"asagen/internal/render"
	"asagen/internal/spec"
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
	// parameter value; raw when the request failed before its family
	// member was resolved.
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
	// RenderHits and RenderMisses count render-tier lookups.
	RenderHits, RenderMisses int64
	// HotHits equals RenderHits: a repeat request is a render-tier hit,
	// answered with no generation, rendering or hashing. It stays a field
	// of its own because the benchmark harness asserts it.
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

	// The memo tiers, outermost first (the machines are p.cache).
	members memo.Memo[memberKey, *Member]
	renders memo.Memo[renderKey, rendered]

	// epoch counts Purge, PurgeModel and UpdateModel calls. The memo tiers
	// need no such guard — an entry deleted in flight is never findable
	// again — but store rows are found by key, not identity: a render that
	// resolved its model before one of those calls must not persist after
	// it. persistMu orders each check-and-Put against the increment, which
	// precedes the store eviction, so a straggler's row is either never
	// written or written before the eviction that removes it.
	persistMu sync.RWMutex
	epoch     uint64

	// writeMu orders UpdateModel and PurgeModel: each write replaces
	// exactly the registry entry and members the write before it left.
	writeMu sync.Mutex
}

// memberKey addresses one family member: a registry name, a resolved
// parameter and the machine-changing generation options of the call, as
// the flag word the fingerprint names them by.
type memberKey struct {
	model string
	param int
	flags int
}

// Member is one family member resolved against the registry: everything
// rendering, routing, probing and generating it need, computed once and
// shared. A Member is immutable but for its EFSM, filled on first use.
type Member struct {
	// Param is the resolved parameter; Model the entry's model built for it
	// and Fingerprint that model's fingerprint in the pipeline's cache.
	Param       int
	Model       core.Model
	Fingerprint core.Fingerprint

	entry models.Entry
	cache *core.Cache
	// route is Fingerprint in hex: the cluster routing key and the store's
	// key form.
	route string
	// opts are the generation options of the call the member was resolved
	// for. genOpts is what its generation runs under: opts and, for a member
	// whose entry was replaced in place, the machine to regenerate from,
	// which from names.
	opts, genOpts []core.Option
	from          core.Fingerprint
	// efsm is the machine generalised under the entry's abstraction, stored
	// once computed (see generalized): it is bounded, swept and purged with
	// the member's tier entry.
	efsm atomic.Pointer[core.EFSM]
}

// Machine returns the member's generated machine, memoised and
// single-flight in the pipeline's generation cache.
func (mb *Member) Machine(ctx context.Context) (*core.StateMachine, error) {
	return mb.cache.MachineForFingerprint(ctx, mb.Fingerprint, mb.Model, mb.genOpts...)
}

// generalized returns the member's one cached machine coalesced under the
// entry's abstraction, computing it on first use. An abstraction the
// machine shows unsound is ErrRender, as a refusal of the Go source gate
// is. Only a success is stored. First uses that race may each compute it,
// at most one per EFSM format, since the render tier coalesces each.
func (mb *Member) generalized(ctx context.Context) (*core.EFSM, error) {
	if efsm := mb.efsm.Load(); efsm != nil {
		return efsm, nil
	}
	machine, err := mb.Machine(ctx)
	if err != nil {
		return nil, err
	}
	abs, err := mb.entry.Abstraction(mb.Param)
	if err != nil {
		return nil, err
	}
	efsm, err := core.GeneralizeEFSM(machine, abs)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRender, err)
	}
	mb.efsm.Store(efsm)
	return efsm, nil
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
		jobs:  runtime.GOMAXPROCS(0),
		cache: core.NewGenerationCache(),
		reg:   models.Default(),
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
// long-running serve process may keep: n generated machines, n members
// (each with its EFSM), and n × len(render.Formats()) rendered artefacts —
// every format of every retained machine. Least recently used entries are
// evicted beyond each bound, so an unbounded parameter stream cannot grow
// memory without bound. Zero or less (the default) means unbounded.
func (p *Pipeline) SetLimit(n int) {
	p.cache.SetLimit(n)
	p.members.SetLimit(n)
	p.renders.SetLimit(n * len(render.Formats()))
}

// Stats returns a snapshot of the pipeline's cache counters.
func (p *Pipeline) Stats() Stats {
	var st *store.Stats
	if p.store != nil {
		s := p.store.Stats()
		st = &s
	}
	renders := p.renders.Stats()
	return Stats{
		Machine:      p.cache.Stats(),
		RenderHits:   renders.Hits,
		RenderMisses: renders.Misses,
		HotHits:      renders.Hits,
		Store:        st,
	}
}

// Purge drops every memoised machine, member (with its EFSM) and rendered
// artefact, including the rows and blobs of an attached store.
func (p *Pipeline) Purge() {
	p.advanceEpoch()
	if p.store != nil {
		p.store.Purge()
	}
	p.cache.Purge()
	p.members.Purge()
	p.renders.Purge()
}

// PurgeModel drops every memoised machine, EFSM and rendered artefact
// produced for one registry name — in-memory memos and, when a store is
// attached, its on-disk blobs and index rows — returning the number of
// machine generations evicted. Called when a dynamically registered model
// is unregistered, so a later registration under the same name can never
// observe the departed model's cached work.
func (p *Pipeline) PurgeModel(name string) int {
	p.writeMu.Lock()
	defer p.writeMu.Unlock()
	dropped := 0
	for _, mb := range p.sweep(name) {
		dropped += p.dropMachines(mb)
	}
	return dropped
}

// dropMachines evicts the member's machine and the one it was to be
// regenerated from, returning how many were there.
func (p *Pipeline) dropMachines(mb *Member) int {
	dropped := 0
	for _, fp := range []core.Fingerprint{mb.Fingerprint, mb.from} {
		if p.cache.Drop(fp) {
			dropped++
		}
	}
	return dropped
}

// sweep removes everything derived from the registry entry under name,
// generated machines excepted, and returns the members the tier held for
// it, their EFSMs leaving with them. The member tier goes first — in-flight
// resolutions too, which complete for their waiters and are never findable
// again — so a member found after the epoch advances was resolved after the
// registry changed. The store goes next, so a render-tier entry created
// after that tier is swept can only have read an already-evicted store.
func (p *Pipeline) sweep(name string) map[memberKey]*Member {
	swept := map[memberKey]*Member{}
	p.members.Each(func(key memberKey, mb *Member) {
		if key.model == name {
			swept[key] = mb
		}
	})
	p.members.DeleteFunc(func(key memberKey) bool { return key.model == name })

	fps := make(map[core.Fingerprint]bool, len(swept))
	routes := make(map[string]bool, len(swept))
	for _, mb := range swept {
		fps[mb.Fingerprint], routes[mb.route] = true, true
	}
	p.advanceEpoch()
	if p.store != nil {
		p.store.EvictModel(name, routes)
	}
	p.renders.DeleteFunc(func(key renderKey) bool { return fps[key.fp] })
	return swept
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

// Render produces the artefact for one request: the family member from the
// member tier, then the artefact from the render tier, so a repeat request
// is two memo hits and concurrent first requests coalesce in both. Below
// them generation is memoised per model fingerprint, single-flight, with an
// optional on-disk store probed before machines are generated.
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
	return p.render(ctx, req)
}

// render resolves the request's family member and takes its artefact from
// the render tier. Get before Do: a hit returns without building the
// closure, so a warm render allocates nothing. On a miss the leader probes
// the attached store before producing — a disk hit skips generation
// entirely — and persists what it produces. The render tier and the store
// are keyed by the member's fingerprint and the format; the cluster shards
// on the fingerprint alone, so all seven formats of one family member land
// on the node that holds its machine, and each propagates on its own.
func (p *Pipeline) render(ctx context.Context, req Request) Result {
	epoch := p.currentEpoch() // before resolve reads the member tier
	mb, err := p.resolve(ctx, req)
	if err != nil {
		return Result{Request: req, Err: err}
	}
	req.Param = mb.Param
	key := renderKey{fp: mb.Fingerprint, format: req.Format}
	out, ok := p.renders.Get(key)
	if !ok {
		out, err = p.renders.Do(ctx, key, func() (rendered, error) {
			skey := store.Key{Model: req.Model, Param: req.Param, Format: req.Format, Fingerprint: mb.route}
			if p.store != nil {
				if data, sum, media, ext, ok := p.store.Get(skey); ok {
					return newRendered(render.Artifact{Format: req.Format, MediaType: media, Ext: ext, Data: data}, sum), nil
				}
			}
			// Producing starts only for a caller still there to want it;
			// Probe relies on this to take what is warm and never generate.
			if err := ctx.Err(); err != nil {
				return rendered{}, err
			}
			art, err := p.produce(ctx, mb, req.Format)
			if err != nil {
				return rendered{}, err
			}
			out := newRendered(art, sha256.Sum256(art.Data))
			p.persist(epoch, skey, out)
			return out, nil
		})
	}
	return Result{
		Request: req, Fingerprint: mb.Fingerprint,
		Artifact: out.art, Sum: out.sum, ETag: out.etag, ContentLength: out.clen, Err: err,
	}
}

// resolve classifies req with the package's sentinel errors and returns
// the family member it names.
func (p *Pipeline) resolve(ctx context.Context, req Request) (*Member, error) {
	if !render.Known(req.Format) {
		return nil, fmt.Errorf("%w: %q (known: %v)", ErrUnknownFormat, req.Format, render.Formats())
	}
	mb, err := p.member(ctx, req.Model, req.Param, nil)
	if err != nil {
		return nil, err
	}
	if render.IsEFSMFormat(req.Format) && mb.entry.Abstraction == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoEFSM, req.Model)
	}
	return mb, nil
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

// Member resolves a model name, a parameter (non-positive selects the
// model's default) and per-call generation options against the pipeline's
// registry, through the member tier: the entry's model is built and
// fingerprinted on first use and shared from then on. The tier's entry is
// created before the registry is read, so PurgeModel and UpdateModel, which
// sweep the tier after the registry changes, leave no member of a departed
// entry behind.
func (p *Pipeline) Member(model string, param int, opts ...core.Option) (*Member, error) {
	// Resolution only computes, so there is nothing for a context to
	// cancel: a waiter waits on a leader that does not block.
	return p.member(context.Background(), model, param, opts)
}

func (p *Pipeline) member(ctx context.Context, model string, param int, opts []core.Option) (*Member, error) {
	if param <= 0 {
		var err error
		if _, param, err = p.entryFor(model, param); err != nil {
			return nil, err
		}
	}
	key := memberKey{model: model, param: param, flags: core.OptionFlags(opts...)}
	if mb, ok := p.members.Get(key); ok {
		return mb, nil
	}
	return p.members.Do(ctx, key, func() (*Member, error) {
		entry, _, err := p.entryFor(model, param)
		if err != nil {
			return nil, err
		}
		return p.newMember(entry, param, opts)
	})
}

// newMember builds the entry's model at param and fingerprints it under
// opts.
func (p *Pipeline) newMember(entry models.Entry, param int, opts []core.Option) (*Member, error) {
	model, err := entry.Build(param)
	if err != nil {
		return nil, err
	}
	fp := p.cache.Fingerprint(model, opts...)
	return &Member{
		Param: param, Model: model, Fingerprint: fp,
		entry: entry, cache: p.cache, route: fp.String(), opts: opts, genOpts: opts,
	}, nil
}

// produce takes the member's machine from the generation cache — or, for
// an EFSM format, the member's generalisation of it — and renders it.
func (p *Pipeline) produce(ctx context.Context, mb *Member, format string) (render.Artifact, error) {
	var art render.Artifact
	if render.IsEFSMFormat(format) {
		efsm, err := mb.generalized(ctx)
		if err != nil {
			return art, err
		}
		renderer, err := render.NewEFSM(format)
		if err == nil {
			art, err = renderer.RenderEFSM(efsm)
		}
		if err != nil {
			return art, fmt.Errorf("%w: %v", ErrRender, err)
		}
		return art, nil
	}
	machine, err := mb.Machine(ctx)
	if err != nil {
		return art, err
	}
	renderer, err := render.New(format)
	if err == nil {
		art, err = renderer.Render(machine)
	}
	if err != nil {
		return art, fmt.Errorf("%w: %v", ErrRender, err)
	}
	return art, nil
}

// Machine resolves a model name, parameter and per-call generation options
// (see Member) and returns the generated machine, its fingerprint and the
// resolved parameter. Generation is memoised and single-flight through the
// pipeline's cache, exactly like the artefact path; the trace-conformance
// layer generates the machines it monitors through here, so a check and a
// render of the same family member share one generation.
func (p *Pipeline) Machine(ctx context.Context, model string, param int, opts ...core.Option) (*core.StateMachine, core.Fingerprint, int, error) {
	mb, err := p.member(ctx, model, param, opts)
	if err != nil {
		return nil, core.Fingerprint{}, 0, err
	}
	machine, err := mb.Machine(ctx)
	return machine, mb.Fingerprint, mb.Param, err
}

// UpdateModel replaces the registry entry under entry.Name in place,
// reporting whether a previous entry existed (false means the model was
// newly registered). Rendered artefacts and EFSMs derived from the
// previous entry are purged (from the store too, when one is attached).
// Each member the tier held for the name is replaced by the new entry's
// member for the same parameter and options, so a name has one member per
// (parameter, options) however often it is edited; the old member's
// machine is kept as what the new one's first generation regenerates from
// (see core.WithRegenerationFrom), which spends it.
//
// The pipeline computes each member's delta itself, from the entry that
// member was built from to the new one (spec.Delta), under the lock that
// orders every UpdateModel and PurgeModel: a caller needs to read nothing
// before the write, and the zero delta is the usual argument. A full delta
// forces every member to regenerate from scratch; any other is re-derived
// per member.
func (p *Pipeline) UpdateModel(entry models.Entry, delta core.ModelDelta) (bool, error) {
	p.writeMu.Lock()
	defer p.writeMu.Unlock()
	replaced, err := p.reg.Replace(entry)
	if err != nil {
		return false, err
	}
	for key, old := range p.sweep(entry.Name) {
		mb, err := p.newMember(entry, old.Param, old.opts)
		switch {
		case err != nil:
			// The new entry has no member at this parameter.
			p.dropMachines(old)
			continue
		case mb.Fingerprint == old.Fingerprint:
			// The same machine: whatever the old member was waiting to be
			// regenerated from, this one still is.
			mb.genOpts, mb.from = old.genOpts, old.from
		default:
			// The delta runs from old's entry to this one and says nothing
			// about the entry before, so a source the old member never used
			// goes unused.
			p.cache.Drop(old.from)
			d := delta
			if !d.Full {
				d = spec.Delta(old.entry, entry)
			}
			mb.genOpts = append(slices.Clip(mb.opts), core.WithRegenerationFrom(old.Fingerprint, d))
			mb.from = old.Fingerprint
		}
		// A resolution that got here first read the new entry too, and wins.
		p.members.Do(context.Background(), key, func() (*Member, error) { return mb, nil })
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
	var reqs []Request
	for _, name := range p.reg.Names() {
		entry, err := p.reg.Get(name)
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
