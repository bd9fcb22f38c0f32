// Package models is the scenario registry: every abstract model the
// repository implements is registered here under a stable name, so the
// renderer, runtime, simulation and benchmark layers can select any
// scenario by name instead of being hardwired to one model package.
//
// A registry entry bundles the model builder (parameter → core.Model), the
// optional EFSM generalisation, and the metadata commands need to present
// the scenario (parameter semantics, defaults, sweep values). A built-in
// family is a spec document embedded in this package and compiled at
// initialisation; only the commit families are hand-written adapters.
//
// Registries are first-class values: the process-wide default registry
// holds the built-in scenarios, and callers that accept dynamic
// registrations (the SDK client, the serve endpoint) may Clone it so
// mutable state is never shared between independent instances.
package models

import (
	"embed"
	"errors"
	"fmt"
	"sort"
	"sync"

	"asagen/internal/commit"
	"asagen/internal/core"
	"asagen/internal/spec"
)

// Entry describes one registered scenario. It is core.Entry, which sits
// below both this registry and the spec compiler that builds most entries.
type Entry = core.Entry

// VocabularyCommit marks models whose machines react to the commit
// protocol's message set (UPDATE, VOTE, COMMIT, FREE, NOT_FREE), which the
// version-service members dispatch.
const VocabularyCommit = "commit"

// abstraction adapts a model package's constructor pair to the
// core.Abstraction hook.
func abstraction[M any, A core.EFSMAbstraction](newModel func(int) (M, error), newAbstraction func(M) A) core.Abstraction {
	return func(param int) (core.EFSMAbstraction, error) {
		m, err := newModel(param)
		if err != nil {
			return nil, err
		}
		return newAbstraction(m), nil
	}
}

// Errors classifying registry mutations, for callers that map them to
// protocol responses.
var (
	// ErrExists reports a registration under a name already taken.
	ErrExists = errors.New("models: model already registered")
	// ErrInvalidEntry reports a structurally invalid entry (empty name or
	// missing builder).
	ErrInvalidEntry = errors.New("models: invalid entry")
)

// Registry is a named set of scenario entries. It is safe for concurrent
// use: entries are normally added at package initialisation, but dynamic
// registrations (SDK clients, the writable serve endpoint, tests) may Add
// and Remove while concurrent pipeline workers resolve names.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]Entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: map[string]Entry{}}
}

// defaultRegistry is the process-wide registry holding the built-in
// scenarios; the package-level functions operate on it.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry of built-in scenarios.
func Default() *Registry { return defaultRegistry }

// Clone returns a new registry with a copy of r's current entries.
// Mutations of the clone and the original are independent, which gives
// long-running services per-instance registry isolation.
func (r *Registry) Clone() *Registry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	entries := make(map[string]Entry, len(r.entries))
	for name, e := range r.entries {
		entries[name] = e
	}
	return &Registry{entries: entries}
}

// Add registers an entry, failing with ErrExists on a duplicate name and
// ErrInvalidEntry on an empty name or missing builder.
func (r *Registry) Add(e Entry) error {
	if e.Name == "" {
		return fmt.Errorf("%w: empty name", ErrInvalidEntry)
	}
	if e.Build == nil {
		return fmt.Errorf("%w: entry %q has no builder", ErrInvalidEntry, e.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[e.Name]; dup {
		return fmt.Errorf("%w: %q", ErrExists, e.Name)
	}
	r.entries[e.Name] = e
	return nil
}

// Replace registers an entry under its name whether or not the name is
// taken, reporting whether an existing entry was replaced (false means the
// entry was newly added). Validation matches Add. Replacement is the
// registry half of in-place model updates (PUT /v1/models/{model}): the
// pipeline layer is responsible for invalidating or re-linking any
// generations cached for the previous entry.
func (r *Registry) Replace(e Entry) (bool, error) {
	if e.Name == "" {
		return false, fmt.Errorf("%w: empty name", ErrInvalidEntry)
	}
	if e.Build == nil {
		return false, fmt.Errorf("%w: entry %q has no builder", ErrInvalidEntry, e.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	_, existed := r.entries[e.Name]
	r.entries[e.Name] = e
	return existed, nil
}

// Remove unregisters the named entry, reporting whether it was present.
func (r *Registry) Remove(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[name]; !ok {
		return false
	}
	delete(r.entries, name)
	return true
}

// Get returns the entry registered under name. The error lists the known
// names so command-line mistakes are self-explanatory.
func (r *Registry) Get(name string) (Entry, error) {
	r.mu.RLock()
	e, ok := r.entries[name]
	r.mu.RUnlock()
	if !ok {
		return Entry{}, fmt.Errorf("models: unknown model %q (known: %v)", name, r.Names())
	}
	return e, nil
}

// Names returns all registered names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	names := make([]string, 0, len(r.entries))
	for name := range r.entries {
		names = append(names, name)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Build constructs the named model for a parameter value (<= 0 selects the
// entry's default parameter).
func (r *Registry) Build(name string, param int) (core.Model, error) {
	e, err := r.Get(name)
	if err != nil {
		return nil, err
	}
	return e.Model(param)
}

// Register adds an entry to the default registry. It panics on a duplicate
// or empty name, which indicates a programming error at package
// initialisation. It is safe for concurrent use with the lookup functions.
func Register(e Entry) {
	if err := defaultRegistry.Add(e); err != nil {
		panic(err.Error())
	}
}

// Get returns the entry registered under name in the default registry.
func Get(name string) (Entry, error) { return defaultRegistry.Get(name) }

// Names returns all names registered in the default registry, sorted.
func Names() []string { return defaultRegistry.Names() }

// Build constructs the named model from the default registry for a
// parameter value (<= 0 selects the entry's default parameter).
func Build(name string, param int) (core.Model, error) {
	return defaultRegistry.Build(name, param)
}

// documents are the built-in families other than commit, one spec
// document each. The commit families stay hand-written adapters;
// DESIGN.md records why.
//
//go:embed *.json
var documents embed.FS

func newCommit(r int) (*commit.Model, error) { return commit.NewModel(r) }

func newCommitRedundant(r int) (*commit.Model, error) {
	return commit.NewModel(r, commit.WithVariant(commit.RedundantVariant()))
}

func init() {
	Register(Entry{
		Name:         "commit",
		Description:  "BFT commit protocol (strict Fig. 9 reading, matches Table 1)",
		ParamName:    "replication factor",
		DefaultParam: 4,
		SweepParams:  []int{4, 7, 13, 25, 46},
		Build:        func(r int) (core.Model, error) { return newCommit(r) },
		Abstraction:  abstraction(newCommit, commit.NewAbstraction),
		Vocabulary:   VocabularyCommit,
	})
	Register(Entry{
		Name:         "commit-redundant",
		Description:  "BFT commit protocol, redundant could_choose reading (pre-merge redundancy)",
		ParamName:    "replication factor",
		DefaultParam: 4,
		SweepParams:  []int{4, 7, 13, 25, 46},
		Build:        func(r int) (core.Model, error) { return newCommitRedundant(r) },
		Abstraction:  abstraction(newCommitRedundant, commit.NewAbstraction),
		Vocabulary:   VocabularyCommit,
	})
	files, err := documents.ReadDir(".")
	if err != nil {
		panic(err.Error())
	}
	for _, f := range files {
		doc, err := documents.ReadFile(f.Name())
		if err != nil {
			panic(err.Error())
		}
		compiled, err := spec.ParseAndCompile(doc)
		if err != nil {
			panic(err.Error())
		}
		Register(compiled.Entry())
	}
}
