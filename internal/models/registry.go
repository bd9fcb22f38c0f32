// Package models is the scenario registry: every abstract model the
// repository implements is registered here under a stable name, so the
// renderer, runtime, simulation and benchmark layers can select any
// scenario by name instead of being hardwired to one model package.
//
// A registry entry bundles the model builder (parameter → core.Model), the
// optional EFSM generalisation, and the metadata commands need to present
// the scenario (parameter semantics, defaults, sweep values). New model
// packages plug into every command and example by adding one Register call.
//
// Registries are first-class values: the process-wide default registry
// holds the built-in scenarios, and callers that accept dynamic
// registrations (the SDK client, the serve endpoint) may Clone it so
// mutable state is never shared between independent instances.
package models

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"asagen/internal/chord"
	"asagen/internal/commit"
	"asagen/internal/consensus"
	"asagen/internal/core"
	"asagen/internal/storage"
	"asagen/internal/termination"
)

// Builder constructs the abstract model for a parameter value.
type Builder func(param int) (core.Model, error)

// Abstraction returns the EFSM abstraction (§5.3) of the family member for
// the given parameter value: how core.GeneralizeEFSM coalesces that
// member's generated machine into the parameter-independent EFSM. It
// builds its own model instance rather than taking the one Build returned,
// which a caller may have decorated.
type Abstraction func(param int) (core.EFSMAbstraction, error)

// Entry describes one registered scenario.
type Entry struct {
	// Name is the registry key, e.g. "commit".
	Name string
	// Description is a one-line summary shown in command help.
	Description string
	// ParamName names the model parameter, e.g. "replication factor".
	ParamName string
	// DefaultParam is the parameter used when the caller passes none.
	DefaultParam int
	// SweepParams are representative parameter values for sweep tables and
	// differential tests, in ascending order.
	SweepParams []int
	// Build constructs the abstract model for a parameter value.
	Build Builder
	// Abstraction names how the family generalises to a
	// parameter-independent EFSM, or is nil when the model declares none.
	Abstraction Abstraction
	// Vocabulary names the message vocabulary the generated machines
	// react to, e.g. VocabularyCommit for models the version-service
	// runtime can execute. Empty for models with a vocabulary of their
	// own that no runtime layer consumes.
	Vocabulary string
	// Spec optionally carries the declarative source document the entry
	// was compiled from (a spec.Doc), opaque to this package to avoid an
	// import cycle. Layers that replace models in place read it to diff
	// the old and new documents for incremental regeneration. Nil for
	// hand-written models.
	Spec any
}

// VocabularyCommit marks models whose machines react to the commit
// protocol's message set (UPDATE, VOTE, COMMIT, FREE, NOT_FREE), which the
// version-service members dispatch.
const VocabularyCommit = "commit"

// Model builds the entry's model, substituting DefaultParam when param <= 0.
func (e Entry) Model(param int) (core.Model, error) {
	if param <= 0 {
		param = e.DefaultParam
	}
	return e.Build(param)
}

// EFSM generalises the family member for param from a generation of its
// own (core.GenerateEFSM). The artefact pipeline generalises the member's
// cached machine instead; this is the reference that view is compared
// against.
func (e Entry) EFSM(ctx context.Context, param int) (*core.EFSM, error) {
	if e.Abstraction == nil {
		return nil, fmt.Errorf("models: model %q declares no EFSM abstraction", e.Name)
	}
	m, err := e.Build(param)
	if err != nil {
		return nil, err
	}
	abs, err := e.Abstraction(param)
	if err != nil {
		return nil, err
	}
	return core.GenerateEFSM(ctx, m, abs)
}

// abstraction adapts a model package's constructor pair to the Abstraction
// hook.
func abstraction[M any, A core.EFSMAbstraction](newModel func(int) (M, error), newAbstraction func(M) A) Abstraction {
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

// NamesWithVocabulary returns the sorted names of entries registered with
// the given vocabulary, so commands can present — and validate against —
// exactly the subset a runtime layer can execute.
func (r *Registry) NamesWithVocabulary(vocabulary string) []string {
	r.mu.RLock()
	var names []string
	for name, e := range r.entries {
		if e.Vocabulary == vocabulary {
			names = append(names, name)
		}
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

// NamesWithVocabulary returns the default registry's sorted names of
// entries registered with the given vocabulary.
func NamesWithVocabulary(vocabulary string) []string {
	return defaultRegistry.NamesWithVocabulary(vocabulary)
}

// Build constructs the named model from the default registry for a
// parameter value (<= 0 selects the entry's default parameter).
func Build(name string, param int) (core.Model, error) {
	return defaultRegistry.Build(name, param)
}

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
	Register(Entry{
		Name:         "consensus",
		Description:  "Chandra-Toueg-style single-decree consensus (majority thresholds)",
		ParamName:    "process count",
		DefaultParam: 5,
		SweepParams:  []int{3, 5, 7, 9},
		Build:        func(n int) (core.Model, error) { return consensus.NewModel(n) },
		Abstraction:  abstraction(consensus.NewModel, consensus.NewAbstraction),
	})
	Register(Entry{
		Name:         "chord",
		Description:  "Chord ring-membership lifecycle (successor-list redundancy)",
		ParamName:    "successor-list length",
		DefaultParam: 4,
		SweepParams:  []int{2, 3, 4, 8},
		Build:        func(s int) (core.Model, error) { return chord.NewModel(s) },
		Abstraction:  abstraction(chord.NewModel, chord.NewAbstraction),
	})
	Register(Entry{
		Name:         "storage",
		Description:  "Replicated block-store endpoint protocol (quorum store + verified retrieve)",
		ParamName:    "replication factor",
		DefaultParam: 4,
		SweepParams:  []int{4, 7, 13, 25},
		Build:        func(r int) (core.Model, error) { return storage.NewModel(r) },
		Abstraction:  abstraction(storage.NewModel, storage.NewAbstraction),
	})
	Register(Entry{
		Name:         "termination",
		Description:  "Dijkstra-Scholten-style termination detection (fan-out bound k)",
		ParamName:    "fan-out bound",
		DefaultParam: 4,
		SweepParams:  []int{1, 2, 4, 8},
		Build:        func(k int) (core.Model, error) { return termination.NewModel(k) },
		Abstraction:  abstraction(termination.NewModel, termination.NewAbstraction),
	})
}
