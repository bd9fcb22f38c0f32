package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
)

// Errors returned by Generate for malformed models.
var (
	ErrNoComponents = errors.New("core: model declares no state components")
	ErrNoMessages   = errors.New("core: model declares no messages")
)

// genConfig holds what a generation can be asked to vary. merge and
// describe change the generated machine and are part of its fingerprint;
// from only says where a Cache may start from.
type genConfig struct {
	merge    bool
	describe bool
	from     *regenSource
}

// regenSource names a cached machine and how the model has changed since.
type regenSource struct {
	old   Fingerprint
	delta ModelDelta
}

// Option configures the generation pipeline.
type Option func(*genConfig)

// newGenConfig applies opts to the default configuration.
func newGenConfig(opts []Option) genConfig {
	cfg := genConfig{merge: true, describe: true}
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// WithoutMerging disables step 4 (combining equivalent states). Used by the
// pipeline-ablation experiments.
func WithoutMerging() Option { return func(c *genConfig) { c.merge = false } }

// WithoutDescriptions skips attaching the model's per-state documentation,
// which speeds up generation for large parameter values.
func WithoutDescriptions() Option { return func(c *genConfig) { c.describe = false } }

// WithRegenerationFrom tells a Cache that the machine asked for can be
// derived from the machine it holds under old by incremental regeneration
// under delta (see Regenerate): a miss patches that machine's retained
// exploration instead of exploring from scratch, falling back to a full
// generation when the source is gone, still in flight or incompatible.
// The source is spent by the generation that uses it and leaves the cache.
// The option never changes the generated machine, is excluded from
// fingerprints, and means nothing to Generate itself. The artefact
// pipeline passes it for a family member whose model was replaced in
// place.
func WithRegenerationFrom(old Fingerprint, delta ModelDelta) Option {
	from := &regenSource{old: old, delta: delta}
	return func(c *genConfig) { c.from = from }
}

// declared returns the model's components, messages and start vector,
// checked for the malformations every generation entry point refuses.
func declared(m Model) ([]StateComponent, []string, Vector, error) {
	components := m.Components()
	if len(components) == 0 {
		return nil, nil, nil, ErrNoComponents
	}
	messages := m.Messages()
	if len(messages) == 0 {
		return nil, nil, nil, ErrNoMessages
	}
	if err := checkUnique(messages); err != nil {
		return nil, nil, nil, err
	}
	start := m.Start()
	if err := start.validate(components); err != nil {
		return nil, nil, nil, fmt.Errorf("core: start state: %w", err)
	}
	return components, messages, start, nil
}

// Generate executes the abstract model and returns the corresponding finite
// state machine. Generation is reachability-first: starting from the
// model's start vector, a breadth-first frontier exploration generates
// transitions only for states actually reachable, so memory and time scale
// with the reachable set rather than the component cross product (§3.4
// steps 1–3 fused). Processing states in id order is exactly FIFO order,
// since new states are interned in discovery order. Equivalent states are
// then combined to a fixpoint (step 4).
//
// Generation honours ctx: cancellation is observed between state
// expansions, so a long-running generation for a large parameter value
// aborts promptly with ctx.Err(). A nil ctx is treated as
// context.Background().
func Generate(ctx context.Context, m Model, opts ...Option) (*StateMachine, error) {
	return generate(ctx, m, opts, 0)
}

// generate is Generate with the exploration's interning arena pre-sized
// for about sizeHint reachable states (non-positive: a small default), so
// a caller that knows the family member's size spares the exploration its
// hash-table growth.
func generate(ctx context.Context, m Model, opts []Option, sizeHint int) (*StateMachine, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg := newGenConfig(opts)
	components, messages, start, err := declared(m)
	if err != nil {
		return nil, err
	}
	ex := newExploration(len(components), len(messages), sizeHint)
	ex.arena.intern(start)
	for id := 0; id < ex.arena.n; id++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := ex.expandState(m, components, messages, id); err != nil {
			return nil, err
		}
	}
	// Every explored state is reachable, the finish state included.
	machine := assemble(m, cfg, ex, nil, ex.hasFinish, 0)
	// Retained for incremental regeneration.
	machine.explored = ex
	return machine, nil
}

// GenerateEnumerated is the paper's literal §3.4 pipeline, kept as the
// reference the differential tests and the E11/E12 benchmarks compare
// Generate against: enumerate the full component cross product in
// row-major order, generate transitions for every state, and keep
// unreachable states in the resulting machine. State ids coincide with
// enumeration indices. It is an entry point of its own, not an Option: no
// cache, fingerprint or pipeline can select it, and its machines are not
// sound inputs to GeneralizeEFSM. The cross product must fit in an int;
// ErrStateSpaceOverflow is returned otherwise. The machine retains no
// exploration, so Regenerate falls back to Generate on it.
func GenerateEnumerated(ctx context.Context, m Model, opts ...Option) (*StateMachine, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg := newGenConfig(opts)
	components, messages, start, err := declared(m)
	if err != nil {
		return nil, err
	}
	size, err := stateSpaceSize(components)
	if err != nil {
		return nil, err
	}
	startID, err := start.index(components)
	if err != nil {
		return nil, err
	}
	ex := newExploration(len(components), len(messages), size)
	for idx := 0; idx < size; idx++ {
		if idx&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		ex.arena.intern(vectorFromIndex(idx, components))
	}
	for id := 0; id < size; id++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := ex.expandState(m, components, messages, id); err != nil {
			return nil, err
		}
	}
	return assemble(m, cfg, ex, nil, ex.hasFinish, startID), nil
}

// assemble turns an exploration into the finished machine: materialise the
// states (see buildMachine), record the Table 1 stage sizes, combine
// equivalent states (step 4) and sort.
func assemble(m Model, cfg genConfig, ex *exploration, reach []int32, finishReachable bool, startID int) *StateMachine {
	machine := buildMachine(m, cfg, ex, reach, finishReachable, startID)
	crossSize, err := stateSpaceSize(machine.Components)
	if err != nil {
		crossSize, machine.Stats.InitialOverflow = math.MaxInt, true
	}
	machine.Stats.InitialStates = crossSize
	machine.Stats.ReachableStates = len(machine.States)
	if cfg.merge {
		mergeEquivalent(machine)
	}
	machine.Stats.FinalStates = len(machine.States)
	machine.sortStates()
	return machine
}

// buildMachine materialises State and Transition objects for the explored
// states. reach lists the arena ids to materialise in ascending order (nil
// selects every id); startID must be among them. States and transitions
// are block-allocated, and action/annotation slices alias the effect cells
// rather than being copied.
func buildMachine(m Model, cfg genConfig, ex *exploration, reach []int32, finishReachable bool, startID int) *StateMachine {
	components := m.Components()
	machine := &StateMachine{
		ModelName:  m.Name(),
		Parameter:  m.Parameter(),
		Components: components,
		Messages:   append([]string(nil), m.Messages()...),
	}
	nm := len(machine.Messages)

	n := ex.arena.n
	if reach != nil {
		n = len(reach)
	}
	idFor := func(k int) int32 {
		if reach != nil {
			return reach[k]
		}
		return int32(k)
	}
	// posOf maps arena id -> machine state index.
	var posOf []int32
	if reach != nil {
		posOf = make([]int32, ex.arena.n)
		for i := range posOf {
			posOf[i] = -1
		}
		for k, id := range reach {
			posOf[id] = int32(k)
		}
	}

	// Count transitions up front so the transition block never reallocates;
	// handed-out pointers must stay stable.
	total := 0
	for k := 0; k < n; k++ {
		id := idFor(k)
		for mi := 0; mi < nm; mi++ {
			if ex.cols[mi][id].target != cellNone {
				total++
			}
		}
	}

	stateBlock := make([]State, n)
	states := make([]*State, n)
	transBlock := make([]Transition, 0, total)
	// One backing array serves every state's initial single-entry
	// MergedNames list; merging replaces whole slices, never appends in
	// place, so full slice expressions keep the views independent.
	nameBlock := make([]string, n)
	var nameBuf []byte

	for k := 0; k < n; k++ {
		id := idFor(k)
		v := ex.arena.vec(int(id))
		cnt := 0
		for mi := 0; mi < nm; mi++ {
			if ex.cols[mi][id].target != cellNone {
				cnt++
			}
		}
		s := &stateBlock[k]
		nameBuf = v.appendName(nameBuf[:0], components)
		s.Name = string(nameBuf)
		s.Vector = v
		s.Transitions = make(map[string]*Transition, cnt)
		if cfg.describe {
			s.Annotations = m.DescribeState(v)
		}
		nameBlock[k] = s.Name
		s.MergedNames = nameBlock[k : k+1 : k+1]
		states[k] = s
		machine.States = append(machine.States, s)
	}

	var finish *State
	if finishReachable {
		finish = &State{
			Name:        FinishStateName,
			Final:       true,
			Transitions: map[string]*Transition{},
			MergedNames: []string{FinishStateName},
			Annotations: []string{"The algorithm instance has completed."},
		}
		machine.States = append(machine.States, finish)
		machine.Finish = finish
	}

	for k := 0; k < n; k++ {
		id := idFor(k)
		s := states[k]
		for mi := 0; mi < nm; mi++ {
			cell := ex.cols[mi][id]
			if cell.target == cellNone {
				continue
			}
			var target *State
			switch {
			case cell.target == cellFinish:
				target = finish
			case reach != nil:
				target = states[posOf[cell.target]]
			default:
				target = states[cell.target]
			}
			actions := cell.actions
			if len(actions) == 0 {
				actions = nil
			}
			annotations := cell.annotations
			if len(annotations) == 0 {
				annotations = nil
			}
			msg := machine.Messages[mi]
			transBlock = append(transBlock, Transition{
				Message:     msg,
				Target:      target,
				Actions:     actions,
				Annotations: annotations,
			})
			s.Transitions[msg] = &transBlock[len(transBlock)-1]
		}
	}

	if reach != nil {
		machine.Start = states[posOf[startID]]
	} else {
		machine.Start = states[startID]
	}
	return machine
}

func checkUnique(messages []string) error {
	seen := make(map[string]struct{}, len(messages))
	for _, msg := range messages {
		if strings.TrimSpace(msg) == "" {
			return errors.New("core: empty message name")
		}
		if _, dup := seen[msg]; dup {
			return fmt.Errorf("core: duplicate message %q", msg)
		}
		seen[msg] = struct{}{}
	}
	return nil
}
