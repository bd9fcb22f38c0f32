package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
)

// Errors returned by Generate for malformed models.
var (
	ErrNoComponents = errors.New("core: model declares no state components")
	ErrNoMessages   = errors.New("core: model declares no messages")
)

type genConfig struct {
	prune           bool
	merge           bool
	singlePassMerge bool
	describe        bool
	workers         int
	sizeHint        int
}

// behaviourEqual reports whether two configurations produce identical
// machines. Worker count and size hints only change how the exploration is
// scheduled, never its result.
func (c genConfig) behaviourEqual(o genConfig) bool {
	return c.prune == o.prune && c.merge == o.merge &&
		c.singlePassMerge == o.singlePassMerge && c.describe == o.describe
}

// Option configures the generation pipeline.
type Option func(*genConfig)

// DefaultBehaviour reports whether opts generate exactly the machine no
// options would. The EFSM abstractions are written against that machine —
// GeneralizeEFSM rejects a WithSinglePassMerge or WithoutPruning machine as
// unsound, or coalesces it differently — so only a cache generating it can
// lend its machines to generalisation.
func DefaultBehaviour(opts ...Option) bool {
	return newGenConfig(opts).behaviourEqual(newGenConfig(nil))
}

// newGenConfig applies opts to the default configuration.
func newGenConfig(opts []Option) genConfig {
	cfg := genConfig{prune: true, merge: true, describe: true}
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// WithoutPruning disables reachability-first exploration and falls back to
// the paper's literal §3.4 pipeline: enumerate the full component cross
// product, generate transitions for every state, and keep unreachable
// states in the resulting machine. Used by the pipeline-ablation
// experiments. The cross product must fit in an int; Generate returns
// ErrStateSpaceOverflow otherwise.
func WithoutPruning() Option { return func(c *genConfig) { c.prune = false } }

// WithoutMerging disables step 4 (combining equivalent states). Used by the
// pipeline-ablation experiments.
func WithoutMerging() Option { return func(c *genConfig) { c.merge = false } }

// WithSinglePassMerge makes step 4 perform exactly one round of equivalence
// combining (states whose outgoing transitions perform the same actions and
// lead to the same destination state) instead of iterating to a fixpoint.
func WithSinglePassMerge() Option { return func(c *genConfig) { c.singlePassMerge = true } }

// WithoutDescriptions skips attaching the model's per-state documentation,
// which speeds up generation for large parameter values.
func WithoutDescriptions() Option { return func(c *genConfig) { c.describe = false } }

// WithWorkers expands the frontier with n goroutines. Frontier segments are
// distributed over per-worker work-stealing deques, computed concurrently,
// and merged in deterministic state order, so the generated machine is
// bit-identical to the serial result. Frontiers smaller than an internal
// threshold are expanded serially, so small models never pay goroutine
// overhead. The model's Apply method is called concurrently; Model
// implementations must be deterministic and side-effect free (as the Model
// contract already requires), which makes concurrent calls safe. Values of
// n below 2 select the serial explorer, and n is capped at GOMAXPROCS: on
// a single-CPU machine the serial explorer always runs, since extra
// goroutines could only add scheduling overhead without any parallelism.
// Ignored on the WithoutPruning path, which retains the legacy serial
// enumeration.
func WithWorkers(n int) Option { return func(c *genConfig) { c.workers = n } }

// WithSizeHint pre-sizes the exploration's interning arena for
// approximately n reachable states, eliminating hash-table growth during
// exploration. The generation cache supplies this automatically from the
// Stats of prior generations of the same model family; the hint never
// changes the generated machine and is excluded from model fingerprints.
func WithSizeHint(n int) Option {
	return func(c *genConfig) {
		if n > 0 {
			c.sizeHint = n
		}
	}
}

// Generate executes the abstract model and returns the corresponding finite
// state machine. The default path is reachability-first: starting from the
// model's start vector, a breadth-first frontier exploration generates
// transitions only for states actually reachable, so memory and time scale
// with the reachable set rather than the component cross product (§3.4
// steps 1–3 fused). Equivalent states are then combined (step 4).
// WithoutPruning selects the legacy full-enumeration pipeline instead.
//
// Generation honours ctx: cancellation is observed between state
// expansions, so a long-running generation for a large parameter value
// aborts promptly with ctx.Err(). A nil ctx is treated as
// context.Background().
func Generate(ctx context.Context, m Model, opts ...Option) (*StateMachine, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg := newGenConfig(opts)

	components := m.Components()
	if len(components) == 0 {
		return nil, ErrNoComponents
	}
	messages := m.Messages()
	if len(messages) == 0 {
		return nil, ErrNoMessages
	}
	if err := checkUnique(messages); err != nil {
		return nil, err
	}
	start := m.Start()
	if err := start.validate(components); err != nil {
		return nil, fmt.Errorf("core: start state: %w", err)
	}

	var (
		ex         *exploration
		err        error
		crossSize  int
		overflowed bool
	)
	crossSize, err = stateSpaceSize(components)
	if err != nil {
		if !cfg.prune {
			// The legacy pipeline must materialise the cross product.
			return nil, err
		}
		crossSize, overflowed = math.MaxInt, true
	}

	if cfg.prune {
		ex, err = explore(ctx, m, components, messages, start, cfg)
	} else {
		ex, err = enumerateAll(ctx, m, components, messages, crossSize, cfg)
	}
	if err != nil {
		return nil, err
	}

	startID := 0
	if !cfg.prune {
		if startID, err = start.index(components); err != nil {
			return nil, err
		}
	}
	finishReachable := ex.hasFinish // every explored state is reachable on the frontier path

	machine := buildMachine(m, cfg, ex, nil, finishReachable, startID)
	machine.Stats.InitialStates = crossSize
	machine.Stats.InitialOverflow = overflowed
	machine.Stats.ReachableStates = len(machine.States)

	// Step 4: combine equivalent states.
	if cfg.merge {
		mergeEquivalent(machine, cfg.singlePassMerge)
	}
	machine.Stats.FinalStates = len(machine.States)
	machine.sortStates()
	if cfg.prune {
		// Retain the raw exploration for incremental regeneration. The
		// legacy path keeps unreachable states in the machine, a shape
		// Regenerate does not reproduce, so it retains nothing.
		machine.explored = ex
	}
	return machine, nil
}

// explore performs the reachability-first exploration: a worklist BFS from
// the start vector, interning each newly discovered vector in the arena.
// Processing states in id order is exactly FIFO order, since new states are
// appended in discovery order. With workers > 1, frontier stretches above
// parallelThreshold are expanded by the work-stealing explorer and merged
// deterministically; smaller stretches are expanded inline.
func explore(ctx context.Context, m Model, components []StateComponent, messages []string, start Vector, cfg genConfig) (*exploration, error) {
	ex := newExploration(len(components), len(messages), cfg)
	ex.arena.intern(start)

	var ws *wsExplorer
	if w := min(cfg.workers, runtime.GOMAXPROCS(0)); w > 1 {
		ws = newWSExplorer(m, components, messages, w)
		defer ws.stop()
	}

	for cursor := 0; cursor < ex.arena.n; {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if ws != nil && ex.arena.n-cursor >= parallelThreshold {
			next, err := ws.expandLevel(ctx, ex, cursor, ex.arena.n)
			if err != nil {
				return nil, err
			}
			cursor = next
			continue
		}
		if err := ex.expandState(m, components, messages, cursor); err != nil {
			return nil, err
		}
		cursor++
	}
	return ex, nil
}

// enumerateAll is the legacy §3.4 steps 1+2: materialise every possible
// state in row-major order and compute the transitions resulting from each
// possible message. State ids coincide with enumeration indices, because
// every vector is interned in row-major order before expansion starts.
func enumerateAll(ctx context.Context, m Model, components []StateComponent, messages []string, size int, cfg genConfig) (*exploration, error) {
	cfg.sizeHint = size
	ex := newExploration(len(components), len(messages), cfg)
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
	return ex, nil
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
