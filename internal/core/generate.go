package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
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
// expansions, between merge rounds and while the machine is built, so a
// long-running generation for a large parameter value aborts promptly with
// ctx.Err(). A nil ctx is treated as context.Background().
func Generate(ctx context.Context, m Model, opts ...Option) (*StateMachine, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ex, err := explore(ctx, m)
	if err != nil {
		return nil, err
	}
	// Every explored state is reachable, the finish state included.
	machine, err := assemble(ctx, m, newGenConfig(opts), ex, nil, ex.hasFinish, 0)
	if err != nil {
		return nil, err
	}
	// Retained for incremental regeneration.
	machine.explored = ex
	return machine, nil
}

// explore runs the frontier exploration of Generate: the start vector is
// id 0, and every explored id is reachable.
func explore(ctx context.Context, m Model) (*exploration, error) {
	components, messages, start, err := declared(m)
	if err != nil {
		return nil, err
	}
	ex := newExploration(components, len(messages), 0)
	ex.arena.intern(start)
	for id := 0; id < ex.arena.n; id++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := ex.expandState(m, messages, id); err != nil {
			return nil, err
		}
	}
	ex.notes = interner{} // the composed annotations are copied: release the index
	return ex, nil
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
	ex, startID, err := enumerate(ctx, m)
	if err != nil {
		return nil, err
	}
	return assemble(ctx, m, newGenConfig(opts), ex, nil, ex.hasFinish, startID)
}

// enumerate runs the exploration of GenerateEnumerated and returns it with
// the start state's id.
func enumerate(ctx context.Context, m Model) (*exploration, int, error) {
	components, messages, start, err := declared(m)
	if err != nil {
		return nil, 0, err
	}
	size, err := stateSpaceSize(components)
	if err != nil {
		return nil, 0, err
	}
	startID, err := start.index(components)
	if err != nil {
		return nil, 0, err
	}
	ex := newExploration(components, len(messages), size)
	for idx := 0; idx < size; idx++ {
		if idx&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
		}
		ex.arena.intern(vectorFromIndex(idx, components))
	}
	for id := 0; id < size; id++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		if err := ex.expandState(m, messages, id); err != nil {
			return nil, 0, err
		}
	}
	return ex, startID, nil
}

// assemble turns an exploration into the finished machine. reach lists the
// arena ids to include in ascending order (nil selects every id); startID
// must be among them. Step 4 runs on the exploration itself, so only the
// final machine's states are ever built:
//
//  1. refine the states into classes of equivalent states (see refine;
//     without merging, every state is its own class);
//  2. pick each class's representative: the start state wins its class,
//     otherwise the member with the smallest vector;
//  3. order the representatives: the start state first, the rest in
//     lexicographic vector order (identical to enumeration-index order,
//     but defined even when the cross product overflows an int), the
//     finish state last;
//  4. materialise them: one block of States, one of Transitions, each
//     transition aimed at its target's representative, and a merged
//     class's names gathered on its representative.
//
// ctx is observed between refinement rounds and while states are built.
func assemble(ctx context.Context, m Model, cfg genConfig, ex *exploration, reach []int32, finishReachable bool, startID int) (*StateMachine, error) {
	f, posOf := flatten(ex, reach, finishReachable, cfg.merge)
	n, nm := f.n, f.nm // n counts the finish state
	class, classes := f.identity(), n
	if cfg.merge {
		var err error
		if class, classes, err = refine(ctx, f); err != nil {
			return nil, err
		}
	}
	idOf := func(p int32) int {
		if reach != nil {
			return int(reach[p])
		}
		return int(p)
	}
	start := int32(startID)
	if posOf != nil {
		start = posOf[startID]
	}
	named := n // the states with a vector and a name: all but the finish state
	if f.finish >= 0 {
		named--
	}
	components := ex.components
	crossSize, sizeErr := stateSpaceSize(components)

	// Vectors compare lexicographically, which is the order of their
	// enumeration indices when the cross product fits an int.
	compare := func(a, b int32) int { return ex.arena.vec(idOf(a)).Compare(ex.arena.vec(idOf(b))) }

	// Steps 2 and 3: order[k] is the position of the machine's k-th state,
	// rank[c] the index in order of class c's representative.
	rep := make([]int32, classes)
	for c := range rep {
		rep[c] = -1
	}
	for p := int32(0); p < int32(named); p++ {
		c := class[p]
		switch r := rep[c]; {
		case r < 0, p == start:
			rep[c] = p
		case r != start && compare(p, r) < 0:
			rep[c] = p
		}
	}
	order := make([]int32, 0, classes)
	order = append(order, start)
	for _, p := range rep {
		if p != start && p >= 0 {
			order = append(order, p)
		}
	}
	slices.SortFunc(order[1:], compare)
	if f.finish >= 0 {
		order = append(order, f.finish)
	}
	rank := make([]int32, classes)
	for k, p := range order {
		rank[class[p]] = int32(k)
	}

	// Step 4. Every state name is a substring of one string, sized for
	// names as long as the largest values make them.
	width := len(components) - 1
	for _, c := range components {
		width += len(c.ValueName(c.Cardinality() - 1))
	}
	buf := make([]byte, 0, width*named)
	nameBlock := make([]string, named)
	ends := make([]int, named)
	for p := range ends {
		buf = ex.arena.vec(idOf(int32(p))).appendName(buf, components)
		ends[p] = len(buf)
	}
	allNames := string(buf)
	for p, e := range ends {
		from := 0
		if p > 0 {
			from = ends[p-1]
		}
		nameBlock[p] = allNames[from:e]
	}
	// A merged class's names, sorted, go to its representative.
	var classNames [][]string
	if classes < n {
		size := make([]int32, classes)
		for _, c := range class {
			size[c]++
		}
		classNames = make([][]string, classes)
		for p, name := range nameBlock {
			if c := class[p]; size[c] > 1 {
				if classNames[c] == nil {
					classNames[c] = make([]string, 0, size[c])
				}
				classNames[c] = append(classNames[c], name)
			}
		}
		for _, names := range classNames {
			slices.Sort(names)
		}
	}

	machine := &StateMachine{
		ModelName:  m.Name(),
		Parameter:  m.Parameter(),
		Components: components,
		Messages:   append([]string(nil), m.Messages()...),
		States:     make([]*State, len(order)),
		Stats:      Stats{InitialStates: crossSize, ReachableStates: n, FinalStates: classes},
	}
	if sizeErr != nil {
		machine.Stats.InitialStates, machine.Stats.InitialOverflow = math.MaxInt, true
	}
	stateBlock := make([]State, len(order))
	for k := range order {
		machine.States[k] = &stateBlock[k]
	}
	// State k's transitions are transBlock[transFirst[k]:transFirst[k+1]].
	transFirst := make([]int32, len(order)+1)
	for k, p := range order {
		transFirst[k+1] = transFirst[k]
		for _, t := range f.target[int(p)*nm : int(p+1)*nm] {
			if t >= 0 {
				transFirst[k+1]++
			}
		}
	}
	transBlock := make([]Transition, transFirst[len(order)])
	// State k's annotations are text.lines[lineFirst[k]:lineEnd[k]].
	var text Text
	if cfg.describe {
		text.lines = make([]string, 0, len(order))
	}
	lineFirst, lineEnd := make([]int32, len(order)), make([]int32, len(order))
	// Representatives are built in position order, which reads the
	// exploration's columns in order.
	for p := int32(0); p < int32(named); p++ {
		if p&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		c := class[p]
		if rep[c] != p {
			continue
		}
		k := rank[c]
		s := &stateBlock[k]
		id := idOf(p)
		s.Name = nameBlock[p]
		s.Vector = ex.arena.vec(id)
		if classNames != nil && classNames[c] != nil {
			s.MergedNames = classNames[c]
		} else {
			s.MergedNames = nameBlock[p : p+1 : p+1]
		}
		if cfg.describe {
			lineFirst[k] = int32(len(text.lines))
			m.DescribeState(s.Vector, &text)
			lineEnd[k] = int32(len(text.lines))
		}
		trans := transBlock[transFirst[k]:transFirst[k+1]]
		s.Transitions = make(map[string]*Transition, len(trans))
		row := int(p) * nm
		for j, t := range f.target[row : row+nm] {
			if t < 0 {
				continue
			}
			cell := &ex.cols[j][id]
			tr := &trans[0]
			trans = trans[1:]
			tr.Message = machine.Messages[j]
			tr.Target = machine.States[rank[class[t]]]
			tr.Actions = ex.lists.at(cell.actions)
			tr.Annotations = ex.lists.at(cell.annotations)
			s.Transitions[tr.Message] = tr
		}
	}
	machine.Start = machine.States[0]
	if f.finish >= 0 {
		s := machine.States[len(order)-1]
		s.Name = FinishStateName
		s.Final = true
		s.Transitions = map[string]*Transition{}
		s.MergedNames = []string{FinishStateName}
		machine.Finish = s
		lineFirst[len(order)-1] = int32(len(text.lines))
		text.Line("The algorithm instance has completed.")
		lineEnd[len(order)-1] = int32(len(text.lines))
	}
	for k, s := range machine.States {
		if from, to := lineFirst[k], lineEnd[k]; from < to {
			s.Annotations = text.lines[from:to:to]
		}
	}
	return machine, nil
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
