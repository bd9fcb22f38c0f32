package core

import "slices"

// Effect is the outcome of delivering one message to a machine in a given
// state, as computed by an abstract model: the resulting state vector, the
// actions performed (outgoing messages etc.), and documentation annotations
// explaining the reaction. During a generation it is scratch the
// exploration owns and Model.Apply writes into.
type Effect struct {
	// Target is the resulting state vector. Ignored when Finished is set.
	Target Vector
	// Actions lists effects performed during the transition, in order,
	// e.g. "->vote", "->commit". Empty for simple transitions.
	Actions []string
	// Annotations document the reasons for the state change.
	Annotations []string
	// Finished marks a transition into the synthetic finish state: the
	// algorithm instance has completed and leaves the encoded state space.
	Finished bool

	// notes copies the annotations AnnotationBytes adds, each distinct one
	// once; nil outside a generation.
	notes *interner
}

// Scratch returns an empty buffer, reused across annotations, to compose
// an annotation in before passing it to AnnotationBytes.
func (e *Effect) Scratch() []byte {
	if e.notes == nil {
		return nil
	}
	return e.notes.buf[:0]
}

// AnnotationBytes adds the annotation b to the effect, copying it to a
// string only the first time the generation sees it. b may be reused
// afterwards.
func (e *Effect) AnnotationBytes(b []byte) {
	if e.notes == nil {
		e.Annotations = append(e.Annotations, string(b))
		return
	}
	e.Annotations = append(e.Annotations, e.notes.intern(b))
}

// Model is a problem-specific abstract model: it captures the structure
// common to all members of a family of finite state machines, and is
// executed with Generate to produce a particular member.
//
// Implementations must be deterministic and side-effect free: Apply is
// called for every (state, message) combination during generation, so the
// control decisions that a generic algorithm would take dynamically are
// taken at generation time (§3.4).
type Model interface {
	// Name identifies the model, e.g. "bft-commit".
	Name() string
	// Parameter returns the parameter value this model instance was
	// constructed with (e.g. the replication factor).
	Parameter() int
	// Components defines the state space dimensions, in state-name order.
	Components() []StateComponent
	// Messages lists the message types the machine can receive, in
	// canonical order.
	Messages() []string
	// Start returns the machine's initial state vector.
	Start() Vector
	// Apply computes the effect of receiving message msg, an index into
	// Messages(), in state v, and writes it into eff. eff arrives with
	// Target a working copy of v that Apply changes in place, Actions and
	// Annotations empty with room to append to, and Finished unset. Apply
	// may instead point a field at storage of its own, and add an
	// annotation it composes through AnnotationBytes, which copies each
	// distinct one once per generation. The caller copies what it keeps
	// before its next call, and v must not be changed. The
	// result is false when the message is not applicable in v, in which
	// case no transition is recorded (the paper's InvalidStateException
	// path, Fig. 10) and eff is ignored.
	Apply(v Vector, msg int, eff *Effect) bool
	// DescribeState adds human-readable documentation lines for state v
	// to t, in terms of the generic algorithm (used in the Fig. 14 style
	// renderings). It may add none.
	DescribeState(v Vector, t *Text)
}

// Text is a member's table of state documentation lines, which
// DescribeState adds to. Each distinct line composed through LineBytes is
// copied once per generation, and each state's Annotations is a sub-slice,
// with cap == len, of the one slice the lines of all a member's states are
// appended to.
type Text struct {
	lines []string
	interner
}

// Line adds s to the state's lines.
func (t *Text) Line(s string) { t.lines = append(t.lines, s) }

// Scratch returns an empty buffer, reused across lines, to compose a line
// in before passing it to LineBytes.
func (t *Text) Scratch() []byte { return t.buf[:0] }

// LineBytes adds the line b to the state's lines, copying it to a string
// only the first time the generation sees it. b may be reused afterwards.
func (t *Text) LineBytes(b []byte) { t.lines = append(t.lines, t.intern(b)) }

// interner copies each distinct string composed in its buffer once, into
// a string arena.
type interner struct {
	seen   map[string]string
	buf    []byte
	copies stringArena
}

// intern returns b as a string, copied only the first time it is seen.
// b becomes the buffer to compose the next string in.
func (in *interner) intern(b []byte) string {
	s, ok := in.seen[string(b)]
	if !ok {
		if in.seen == nil {
			in.seen = make(map[string]string, 64)
		}
		s = in.copies.copy(b)
		in.seen[s] = s
	}
	in.buf = b[:0]
	return s
}

// Apply delivers the message named msg to state v of m outside a
// generation and returns the effect in storage of its own, with empty
// lists nil. It reports false when msg is not one of m's messages or is
// not applicable in v.
func Apply(m Model, v Vector, msg string) (Effect, bool) {
	mi := slices.Index(m.Messages(), msg)
	eff := Effect{Target: v.Clone()}
	if mi < 0 || !m.Apply(v, mi, &eff) {
		return Effect{}, false
	}
	eff.Actions = clipped(eff.Actions)
	eff.Annotations = clipped(eff.Annotations)
	return eff, true
}

// Describe returns m's documentation lines for state v, as a generated
// machine's state carries them.
func Describe(m Model, v Vector) []string {
	var t Text
	m.DescribeState(v, &t)
	return clipped(t.lines)
}

// clipped copies list with cap == len; nil when it is empty.
func clipped(list []string) []string {
	if len(list) == 0 {
		return nil
	}
	return append(make([]string, 0, len(list)), list...)
}
