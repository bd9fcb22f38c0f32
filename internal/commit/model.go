// Package commit implements the abstract model of the paper's motivating
// example: the Byzantine-fault-tolerant commit protocol used to serialise
// updates to the version history of the ASA distributed storage system
// (§2.2). Each peer-set member runs one machine instance per ongoing
// update; the machine reacts to update, vote, commit, free and not_free
// messages, counting votes and commits until quorum thresholds are crossed.
//
// The model is parameterised by the replication factor r. It tolerates
// f = ⌊(r−1)/3⌋ Byzantine members: an update is agreed once 2f+1 votes
// (sent plus received) are observed, and an instance finishes once f+1
// commit messages have been received.
//
// Executing the model through core.Generate yields one member of the FSM
// family; the paper's Table 1 records the family's exact state counts,
// which this implementation reproduces.
package commit

import (
	"fmt"

	"asagen/internal/core"
)

// Message types received by a commit machine (Fig. 20).
const (
	MsgUpdate  = "UPDATE"
	MsgVote    = "VOTE"
	MsgCommit  = "COMMIT"
	MsgFree    = "FREE"
	MsgNotFree = "NOT_FREE"
)

// Actions performed on phase transitions (Fig. 14's "->vote" etc.).
const (
	ActSendVote    = "->vote"
	ActSendCommit  = "->commit"
	ActSendFree    = "->free"
	ActSendNotFree = "->not free"
)

// Component indices in the state vector, in the paper's name-encoding order
// (Fig. 14/16): update_received / votes_received / vote_sent /
// commits_received / commit_sent / could_choose / has_chosen.
const (
	idxUpdateReceived = iota
	idxVotesReceived
	idxVoteSent
	idxCommitsReceived
	idxCommitSent
	idxCouldChoose
	idxHasChosen
	numComponents
)

// MinReplicationFactor is the smallest replication factor that yields a
// Byzantine-fault-tolerant scheme (r > 3f with f ≥ 1).
const MinReplicationFactor = 4

// Variant selects between readings of the paper's Fig. 9 pseudo-code, whose
// printed guards contain reproduction errors (e.g. branches guarded on
// commit_sent that set commit_sent). The default variant is the one whose
// generated family matches the published Table 1 counts exactly; the others
// are retained for the semantic-sensitivity tests.
type Variant struct {
	// UpdateVotes enables the voluntary vote on receipt of the client
	// update when the member is free (guard read as !vote_sent; the
	// printed guard "vote_sent" is unsatisfiable).
	UpdateVotes bool
	// UpdateUnsetsCC clears could_choose when the voluntary vote is cast
	// from the update handler.
	UpdateUnsetsCC bool
	// FreeUnsetsCC clears could_choose when the voluntary vote is cast
	// from the free handler.
	FreeUnsetsCC bool
	// VoteUnsetsCC clears could_choose when a vote is forced by the vote
	// threshold being reached by other members' votes.
	VoteUnsetsCC bool
	// FreeGuardVS includes !vote_sent in the free handler guard.
	FreeGuardVS bool
	// NotFreeGuardVS includes !vote_sent in the not_free handler guard.
	NotFreeGuardVS bool
	// FreeGuardHC includes !has_chosen in the free handler guard.
	FreeGuardHC bool
	// NotFreeGuardHC includes !has_chosen in the not_free handler guard.
	NotFreeGuardHC bool
	// VoteSetsHC makes the forced vote (threshold reached by others'
	// votes while this member was free) also mark the update as chosen
	// and broadcast not_free.
	VoteSetsHC bool
	// CastVoteCommits makes the voluntary vote send the commit
	// immediately when the vote threshold is already met.
	CastVoteCommits bool
	// RecordNoops records applicable-but-effect-free deliveries as
	// explicit self-loop transitions instead of omitting them.
	RecordNoops bool
	// StartCouldChoose sets could_choose in the machine's start state: a
	// freshly created instance considers the member free to choose.
	StartCouldChoose bool
}

// DefaultVariant returns the strict Fig. 9 reading, validated against the
// published Table 1 family sizes: 512 initial and 33 final states for
// r = 4, and 85, 261, 901, 2945 final states for r = 7, 13, 25, 46 — all
// exact. Under this reading the generated machines rest only in canonical
// states, so the merging step is the identity (the paper's pre-merge 48 at
// r = 4 reflects implementation redundancy; see RedundantVariant and
// DESIGN.md). See variant_search_test.go for the derivation.
func DefaultVariant() Variant {
	return Variant{
		UpdateVotes:      true,
		UpdateUnsetsCC:   true,
		FreeUnsetsCC:     true,
		VoteUnsetsCC:     true,
		FreeGuardVS:      true,
		NotFreeGuardVS:   true,
		FreeGuardHC:      true,
		NotFreeGuardHC:   true,
		VoteSetsHC:       true,
		CastVoteCommits:  true,
		RecordNoops:      false,
		StartCouldChoose: false,
	}
}

// RedundantVariant returns a reading in which votes do not surrender
// could_choose, so the generated machines rest in states that differ only in
// a dead could_choose bit. The pre-merge machine is larger (41 reachable
// states at r = 4, against the paper's reported 48) while the merged family
// still matches the published final counts exactly — the closest
// reconstruction of the paper's pre-merge redundancy recoverable from the
// published pseudo-code, used by the pipeline-ablation experiments.
func RedundantVariant() Variant {
	v := DefaultVariant()
	v.UpdateUnsetsCC = false
	v.VoteUnsetsCC = false
	return v
}

// Model is the abstract model of the commit protocol for a fixed
// replication factor. It implements core.Model.
type Model struct {
	r       int
	f       int
	variant Variant
	comps   []core.StateComponent

	// Threshold annotations are fixed per model instance; rendering them
	// once keeps Apply off the fmt.Sprintf path, which dominated the
	// generation profile.
	noteVoteCommit   string
	noteVoteAdd      string
	noteCommitVote   string
	noteCommitCommit string
	noteCommitDone   string
	fpExtra          []string
}

var _ core.Model = (*Model)(nil)

// Option configures a Model.
type Option func(*Model)

// WithVariant overrides the Fig. 9 reading used by the model.
func WithVariant(v Variant) Option {
	return func(m *Model) { m.variant = v }
}

// NewModel returns the commit-protocol abstract model for replication
// factor r. It returns an error when r < MinReplicationFactor, since
// Byzantine fault tolerance requires r > 3f with at least one tolerated
// fault.
func NewModel(r int, opts ...Option) (*Model, error) {
	if r < MinReplicationFactor {
		return nil, fmt.Errorf("commit: replication factor %d < minimum %d", r, MinReplicationFactor)
	}
	m := &Model{
		r:       r,
		f:       (r - 1) / 3,
		variant: DefaultVariant(),
	}
	m.comps = []core.StateComponent{
		core.NewBoolComponent("update_received"),
		core.NewIntComponent("votes_received", r-1),
		core.NewBoolComponent("vote_sent"),
		core.NewIntComponent("commits_received", r-1),
		core.NewBoolComponent("commit_sent"),
		core.NewBoolComponent("could_choose"),
		core.NewBoolComponent("has_chosen"),
	}
	for _, opt := range opts {
		opt(m)
	}
	m.noteVoteCommit = fmt.Sprintf("Vote threshold (%d) reached: send commit.", m.VoteThreshold())
	m.noteVoteAdd = fmt.Sprintf("Vote threshold (%d) reached: add this member's vote.", m.VoteThreshold())
	m.noteCommitVote = fmt.Sprintf("Commit threshold (%d) reached before voting: send vote.", m.CommitThreshold())
	m.noteCommitCommit = fmt.Sprintf("Commit threshold (%d) reached: send commit.", m.CommitThreshold())
	m.noteCommitDone = fmt.Sprintf("External commit threshold (%d) reached: finished.", m.CommitThreshold())
	m.fpExtra = []string{fmt.Sprintf("fig9-variant:%+v", m.variant)}
	return m, nil
}

// ReplicationFactor returns r.
func (m *Model) ReplicationFactor() int { return m.r }

// FaultTolerance returns f = ⌊(r−1)/3⌋, the number of Byzantine members the
// protocol tolerates during one execution.
func (m *Model) FaultTolerance() int { return m.f }

// VoteThreshold returns 2f+1, the number of votes (sent plus received) that
// establishes agreement on the next update.
func (m *Model) VoteThreshold() int { return 2*m.f + 1 }

// CommitThreshold returns f+1, the number of received commit messages at
// which the instance finishes (the "external commit threshold").
func (m *Model) CommitThreshold() int { return m.f + 1 }

// Name implements core.Model.
func (m *Model) Name() string { return "bft-commit" }

// FingerprintExtra implements core.Fingerprinter: the Fig. 9 variant
// changes the transition logic without changing the declared structure, so
// it must be part of the model's cache identity — the strict and redundant
// readings share name, components and messages yet generate different
// pre-merge machines.
func (m *Model) FingerprintExtra() []string { return m.fpExtra }

// Parameter implements core.Model.
func (m *Model) Parameter() int { return m.r }

// Components implements core.Model.
func (m *Model) Components() []core.StateComponent {
	return append([]core.StateComponent(nil), m.comps...)
}

// The index of each message in Messages.
const (
	miUpdate = iota
	miVote
	miCommit
	miFree
	miNotFree
)

// Messages implements core.Model.
func (m *Model) Messages() []string {
	return []string{MsgUpdate, MsgVote, MsgCommit, MsgFree, MsgNotFree}
}

// Start implements core.Model: nothing received or sent; could_choose is
// set according to the variant.
func (m *Model) Start() core.Vector {
	v := make(core.Vector, numComponents)
	if m.variant.StartCouldChoose {
		v[idxCouldChoose] = 1
	}
	return v
}

// machineState wraps a working copy of the vector during effect
// elaboration, accumulating the actions and annotations triggered by one
// message receipt (the paper's Fig. 10 pattern: a series of updates to the
// working state s1, each recorded with an annotation). The accumulators are
// fixed-capacity arrays — no handler emits more than 3 actions or 6
// annotations — so the whole struct lives on Apply's stack, and an
// applicable effect is copied into the caller's scratch.
type machineState struct {
	v           [numComponents]int
	nact, nann  int
	actions     [3]string
	annotations [6]string
}

func (s *machineState) get(i int) int    { return s.v[i] }
func (s *machineState) isSet(i int) bool { return s.v[i] != 0 }
func (s *machineState) set(i, val int)   { s.v[i] = val }
func (s *machineState) act(a string)     { s.actions[s.nact] = a; s.nact++ }
func (s *machineState) note(line string) { s.annotations[s.nann] = line; s.nann++ }

// totalVotes returns votes received plus the member's own vote, if sent
// ("the total number of votes sent and received").
func (s *machineState) totalVotes() int {
	return s.get(idxVotesReceived) + s.get(idxVoteSent)
}

// unchanged reports whether the elaboration left the vector equal to v.
func (s *machineState) unchanged(v core.Vector) bool {
	for i, val := range v {
		if s.v[i] != val {
			return false
		}
	}
	return true
}

// Apply implements core.Model: it elaborates the full consequences of
// receiving message msg (an index into Messages) in state v, taking at
// generation time the control decisions a generic algorithm would take
// dynamically.
func (m *Model) Apply(v core.Vector, msg int, eff *core.Effect) bool {
	var s machineState
	copy(s.v[:], v)
	finished := false
	switch msg {
	case miUpdate:
		m.onUpdate(&s)
	case miVote:
		if v[idxVotesReceived] == m.r-1 {
			return false // all r−1 peer votes already seen
		}
		m.onVote(&s)
	case miCommit:
		if v[idxCommitsReceived] == m.r-1 {
			return false
		}
		finished = m.onCommit(&s)
	case miFree:
		m.onFree(&s)
	case miNotFree:
		m.onNotFree(&s)
	default:
		return false
	}

	if !finished && s.nact == 0 && !m.variant.RecordNoops && s.unchanged(v) {
		return false // effect-free: message not applicable here
	}
	copy(eff.Target, s.v[:])
	eff.Finished = finished
	eff.Actions = append(eff.Actions, s.actions[:s.nact]...)
	eff.Annotations = append(eff.Annotations, s.annotations[:s.nann]...)
	return true
}

// castVote performs the voluntary vote for this update: send the vote,
// record it, optionally surrender could_choose, send the commit if the vote
// threshold is already met, mark the update chosen and tell the other
// instances this member is no longer free.
func (m *Model) castVote(s *machineState, unsetCC bool) {
	s.act(ActSendVote)
	s.set(idxVoteSent, 1)
	s.note("Vote for this update and record the vote as sent.")
	if unsetCC {
		s.set(idxCouldChoose, 0)
	}
	if m.variant.CastVoteCommits && s.totalVotes() >= m.VoteThreshold() {
		if !s.isSet(idxCommitSent) {
			s.act(ActSendCommit)
			s.set(idxCommitSent, 1)
			s.note(m.noteVoteCommit)
		}
	}
	s.set(idxHasChosen, 1)
	s.act(ActSendNotFree)
	s.note("Choose this update and notify other instances (not free).")
}

// onUpdate handles the client's update request (Fig. 9, update message).
func (m *Model) onUpdate(s *machineState) {
	if s.isSet(idxUpdateReceived) {
		return // duplicate request: no effect
	}
	s.set(idxUpdateReceived, 1)
	s.note("Record receipt of the initial update from the client.")
	if m.variant.UpdateVotes &&
		s.isSet(idxCouldChoose) && !s.isSet(idxHasChosen) && !s.isSet(idxVoteSent) {
		m.castVote(s, m.variant.UpdateUnsetsCC)
	}
}

// onVote handles a vote message from another peer-set member.
func (m *Model) onVote(s *machineState) {
	s.set(idxVotesReceived, s.get(idxVotesReceived)+1)
	s.note("Record one further vote received.")
	if s.totalVotes() < m.VoteThreshold() {
		return
	}
	if !s.isSet(idxVoteSent) {
		// Phase transition: the vote threshold is reached by other
		// members' votes, so this member votes too, allowing the update
		// to proceed ahead of any previous locally selected one.
		if m.variant.VoteSetsHC && s.isSet(idxCouldChoose) {
			s.set(idxHasChosen, 1)
			s.act(ActSendNotFree)
			s.note("Threshold reached while free: adopt the update as chosen.")
		}
		s.act(ActSendVote)
		s.set(idxVoteSent, 1)
		if m.variant.VoteUnsetsCC {
			s.set(idxCouldChoose, 0)
		}
		s.note(m.noteVoteAdd)
	}
	if !s.isSet(idxCommitSent) {
		s.act(ActSendCommit)
		s.set(idxCommitSent, 1)
		s.note(m.noteVoteCommit)
	}
}

// onCommit handles a commit message; reaching the external commit threshold
// finishes the instance. It reports whether the machine finished.
func (m *Model) onCommit(s *machineState) bool {
	s.set(idxCommitsReceived, s.get(idxCommitsReceived)+1)
	s.note("Record one further commit received.")
	if s.get(idxCommitsReceived) < m.CommitThreshold() {
		return false
	}
	// Phase transition: enough commits seen; help lagging members before
	// finishing.
	if !s.isSet(idxVoteSent) {
		s.act(ActSendVote)
		s.set(idxVoteSent, 1)
		s.note(m.noteCommitVote)
	}
	if !s.isSet(idxCommitSent) {
		s.act(ActSendCommit)
		s.set(idxCommitSent, 1)
		s.note(m.noteCommitCommit)
	}
	if s.isSet(idxHasChosen) {
		s.act(ActSendFree)
		s.note("The chosen update is committed: this member is free again.")
	}
	s.note(m.noteCommitDone)
	return true
}

// onFree handles a free message from another machine instance: the member
// has no update in progress, so this instance may choose.
func (m *Model) onFree(s *machineState) {
	if m.variant.FreeGuardHC && s.isSet(idxHasChosen) {
		return
	}
	if m.variant.FreeGuardVS && s.isSet(idxVoteSent) {
		return
	}
	s.set(idxCouldChoose, 1)
	s.note("Member is free: a future update could be voted for.")
	if s.isSet(idxUpdateReceived) && !s.isSet(idxVoteSent) {
		m.castVote(s, m.variant.FreeUnsetsCC)
	}
}

// onNotFree handles a not_free message: another update is in progress, so
// this instance may not choose.
func (m *Model) onNotFree(s *machineState) {
	if m.variant.NotFreeGuardHC && s.isSet(idxHasChosen) {
		return
	}
	if m.variant.NotFreeGuardVS && s.isSet(idxVoteSent) {
		return
	}
	s.set(idxCouldChoose, 0)
	s.note("Another update is in progress: may not choose.")
}
