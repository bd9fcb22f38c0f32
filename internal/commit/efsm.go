package commit

import (
	"fmt"

	"asagen/internal/core"
)

// This file applies the paper's §5.3 to the commit protocol: the message
// counting variables are mapped to EFSM variables, coalescing all FSM
// states within a phase. The resulting EFSM contains nine states and its
// state space is independent of the replication factor; only the guard
// bounds depend on the thresholds, and those are recorded symbolically.

// EFSM state names. Each corresponds to one combination of the protocol's
// boolean variables (update_received, vote_sent, commit_sent, could_choose,
// has_chosen) reachable in practice.
const (
	// EFSMWaitingNotFree: nothing received, another update holds the slot.
	EFSMWaitingNotFree = "WAITING_NOT_FREE"
	// EFSMWaitingFree: nothing received, free to choose.
	EFSMWaitingFree = "WAITING_FREE"
	// EFSMUpdateHeldNotFree: client update held, blocked behind another
	// ongoing update.
	EFSMUpdateHeldNotFree = "UPDATE_HELD_NOT_FREE"
	// EFSMChosenVoted: voted for this update voluntarily; quorum pending.
	EFSMChosenVoted = "CHOSEN_VOTED"
	// EFSMChosenCommitted: chosen and committed (quorum reached).
	EFSMChosenCommitted = "CHOSEN_COMMITTED"
	// EFSMAdoptedCommitted: adopted the quorum's update while free, without
	// having received the client request.
	EFSMAdoptedCommitted = "ADOPTED_COMMITTED"
	// EFSMForcedCommitted: forced to join the quorum while blocked; the
	// client request has not been seen.
	EFSMForcedCommitted = "FORCED_COMMITTED"
	// EFSMForcedCommittedUpdate: as EFSMForcedCommitted, after the client
	// request arrived late.
	EFSMForcedCommittedUpdate = "FORCED_COMMITTED_UPDATE"
)

// Abstraction coalesces commit-machine states by dropping the two count
// components, implementing core.EFSMAbstraction.
type Abstraction struct {
	model *Model
}

var _ core.EFSMAbstraction = (*Abstraction)(nil)

// NewAbstraction returns the EFSM abstraction for the given model.
func NewAbstraction(m *Model) *Abstraction { return &Abstraction{model: m} }

// StateLabel implements core.EFSMAbstraction: the label depends only on the
// boolean components.
func (a *Abstraction) StateLabel(v core.Vector) string {
	u := v[idxUpdateReceived] != 0
	vs := v[idxVoteSent] != 0
	cs := v[idxCommitSent] != 0
	cc := v[idxCouldChoose] != 0
	hc := v[idxHasChosen] != 0

	if !vs {
		switch {
		case !u && !cc:
			return EFSMWaitingNotFree
		case !u && cc:
			return EFSMWaitingFree
		case u && !cc:
			return EFSMUpdateHeldNotFree
		default:
			return boolLabel(u, vs, cs, cc, hc)
		}
	}
	switch {
	case !cs && hc && u:
		return EFSMChosenVoted
	case cs && hc && u:
		return EFSMChosenCommitted
	case cs && hc && !u:
		return EFSMAdoptedCommitted
	case cs && !hc && !u:
		return EFSMForcedCommitted
	case cs && !hc && u:
		return EFSMForcedCommittedUpdate
	default:
		return boolLabel(u, vs, cs, cc, hc)
	}
}

// boolLabel is the fallback label for boolean combinations outside the
// canonical reachable set (they can appear under non-default variants).
func boolLabel(u, vs, cs, cc, hc bool) string {
	b := func(x bool) byte {
		if x {
			return 'T'
		}
		return 'F'
	}
	return fmt.Sprintf("U%c/VS%c/CS%c/CC%c/HC%c", b(u), b(vs), b(cs), b(cc), b(hc))
}

// GuardComponent implements core.EFSMAbstraction: vote, update and free
// outcomes depend on the vote count; commit outcomes on the commit count;
// not_free is unconditional.
func (a *Abstraction) GuardComponent(msg string) int {
	switch msg {
	case MsgVote, MsgUpdate, MsgFree:
		return idxVotesReceived
	case MsgCommit:
		return idxCommitsReceived
	default:
		return -1
	}
}

// VarOps implements core.EFSMAbstraction: receipt of a vote or commit
// increments the corresponding counter.
func (a *Abstraction) VarOps(msg string) []core.VarOp {
	switch msg {
	case MsgVote:
		return []core.VarOp{{Variable: "votes_received", Delta: 1}}
	case MsgCommit:
		return []core.VarOp{{Variable: "commits_received", Delta: 1}}
	default:
		return nil
	}
}

// Symbol implements core.EFSMAbstraction: guard bounds are rendered
// relative to the protocol thresholds so the EFSM structure reads
// independently of the replication factor. Threshold anchors are tried
// before count-capacity anchors; the renderings are unambiguous for f ≥ 3
// (see the structural-identity tests).
func (a *Abstraction) Symbol(component, value int) string {
	switch component {
	case idxVotesReceived:
		t := a.model.VoteThreshold()
		switch value {
		case 0:
			return "0"
		case t:
			return "vote_threshold"
		case t - 1:
			return "vote_threshold-1"
		case t - 2:
			return "vote_threshold-2"
		case t - 3:
			return "vote_threshold-3"
		case a.model.r - 1:
			return "max_votes"
		case a.model.r - 2:
			return "max_votes-1"
		}
	case idxCommitsReceived:
		c := a.model.CommitThreshold()
		switch value {
		case 0:
			return "0"
		case c - 1:
			return "commit_threshold-1"
		case c - 2:
			return "commit_threshold-2"
		case c - 3:
			return "commit_threshold-3"
		case a.model.r - 1:
			return "max_commits"
		}
	}
	return ""
}
