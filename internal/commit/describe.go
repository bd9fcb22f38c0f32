package commit

import (
	"strconv"

	"asagen/internal/core"
)

// DescribeState implements core.Model: it produces the Fig. 14 style
// commentary describing a state in terms of the generic algorithm, derived
// entirely from the state's component values and the model's thresholds.
// It runs once per reachable state, so constant lines are added as the
// constants they are and counted lines are composed in t's scratch, which
// copies each distinct line once per member.
func (m *Model) DescribeState(v core.Vector, t *core.Text) {
	votes := v[idxVotesReceived]
	commits := v[idxCommitsReceived]
	totalVotes := votes + v[idxVoteSent]

	if v[idxUpdateReceived] != 0 {
		t.Line("Have received initial update from client.")
	} else {
		t.Line("Have not yet received initial update from client.")
	}

	if v[idxVoteSent] != 0 {
		t.Line("Have voted for this update.")
	} else if v[idxCouldChoose] == 0 {
		t.Line("Have not voted since another update has already been voted for.")
	} else {
		t.Line("Have not yet voted for this update.")
	}

	b := append(t.Scratch(), "Have received "...)
	b = appendPlural(b, votes, "vote")
	b = append(b, " and "...)
	b = appendPlural(b, commits, "commit")
	t.LineBytes(append(b, '.'))

	if v[idxCommitSent] != 0 {
		t.Line("Have sent a commit.")
	} else {
		b := append(t.Scratch(), "Have not sent a commit since neither the vote threshold ("...)
		b = strconv.AppendInt(b, int64(m.VoteThreshold()), 10)
		b = append(b, ") nor the external commit threshold ("...)
		b = strconv.AppendInt(b, int64(m.CommitThreshold()), 10)
		t.LineBytes(append(b, ") has been reached."...))
	}

	if v[idxCouldChoose] != 0 {
		t.Line("May choose a future update.")
	} else {
		t.Line("May not choose since another ongoing update has been voted for.")
	}

	if v[idxHasChosen] != 0 {
		t.Line("Have chosen this update.")
	} else {
		t.Line("Have not chosen this update since another ongoing update has been chosen.")
	}

	if remaining := m.VoteThreshold() - totalVotes; remaining > 0 {
		b := appendPlural(append(t.Scratch(), "Waiting for "...), remaining, "further vote")
		t.LineBytes(append(b, " (including local vote if any) before sending commit."...))
	}
	if remaining := m.CommitThreshold() - commits; remaining > 0 {
		b := appendPlural(append(t.Scratch(), "Waiting for "...), remaining, "further external commit")
		t.LineBytes(append(b, " to finish."...))
	}
}

// appendPlural appends n counted nouns: "no votes", "1 vote", "3 votes".
func appendPlural(b []byte, n int, noun string) []byte {
	switch n {
	case 1:
		return append(append(b, "1 "...), noun...)
	case 0:
		b = append(append(b, "no "...), noun...)
	default:
		b = append(append(strconv.AppendInt(b, int64(n), 10), ' '), noun...)
	}
	return append(b, 's')
}
