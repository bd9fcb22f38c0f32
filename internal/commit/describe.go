package commit

import (
	"strconv"

	"asagen/internal/core"
)

// DescribeState implements core.Model: it produces the Fig. 14 style
// commentary describing a state in terms of the generic algorithm, derived
// entirely from the state's component values and the model's thresholds.
// It runs once per reachable state, so constant lines are appended as the
// constants they are and counted lines are concatenated, not formatted.
func (m *Model) DescribeState(v core.Vector) []string {
	lines := make([]string, 0, 8)

	votes := v[idxVotesReceived]
	commits := v[idxCommitsReceived]
	totalVotes := votes + v[idxVoteSent]

	if v[idxUpdateReceived] != 0 {
		lines = append(lines, "Have received initial update from client.")
	} else {
		lines = append(lines, "Have not yet received initial update from client.")
	}

	if v[idxVoteSent] != 0 {
		lines = append(lines, "Have voted for this update.")
	} else if v[idxCouldChoose] == 0 {
		lines = append(lines, "Have not voted since another update has already been voted for.")
	} else {
		lines = append(lines, "Have not yet voted for this update.")
	}

	lines = append(lines, "Have received "+plural(votes, "vote")+" and "+plural(commits, "commit")+".")

	if v[idxCommitSent] != 0 {
		lines = append(lines, "Have sent a commit.")
	} else {
		lines = append(lines, "Have not sent a commit since neither the vote threshold ("+strconv.Itoa(m.VoteThreshold())+
			") nor the external commit threshold ("+strconv.Itoa(m.CommitThreshold())+") has been reached.")
	}

	if v[idxCouldChoose] != 0 {
		lines = append(lines, "May choose a future update.")
	} else {
		lines = append(lines, "May not choose since another ongoing update has been voted for.")
	}

	if v[idxHasChosen] != 0 {
		lines = append(lines, "Have chosen this update.")
	} else {
		lines = append(lines, "Have not chosen this update since another ongoing update has been chosen.")
	}

	if remaining := m.VoteThreshold() - totalVotes; remaining > 0 {
		lines = append(lines, "Waiting for "+plural(remaining, "further vote")+" (including local vote if any) before sending commit.")
	}
	if remaining := m.CommitThreshold() - commits; remaining > 0 {
		lines = append(lines, "Waiting for "+plural(remaining, "further external commit")+" to finish.")
	}
	return lines
}

func plural(n int, noun string) string {
	switch n {
	case 1:
		return "1 " + noun
	case 0:
		return "no " + noun + "s"
	}
	return strconv.Itoa(n) + " " + noun + "s"
}
