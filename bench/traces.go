package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strconv"

	"asagen/internal/core"
	"asagen/internal/models"
)

// checkTargets are the machines check-stream monitors. All three have
// cycles that avoid the finish state, so a conforming trace of any length
// exists. (The consensus and storage machines are acyclic: their longest
// conforming trace is a few dozen events, too short to time a stream.)
var checkTargets = []struct {
	model string
	param int
}{{"commit", 4}, {"commit", 13}, {"chord", 4}}

const (
	traceLines    = 5000
	violationLine = 4000 // the violating trace breaks here
	toleratedA    = 1000 // the tolerated trace carries two rejected
	toleratedB    = 3000 // deliveries, at these lines
)

// step is one line of a walk: the message sent and what the machine's
// transition table says must come back.
type step struct {
	msg      string
	rejected bool // not applicable in the current state
	state    string
	actions  []string
}

// liveStates returns the states from which the machine can run forever
// without finishing: the greatest set whose every member has a transition
// to another member.
func liveStates(m *core.StateMachine) map[*core.State]bool {
	live := map[*core.State]bool{}
	for _, s := range m.States {
		if !s.Final {
			live[s] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, s := range m.States {
			if !live[s] {
				continue
			}
			stays := false
			for _, t := range s.Transitions {
				if live[t.Target] {
					stays = true
					break
				}
			}
			if !stays {
				delete(live, s)
				changed = true
			}
		}
	}
	return live
}

// walk takes a seeded random walk of n lines over the machine's
// transition table, never leaving the live states. At each line in
// rejectAt it sends a message that is not applicable instead (moving on
// to the next line when the state accepts every message), which leaves
// the state unchanged.
func walk(m *core.StateMachine, seed int64, n int, rejectAt ...int) ([]step, error) {
	live := liveStates(m)
	if !live[m.Start] {
		return nil, fmt.Errorf("%s r=%d cannot run %d lines without finishing", m.ModelName, m.Parameter, n)
	}
	rng := rand.New(rand.NewSource(seed))
	cur := m.Start
	steps := make([]step, 0, n)
	for line := 1; line <= n; line++ {
		if len(rejectAt) > 0 && line >= rejectAt[0] {
			var inapplicable []string
			for _, msg := range m.Messages {
				if cur.Transitions[msg] == nil {
					inapplicable = append(inapplicable, msg)
				}
			}
			if len(inapplicable) > 0 {
				rejectAt = rejectAt[1:]
				msg := inapplicable[rng.Intn(len(inapplicable))]
				steps = append(steps, step{msg: msg, rejected: true, state: cur.Name})
				continue
			}
		}
		var choices []*core.Transition
		for _, msg := range cur.SortedMessages(m.Messages) {
			if t := cur.Transitions[msg]; live[t.Target] {
				choices = append(choices, t)
			}
		}
		t := choices[rng.Intn(len(choices))]
		cur = t.Target
		steps = append(steps, step{msg: t.Message, state: cur.Name, actions: t.Actions})
	}
	if len(rejectAt) > 0 {
		return nil, fmt.Errorf("%s r=%d: no state after line %d rejects any message", m.ModelName, m.Parameter, rejectAt[0])
	}
	return steps, nil
}

// jsonl renders a walk as a JSON Lines trace.
func jsonl(steps []step) []byte {
	var b bytes.Buffer
	for _, s := range steps {
		fmt.Fprintf(&b, "{\"msg\":%q}\n", s.msg)
	}
	return b.Bytes()
}

// textLog renders a walk as the kind of log the regex front end's default
// rule reads: the message is the line's first ALL_CAPS token.
func textLog(steps []step, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	var b bytes.Buffer
	for i, s := range steps {
		ms := i * 7
		fmt.Fprintf(&b, "12:%02d:%02d.%03d member-%d recv %s from member-%d\n",
			ms/60000%60, ms/1000%60, ms%1000, rng.Intn(4), s.msg, rng.Intn(4))
	}
	return b.Bytes()
}

// expectedStream writes, from the walk alone, the Server-Sent Events body
// POST …/check must answer with: one verdict per line up to the first
// violation (a rejected delivery beyond the tolerance), then the summary.
func expectedStream(steps []step, tolerance int) []byte {
	var b bytes.Buffer
	accepted, ignored, violations, lines := 0, 0, 0, 0
	last := ""
	event := func(line int, s step, kind string) {
		fmt.Fprintf(&b, "event: %s\ndata: {\"line\":%d,\"event\":%q,\"kind\":%q,\"state\":%q", kind, line, s.msg, kind, s.state)
		if len(s.actions) > 0 {
			b.WriteString(`,"actions":[`)
			for i, a := range s.actions {
				if i > 0 {
					b.WriteByte(',')
				}
				b.WriteString(strconv.Quote(a))
			}
			b.WriteByte(']')
		}
		if s.rejected {
			fmt.Fprintf(&b, ",\"detail\":\"runtime: message %s not applicable in state %s\"", s.msg, s.state)
		}
		b.WriteString("}\n\n")
	}
	for i, s := range steps {
		lines = i + 1
		last = s.state
		switch {
		case !s.rejected:
			accepted++
			event(lines, s, "accepted")
		case ignored < tolerance:
			ignored++
			event(lines, s, "ignored")
		default:
			violations++
			event(lines, s, "violation")
		}
		if violations > 0 {
			break
		}
	}
	fmt.Fprintf(&b, "event: summary\ndata: {\"kind\":\"summary\",\"stats\":{\"lines\":%d,\"events\":%d,\"accepted\":%d,\"ignored\":%d,\"skipped\":0,\"violations\":%d",
		lines, lines, accepted, ignored, violations)
	if violations > 0 {
		fmt.Fprintf(&b, ",\"first_violation\":%d", lines)
	}
	fmt.Fprintf(&b, ",\"finished\":false,\"final_state\":%q}}\n\n", last)
	return b.Bytes()
}

// checkKeys builds the four check ops of one machine: a conforming JSONL
// trace, the same events as a text log, a violating trace and a trace
// that needs tolerance=2.
func checkKeys(model string, param int, seed int64) ([]*key, error) {
	entry, err := models.Get(model)
	if err != nil {
		return nil, err
	}
	abstract, err := entry.Build(param)
	if err != nil {
		return nil, err
	}
	m, err := core.Generate(context.Background(), abstract)
	if err != nil {
		return nil, err
	}
	conforming, err := walk(m, seed, traceLines)
	if err != nil {
		return nil, err
	}
	violating, err := walk(m, seed+1, traceLines, violationLine)
	if err != nil {
		return nil, err
	}
	tolerated, err := walk(m, seed+2, traceLines, toleratedA, toleratedB)
	if err != nil {
		return nil, err
	}
	post := func(what, query string, body, want []byte) *key {
		return &key{
			name:   fmt.Sprintf("CHECK %s r=%d %s", model, param, what),
			method: "POST", path: fmt.Sprintf("/v1/models/%s/check?r=%d%s", model, param, query),
			body: body, status: 200, wantBody: want,
		}
	}
	return []*key{
		post("jsonl", "", jsonl(conforming), expectedStream(conforming, 0)),
		post("regex", "&format=regex", textLog(conforming, seed), expectedStream(conforming, 0)),
		post("violating", "", jsonl(violating), expectedStream(violating, 0)),
		post("tolerated", "&tolerance=2", jsonl(tolerated), expectedStream(tolerated, 2)),
	}, nil
}
