package trace

import (
	"context"
	"encoding/json"
	"slices"
	"strconv"
	"strings"
	"testing"

	"asagen/internal/core"
	"asagen/internal/models"
	"asagen/internal/spec"
)

// escapingSpec is a model whose message and action names need JSON
// escaping: quotes, backslashes and non-ASCII are as far as the spec
// language goes (it refuses control characters).
const escapingSpec = `{
  "name": "escaping",
  "components": [{"name": "n", "kind": "int", "max": {"param": true}}],
  "messages": ["say \"hi\"", "back\\slash", "grüß"],
  "rules": [
    {"message": "say \"hi\"", "when": [{"component": "n", "op": "<", "value": {"param": true}}],
     "set": [{"component": "n", "add": 1}], "actions": ["->\"quoted\""]},
    {"message": "back\\slash", "set": [{"component": "n", "set": {"offset": 0}}], "actions": ["->a\\b", "->ünïcödé"]},
    {"message": "grüß", "when": [{"component": "n", "op": "==", "value": {"param": true}}], "finish": true}
  ]
}`

// everyTransition returns one JSON Lines trace per transition of m: the
// shortest path to the transition's source state, its message, then an
// out-of-vocabulary message twice (ignored under tolerance 1, then a
// violation).
func everyTransition(t *testing.T, m *core.StateMachine) []string {
	t.Helper()
	line := func(msg string) string {
		b, err := json.Marshal(msg)
		if err != nil {
			t.Fatal(err)
		}
		return string(b) + "\n"
	}
	path := map[*core.State]string{m.Start: ""}
	queue := []*core.State{m.Start}
	var traces []string
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, msg := range s.SortedMessages(m.Messages) {
			tr := s.Transitions[msg]
			traces = append(traces, path[s]+line(msg)+line("NOPE")+line("NOPE"))
			if _, seen := path[tr.Target]; !seen && !tr.Target.Final {
				path[tr.Target] = path[s] + line(msg)
				queue = append(queue, tr.Target)
			}
		}
	}
	return traces
}

// encodeBothWays checks every trace against m at tolerance 1, reading
// past violations, through an observer that encodes each verdict with one
// Encoder, shared by all the runs as a stream's is by all its lines, and
// with Verdict.AppendJSON, and requires the same bytes. It returns the
// number of accepted verdicts seen.
func encodeBothWays(t *testing.T, enc *Encoder, format string, m *core.StateMachine, traces []string) int {
	t.Helper()
	var got, want []byte
	accepted := 0
	obs := ObserverFunc(func(v Verdict) bool {
		if v.Kind == KindAccepted {
			accepted++
		}
		got = enc.Append(got[:0], &v)
		want = v.AppendJSON(want[:0])
		if string(got) != string(want) {
			t.Fatalf("Encoder.Append = %s\nAppendJSON     = %s", got, want)
		}
		return true
	})
	chk := Check{Format: format, Tolerance: 1, KeepGoing: true}
	for _, tr := range traces {
		if _, err := chk.Run(context.Background(), m, strings.NewReader(tr), obs); err != nil {
			t.Fatal(err)
		}
	}
	return accepted
}

// TestEncoderMatchesAppendJSON: for every registry model at its default
// parameter and a spec whose names need escaping, every transition
// delivered — accepted, finished, ignored and violation verdicts among
// them — encodes to Verdict.AppendJSON's bytes through the memo.
func TestEncoderMatchesAppendJSON(t *testing.T) {
	machines := map[string]*core.StateMachine{}
	for _, name := range models.Names() {
		entry, err := models.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		model, err := entry.Model(0)
		if err != nil {
			t.Fatal(err)
		}
		if machines[name], err = core.Generate(context.Background(), model); err != nil {
			t.Fatal(err)
		}
	}
	compiled, err := spec.ParseAndCompile([]byte(escapingSpec))
	if err != nil {
		t.Fatal(err)
	}
	model, err := compiled.Entry().Model(2)
	if err != nil {
		t.Fatal(err)
	}
	if machines["escaping"], err = core.Generate(context.Background(), model); err != nil {
		t.Fatal(err)
	}

	for name, m := range machines {
		transitions := 0
		for _, s := range m.States {
			transitions += len(s.Transitions)
		}
		traces := everyTransition(t, m)
		if len(traces) != transitions {
			t.Fatalf("%s: %d traces for %d transitions", name, len(traces), transitions)
		}
		var enc Encoder
		if accepted := encodeBothWays(t, &enc, FormatJSONL, m, traces); accepted <= transitions {
			t.Fatalf("%s: %d accepted verdicts for %d transitions: the memo was never hit", name, accepted, transitions)
		}
		if kept := memoised(&enc); kept != transitions {
			t.Errorf("%s: the memo holds %d transitions, want all %d", name, kept, transitions)
		}
		if name == "escaping" {
			var tails strings.Builder
			for _, e := range enc.tails {
				tails.WriteString(e.tail)
			}
			for _, want := range []string{`"event":"say \"hi\""`, `"event":"back\\slash"`, `"->a\\b","->ünïcödé"`} {
				if !strings.Contains(tails.String(), want) {
					t.Errorf("no memoised verdict contains %s", want)
				}
			}
		}
	}

	// One Encoder across two machines: each table position is kept for
	// the first transition that fires at it, commit's, and chord's
	// transitions at those positions are encoded field by field.
	commit, chord := machines["commit"], machines["chord"]
	var enc Encoder
	encodeBothWays(t, &enc, FormatJSONL, commit, everyTransition(t, commit))
	kept := slices.Clone(enc.tails)
	if accepted := encodeBothWays(t, &enc, FormatJSONL, chord, everyTransition(t, chord)); accepted == 0 {
		t.Fatal("chord accepted nothing")
	}
	for i, e := range kept {
		if e.tr != nil && enc.tails[i] != e {
			t.Fatalf("table position %d: commit's memo entry was replaced by chord's", i)
		}
	}

	// The line counter: a stream long enough to carry 9→10, 99→100 and
	// 999→1000, first line after line, then with the accepted lines broken
	// up by blank lines, ignored and violating lines (a JSON Lines trace)
	// and skipped lines (a text trace), then line after line again against
	// a second machine. The one Encoder then starts again from line 1.
	var plain, gappy, text strings.Builder
	for n := 1; n <= 1200; n++ {
		msg := []string{"FREE", "NOT_FREE"}[n%2]
		plain.WriteString(`{"msg":"` + msg + `"}` + "\n")
		switch {
		case n%7 == 0:
			gappy.WriteString("\n")
			text.WriteString("noise without a message\n")
		case n%11 == 0:
			gappy.WriteString(`"NOPE"` + "\n")
			text.WriteString("12:00 recv NOPE\n")
		default:
			gappy.WriteString(`{"msg":"` + msg + `"}` + "\n")
			text.WriteString("12:00 recv " + msg + "\n")
		}
	}
	// A second commit machine accepts the same messages through
	// transitions of its own; where the first machine's hold the same
	// table positions, its verdicts are encoded field by field.
	entry, err := models.Get("commit")
	if err != nil {
		t.Fatal(err)
	}
	model, err = entry.Model(5)
	if err != nil {
		t.Fatal(err)
	}
	commit5, err := core.Generate(context.Background(), model)
	if err != nil {
		t.Fatal(err)
	}
	enc = Encoder{}
	for _, run := range []struct {
		format  string
		machine *core.StateMachine
		trace   string
	}{
		{FormatJSONL, commit, plain.String()},
		{FormatJSONL, commit, gappy.String()},
		{FormatRegex, commit, text.String()},
		{FormatJSONL, commit5, plain.String()},
		{FormatJSONL, commit, conformingCommitPrefix},
	} {
		if accepted := encodeBothWays(t, &enc, run.format, run.machine, []string{run.trace}); accepted == 0 {
			t.Fatalf("no accepted verdict in %.40q", run.trace)
		}
	}
}

// memoised counts the transitions an Encoder's memo holds.
func memoised(enc *Encoder) int {
	n := 0
	for _, e := range enc.tails {
		if e.tr != nil {
			n++
		}
	}
	return n
}

// conformingCommitPrefix is a short commit trace that starts from line 1.
const conformingCommitPrefix = "{\"msg\":\"FREE\"}\n\"UPDATE\"\n\"VOTE\"\n"

// TestEncoderLineDigits holds the counter to strconv line by line across
// every carry up to 10^5, the same line twice, and jumps both ways.
func TestEncoderLineDigits(t *testing.T) {
	var e Encoder
	check := func(line int) {
		t.Helper()
		if got, want := string(e.lineDigits(line)), strconv.Itoa(line); got != want {
			t.Fatalf("lineDigits(%d) = %q, want %q", line, got, want)
		}
	}
	for line := 1; line <= 100_000; line++ {
		check(line)
	}
	for _, line := range []int{100_000, 7, 7, 8, 9, 10, 1, 99_999, 100_000, 100_001, 999, 1000, 1 << 62} {
		check(line)
	}
}
