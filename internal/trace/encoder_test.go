package trace

import (
	"context"
	"encoding/json"
	"io"
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

// jsonl decodes a trace as JSON Lines.
func jsonl(r io.Reader) Decoder { return NewJSONLDecoder(r) }

// encodeBothWays runs every trace through a monitor whose observer encodes
// each verdict with one Encoder, shared by all the runs as a stream's is
// by all its lines, and with Verdict.AppendJSON, and requires the same
// bytes. It returns the number of accepted verdicts seen.
func encodeBothWays(t *testing.T, enc *Encoder, decode func(io.Reader) Decoder, traces []string, opts ...MonitorOption) int {
	t.Helper()
	var got, want []byte
	accepted := 0
	mon, err := NewMonitor(append(opts, WithTolerance(1), WithKeepGoing(),
		WithObserver(ObserverFunc(func(v Verdict) bool {
			if v.Kind == KindAccepted {
				accepted++
			}
			got = enc.Append(got[:0], &v)
			want = v.AppendJSON(want[:0])
			if string(got) != string(want) {
				t.Fatalf("Encoder.Append = %s\nAppendJSON     = %s", got, want)
			}
			return true
		})))...)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range traces {
		if _, err := mon.Run(context.Background(), decode(strings.NewReader(tr))); err != nil {
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
		if accepted := encodeBothWays(t, &enc, jsonl, traces, WithTarget("", m)); accepted <= transitions {
			t.Fatalf("%s: %d accepted verdicts for %d transitions: the memo was never hit", name, accepted, transitions)
		}
		if len(enc.tails) != transitions {
			t.Errorf("%s: the memo holds %d transitions, want all %d", name, len(enc.tails), transitions)
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

	// Two targets: each verdict carries a "target" key. Over two machines
	// both targets' transitions are kept; over one machine, the second
	// target's verdicts take the field-by-field path.
	commit, chord := machines["commit"], machines["chord"]
	var enc Encoder
	encodeBothWays(t, &enc, jsonl, everyTransition(t, commit), WithTarget("a \"é\"", commit), WithTarget("b", chord))
	if len(enc.tails) == 0 {
		t.Error("a two-target run kept no transition")
	}
	encodeBothWays(t, &enc, jsonl, everyTransition(t, commit), WithTarget("a", commit), WithTarget("b", commit))

	// The line counter: a stream long enough to carry 9→10, 99→100 and
	// 999→1000, first line after line, then with the accepted lines broken
	// up by blank lines, ignored and violating lines (a JSON Lines trace)
	// and skipped lines (a text trace), and judged by two targets, each
	// accepted line twice. The one Encoder then starts again from line 1.
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
	regex := func(r io.Reader) Decoder { return NewRegexDecoder(r, nil) }
	// A second commit machine accepts the same messages through
	// transitions of its own, so both targets' verdicts come from the memo.
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
		decode func(io.Reader) Decoder
		trace  string
		opts   []MonitorOption
	}{
		{jsonl, plain.String(), []MonitorOption{WithTarget("", commit)}},
		{jsonl, gappy.String(), []MonitorOption{WithTarget("", commit)}},
		{regex, text.String(), []MonitorOption{WithTarget("", commit)}},
		{jsonl, plain.String(), []MonitorOption{WithTarget("a", commit), WithTarget("b", commit5)}},
		{jsonl, conformingCommitPrefix, []MonitorOption{WithTarget("", commit)}},
	} {
		if accepted := encodeBothWays(t, &enc, run.decode, []string{run.trace}, run.opts...); accepted == 0 {
			t.Fatalf("no accepted verdict in %.40q", run.trace)
		}
	}
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
