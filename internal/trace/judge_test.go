package trace

import (
	"context"
	"errors"
	"slices"
	"strconv"
	"strings"
	"testing"

	"asagen/internal/core"
	"asagen/internal/models"
	"asagen/internal/runtime"
)

// TestJudge walks the chain machine through every kind a Judge rules at
// tolerances 0, 1 and 2: a rejection in the start state, accepted
// deliveries (one with an action), the finishing one, deliveries after the
// finish (runtime.ErrFinished), and a Reset that starts over with a fresh
// budget.
func TestJudge(t *testing.T) {
	machine := chainMachine(t)
	msgs := []string{"ring", "inc", "ring", "inc", "inc", "inc", "ring"}
	const (
		A = KindAccepted
		I = KindIgnored
		V = KindViolation
	)
	for _, tc := range []struct {
		tolerance int
		want      []Kind
	}{
		{0, []Kind{V, A, A, A, A, V, V}},
		{1, []Kind{I, A, A, A, A, V, V}},
		{2, []Kind{I, A, A, A, A, I, V}},
	} {
		j, err := NewJudge(machine, tc.tolerance)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			finished := 0
			for i, msg := range msgs {
				d := j.Deliver(msg)
				if d.Kind != tc.want[i] {
					t.Fatalf("tolerance %d pass %d delivery %d (%s): kind %s, want %s",
						tc.tolerance, pass, i, msg, d.Kind, tc.want[i])
				}
				if (d.Kind == KindAccepted) != (d.Tr != nil) || (d.Kind == KindAccepted) != (d.Err == nil) {
					t.Fatalf("tolerance %d delivery %d: %s with transition %v and error %v",
						tc.tolerance, i, d.Kind, d.Tr, d.Err)
				}
				if i == 2 && d.Tr.Actions[0] != "->bell" {
					t.Fatalf("tolerance %d: ring fired %+v, want the ->bell transition", tc.tolerance, d.Tr)
				}
				if d.Finished {
					finished++
					if i != 4 || !j.State().Final {
						t.Fatalf("tolerance %d: delivery %d reported finished in state %s", tc.tolerance, i, j.State().Name)
					}
				}
				if afterFinish := i > 4; afterFinish != errors.Is(d.Err, runtime.ErrFinished) {
					t.Fatalf("tolerance %d delivery %d: error %v", tc.tolerance, i, d.Err)
				}
			}
			if finished != 1 {
				t.Fatalf("tolerance %d: finished reported %d times, want once", tc.tolerance, finished)
			}
			j.Reset()
			if j.State() != machine.Start {
				t.Fatalf("tolerance %d: Reset left the machine in %s", tc.tolerance, j.State().Name)
			}
		}
	}
}

// TestJudgeExpectSparesTheBudget: a rejected Expect is a violation at any
// tolerance and leaves the budget to the next Deliver.
func TestJudgeExpectSparesTheBudget(t *testing.T) {
	j, err := NewJudge(chainMachine(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, step := range []struct {
		expect bool
		msg    string
		want   Kind
	}{
		{true, "ring", KindViolation},
		{false, "ring", KindIgnored},
		{false, "ring", KindViolation},
		{true, "inc", KindAccepted},
	} {
		deliver := j.Deliver
		if step.expect {
			deliver = j.Expect
		}
		if d := deliver(step.msg); d.Kind != step.want {
			t.Fatalf("step %d (%s): kind %s, want %s", i, step.msg, d.Kind, step.want)
		}
	}
}

func TestNewJudgeRefusesNilMachine(t *testing.T) {
	if _, err := NewJudge(nil, 0); err == nil {
		t.Error("nil machine accepted")
	}
}

// registryMachine generates a registry model at its default parameter.
func registryMachine(t testing.TB, name string) *core.StateMachine {
	t.Helper()
	entry, err := models.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	model, err := entry.Model(0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Generate(context.Background(), model)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSymbolsBelongToOneRun: a decoder numbers messages in the order it
// first sees them, and a Judge resolves each number once per run. A
// Monitor over each of two machines with different vocabularies (commit
// and chord) runs traces whose first-seen orders differ, with messages
// outside both vocabularies and with lines the decoders read on their
// slow paths (bare JSON strings, escaped messages), which carry no
// symbol. Every verdict encodes to Verdict.AppendJSON's bytes, and each
// run's stream is the stream of a fresh Monitor over the same trace, so
// a judge that kept one decoder's symbols into the next run fails here.
func TestSymbolsBelongToOneRun(t *testing.T) {
	var enc Encoder
	var stream, encoded []byte
	monitor := func(machine *core.StateMachine) *Monitor {
		mon, err := newMonitor(machine, 1<<20, true, ObserverFunc(func(v Verdict) bool {
			m, n := len(stream), len(encoded)
			stream = v.AppendJSON(stream)
			encoded = enc.Append(encoded, &v)
			if string(encoded[n:]) != string(stream[m:]) {
				t.Fatalf("Encoder.Append = %s\nAppendJSON     = %s", encoded[n:], stream[m:])
			}
			return true
		}))
		if err != nil {
			t.Fatal(err)
		}
		return mon
	}
	run := func(mon *Monitor, dec Decoder) string {
		enc, stream, encoded = Encoder{}, stream[:0], encoded[:0]
		rep, err := mon.Run(context.Background(), dec)
		last := Terminal(rep, err)
		stream = last.AppendJSON(stream)
		return string(stream)
	}
	// jsonl writes each message in turn as a fast-path object, a bare
	// string and an object whose message is escaped.
	jsonl := func(msgs ...string) string {
		var b strings.Builder
		for i, msg := range msgs {
			switch i % 3 {
			case 0:
				b.WriteString(`{"msg":"` + msg + `","seq":` + strconv.Itoa(i) + "}\n")
			case 1:
				b.WriteString(`"` + msg + `"` + "\n")
			default:
				b.WriteString(`{"msg":"\u00` + strconv.FormatInt(int64(msg[0]), 16) + msg[1:] + `"}` + "\n")
			}
		}
		return b.String()
	}
	text := func(msgs ...string) string {
		var b strings.Builder
		for _, msg := range msgs {
			b.WriteString("12:00 recv " + msg + " from n1\n")
		}
		return b.String()
	}
	forward := []string{"FREE", "JOIN", "NOPE", "UPDATE", "STABILIZE", "VOTE", "NOTIFY", "VOTE", "COMMIT", "LEAVE", "COMMIT"}
	backward := slices.Clone(forward)
	slices.Reverse(backward)
	mixed := append(append(slices.Clone(backward), forward...), backward...)
	for _, machine := range []*core.StateMachine{registryMachine(t, "commit"), registryMachine(t, "chord")} {
		shared := monitor(machine)
		for i, tc := range []struct {
			regex bool
			trace string
		}{
			{false, jsonl(forward...) + jsonl(forward...)},
			{false, jsonl(backward...) + jsonl(forward...)},
			{true, text(mixed...)},
			{true, text(forward...)},
			{false, jsonl(mixed...)},
		} {
			decode := func() Decoder {
				if tc.regex {
					return NewRegexDecoder(strings.NewReader(tc.trace), nil)
				}
				return NewJSONLDecoder(strings.NewReader(tc.trace))
			}
			got := run(shared, decode())
			if want := run(monitor(machine), decode()); got != want {
				t.Fatalf("%s run %d: the reused monitor's stream\n%s\ndiffers from a fresh monitor's\n%s",
					machine.ModelName, i, got, want)
			}
			if !strings.Contains(got, `"kind":"accepted"`) || !strings.Contains(got, `"kind":"ignored"`) {
				t.Fatalf("%s run %d: stream %s lacks accepted or ignored verdicts", machine.ModelName, i, got)
			}
		}
	}
}
