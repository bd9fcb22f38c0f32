package trace

import (
	"context"
	"errors"
	"io"
	"strings"
	"testing"

	"asagen/internal/core"
)

// chainModel is a three-state machine: 0 -inc-> 1 -inc-> 2 -inc-> FINISHED,
// with a "ring" phase transition (and action) from state 1 only.
type chainModel struct{}

func (chainModel) Name() string   { return "chain" }
func (chainModel) Parameter() int { return 2 }
func (chainModel) Components() []core.StateComponent {
	return []core.StateComponent{core.NewIntComponent("n", 2)}
}
func (chainModel) Messages() []string { return []string{"inc", "ring"} }
func (chainModel) Start() core.Vector { return core.Vector{0} }
func (chainModel) Apply(v core.Vector, mi int, out *core.Effect) bool {
	msg := chainModel{}.Messages()[mi]
	switch msg {
	case "inc":
		if v[0] == 2 {
			*out = core.Effect{Finished: true}
			return true
		}
		*out = core.Effect{Target: core.Vector{v[0] + 1}}
		return true
	case "ring":
		if v[0] != 1 {
			return false
		}
		*out = core.Effect{Target: core.Vector{1}, Actions: []string{"->bell"}}
		return true
	default:
		return false
	}
}
func (chainModel) DescribeState(core.Vector, *core.Text) {}

func chainMachine(t *testing.T) *core.StateMachine {
	t.Helper()
	m, err := core.Generate(context.Background(), chainModel{})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return m
}

// collect runs chk over input against machine and returns every verdict.
func collect(t *testing.T, machine *core.StateMachine, input string, chk Check) ([]Verdict, Report, error) {
	t.Helper()
	var verdicts []Verdict
	rep, err := chk.Run(context.Background(), machine, strings.NewReader(input), ObserverFunc(func(v Verdict) bool {
		verdicts = append(verdicts, v)
		return true
	}))
	return verdicts, rep, err
}

func TestMonitorConformingTrace(t *testing.T) {
	machine := chainMachine(t)
	input := `{"msg":"inc"}
"ring"

{"msg":"inc","seq":7}
{"msg":"inc"}
`
	verdicts, rep, err := collect(t, machine, input, Check{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	kinds := make([]Kind, 0, len(verdicts))
	for _, v := range verdicts {
		kinds = append(kinds, v.Kind)
	}
	want := []Kind{KindAccepted, KindAccepted, KindAccepted, KindAccepted, KindFinished}
	if len(kinds) != len(want) {
		t.Fatalf("verdicts = %v, want kinds %v", verdicts, want)
	}
	for i, k := range want {
		if kinds[i] != k {
			t.Fatalf("verdict %d kind = %s, want %s (all: %v)", i, kinds[i], k, verdicts)
		}
	}
	if verdicts[1].Actions == nil || verdicts[1].Actions[0] != "->bell" {
		t.Errorf("ring verdict actions = %v", verdicts[1].Actions)
	}
	if verdicts[1].Line != 2 {
		t.Errorf("ring verdict line = %d, want 2 (blank line must still count)", verdicts[1].Line)
	}
	if !rep.Conforming() || !rep.Finished {
		t.Errorf("report = %+v, want conforming and finished", rep)
	}
	if rep.Lines != 5 || rep.Events != 4 || rep.Accepted != 4 {
		t.Errorf("report counters = %+v", rep)
	}
	if rep.FinalState == "" {
		t.Error("report has no final state")
	}
}

func TestMonitorViolationStops(t *testing.T) {
	machine := chainMachine(t)
	// ring is not applicable in state 0: first delivery violates at
	// tolerance 0 and the run stops before the trailing inc.
	verdicts, rep, err := collect(t, machine, "\"ring\"\n\"inc\"\n", Check{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(verdicts) != 1 || verdicts[0].Kind != KindViolation {
		t.Fatalf("verdicts = %v, want one violation", verdicts)
	}
	if verdicts[0].Detail == "" {
		t.Error("violation verdict has no detail")
	}
	if rep.Conforming() || rep.Violations != 1 || rep.FirstViolation != 1 {
		t.Errorf("report = %+v", rep)
	}
	if rep.Events != 1 {
		t.Errorf("events = %d, want 1 (run must stop at the violation)", rep.Events)
	}
}

func TestMonitorTolerance(t *testing.T) {
	machine := chainMachine(t)
	verdicts, rep, err := collect(t, machine, "\"ring\"\n\"ring\"\n\"inc\"\n", Check{Tolerance: 1})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(verdicts) != 2 {
		t.Fatalf("verdicts = %v", verdicts)
	}
	if verdicts[0].Kind != KindIgnored || verdicts[1].Kind != KindViolation {
		t.Fatalf("kinds = %s, %s; want ignored, violation", verdicts[0].Kind, verdicts[1].Kind)
	}
	if rep.Ignored != 1 || rep.Violations != 1 || rep.FirstViolation != 2 {
		t.Errorf("report = %+v", rep)
	}
}

func TestMonitorKeepGoing(t *testing.T) {
	machine := chainMachine(t)
	verdicts, rep, err := collect(t, machine, "\"ring\"\n\"ring\"\n\"inc\"\n", Check{KeepGoing: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Violations != 2 || rep.FirstViolation != 1 {
		t.Errorf("report = %+v", rep)
	}
	if len(verdicts) != 3 || verdicts[2].Kind != KindAccepted {
		t.Errorf("verdicts = %v", verdicts)
	}
}

func TestMonitorTrailingEventsAfterFinish(t *testing.T) {
	machine := chainMachine(t)
	input := "\"inc\"\n\"inc\"\n\"inc\"\n\"inc\"\n"
	verdicts, rep, err := collect(t, machine, input, Check{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	last := verdicts[len(verdicts)-1]
	if last.Kind != KindViolation || last.Line != 4 {
		t.Fatalf("trailing delivery verdict = %+v, want violation at line 4", last)
	}
	if rep.Conforming() {
		t.Error("trailing events after finish must violate")
	}
}

func TestMonitorObserverStop(t *testing.T) {
	machine := chainMachine(t)
	var seen int
	m, err := NewMonitor(
		WithTarget("", machine),
		WithObserver(ObserverFunc(func(Verdict) bool {
			seen++
			return false
		})))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run(context.Background(), NewJSONLDecoder(strings.NewReader("\"inc\"\n\"inc\"\n")))
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	if seen != 1 || rep.Accepted != 1 {
		t.Errorf("seen=%d report=%+v", seen, rep)
	}
}

func TestMonitorCancellation(t *testing.T) {
	machine := chainMachine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, err := NewMonitor(WithTarget("", machine))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(ctx, NewJSONLDecoder(strings.NewReader("\"inc\"\n"))); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestMonitorMalformedTrace(t *testing.T) {
	machine := chainMachine(t)
	verdicts, rep, err := collect(t, machine, "\"inc\"\n{\"msg\": \n", Check{})
	var de *DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("Run = %v, want DecodeError", err)
	}
	if de.Line != 2 {
		t.Errorf("DecodeError line = %d, want 2", de.Line)
	}
	if len(verdicts) != 1 || rep.Accepted != 1 {
		t.Errorf("pre-failure verdicts = %v, report = %+v", verdicts, rep)
	}
	if rep.Lines != 2 {
		t.Errorf("report lines = %d, want 2", rep.Lines)
	}
}

func TestMonitorReuse(t *testing.T) {
	machine := chainMachine(t)
	m, err := NewMonitor(WithTarget("", machine))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		rep, err := m.Run(context.Background(), NewJSONLDecoder(strings.NewReader("\"inc\"\n\"inc\"\n\"inc\"\n")))
		if err != nil || !rep.Conforming() || !rep.Finished {
			t.Fatalf("run %d: rep=%+v err=%v", i, rep, err)
		}
	}
}

// TestObserverFuncKeepsItsOwnVerdicts: the monitor writes every verdict
// of a run into one Verdict, and an ObserverFunc gets a copy of it, so
// verdicts kept past Observe still read as they did during it. The trace
// makes every kind the monitor emits: accepted, with actions too,
// skipped, ignored, finished and violation.
func TestObserverFuncKeepsItsOwnVerdicts(t *testing.T) {
	machine := chainMachine(t)
	rule, err := ParseRule(`recv (\w+)`)
	if err != nil {
		t.Fatal(err)
	}
	chk := Check{Format: FormatRegex, Rules: []Rule{rule}, Tolerance: 1, KeepGoing: true}
	input := "recv inc\nnoise\nrecv ring\nrecv bogus\nrecv inc\nrecv inc\nrecv inc\nrecv ring\n"
	var kept []Verdict
	var during []string
	_, err = chk.Run(context.Background(), machine, strings.NewReader(input), ObserverFunc(func(v Verdict) bool {
		kept = append(kept, v)
		during = append(during, string(v.AppendJSON(nil)))
		return true
	}))
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[Kind]bool{}
	for i, v := range kept {
		kinds[v.Kind] = true
		if got := string(v.AppendJSON(nil)); got != during[i] {
			t.Errorf("verdict %d reads %s after the run, %s during it", i, got, during[i])
		}
		if i > 0 && during[i] == during[i-1] {
			t.Errorf("verdicts %d and %d are both %s", i-1, i, during[i])
		}
	}
	for _, k := range []Kind{KindAccepted, KindSkipped, KindIgnored, KindFinished, KindViolation} {
		if !kinds[k] {
			t.Errorf("no %s verdict among %q", k, during)
		}
	}
}

// TestFinishedVerdictAllocatesNothing: a finished verdict is written into
// the monitor's own Verdict like every other, so a run that finishes the
// machine allocates what a run over the same messages that does not
// finish it allocates.
func TestFinishedVerdictAllocatesNothing(t *testing.T) {
	var tally Tally
	m, err := NewMonitor(WithTarget("", chainMachine(t)), WithObserver(&tally))
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(msgs ...string) float64 {
		var body strings.Builder
		for _, msg := range msgs {
			body.WriteString(`{"msg":"` + msg + `"}` + "\n")
		}
		const runs = 50
		decs := make([]*JSONLDecoder, runs+1) // made outside the count
		for i := range decs {
			decs[i] = NewJSONLDecoder(strings.NewReader(body.String()))
			defer decs[i].Close()
		}
		n := 0
		return testing.AllocsPerRun(runs, func() {
			if _, err := m.Run(context.Background(), decs[n]); err != nil {
				t.Fatal(err)
			}
			n++
		})
	}
	finishing := allocs("inc", "ring", "inc", "inc")
	if tally.Count(KindFinished) == 0 {
		t.Fatal("the finishing trace did not finish the machine")
	}
	open := allocs("inc", "ring", "ring", "inc")
	if finishing != open {
		t.Errorf("a run that finishes allocates %v times, one that does not %v", finishing, open)
	}
}

func TestNewMonitorValidation(t *testing.T) {
	if _, err := NewMonitor(); err == nil {
		t.Error("NewMonitor with no targets accepted")
	}
	if _, err := NewMonitor(WithTarget("x", nil)); err == nil {
		t.Error("nil machine accepted")
	}
	machine := chainMachine(t)
	if _, err := NewMonitor(WithTarget("a", machine), WithTarget("b", machine)); err == nil {
		t.Error("a second target accepted")
	}
}

func TestJSONLDecoder(t *testing.T) {
	in := `"VOTE"
{"msg":"COMMIT"}
{"msg":"UPDATE","seq":12,"node":"n3"}

{"seq": 1, "msg": "FREE"}
`
	d := NewJSONLDecoder(strings.NewReader(in))
	var msgs []string
	var lines []int
	for {
		ev, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		msgs = append(msgs, ev.Msg)
		lines = append(lines, ev.Line)
	}
	if got, want := strings.Join(msgs, ","), "VOTE,COMMIT,UPDATE,FREE"; got != want {
		t.Errorf("msgs = %s, want %s", got, want)
	}
	if lines[3] != 5 {
		t.Errorf("lines = %v; blank line must advance the count", lines)
	}
}

func TestJSONLDecoderInterning(t *testing.T) {
	d := NewJSONLDecoder(strings.NewReader("{\"msg\":\"VOTE\"}\n{\"msg\":\"VOTE\"}\n"))
	a, err := d.Next()
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Next()
	if err != nil {
		t.Fatal(err)
	}
	// Interning must hand back the identical string, not merely an equal
	// one (zero-allocation steady state).
	if a.Msg != b.Msg {
		t.Fatalf("messages differ: %q vs %q", a.Msg, b.Msg)
	}
}

func TestJSONLDecoderErrors(t *testing.T) {
	cases := []string{
		"{\"msg\": \n",     // truncated JSON
		"{\"seq\":1}\n",    // no msg member
		"VOTE\n",           // bare token is not JSON Lines
		"\"\"\n",           // empty message
		"{\"msg\":\"\"}\n", // empty message via object
	}
	for _, in := range cases {
		d := NewJSONLDecoder(strings.NewReader(in))
		_, err := d.Next()
		var de *DecodeError
		if !errors.As(err, &de) {
			t.Errorf("Next(%q) = %v, want DecodeError", in, err)
		} else if de.Line != 1 || de.Error() == "" {
			t.Errorf("Next(%q) DecodeError = %+v", in, de)
		}
	}
}

// TestDecodersRefuseInvalidUTF8: a message that is not valid UTF-8 is a
// DecodeError on every path, where it used to reach the verdict stream
// as raw bytes (fast path, regex capture) or as U+FFFD (encoding/json's
// reading on the slow paths). The fast path reads nothing after the
// first msg member, so invalid bytes there are still accepted.
func TestDecodersRefuseInvalidUTF8(t *testing.T) {
	refused := []struct {
		name string
		dec  Decoder
	}{
		{"jsonl fast path", NewJSONLDecoder(strings.NewReader("\"UPDATE\"\n{\"msg\":\"\xff\"}\n"))},
		{"jsonl fast path, after an interned message", NewJSONLDecoder(strings.NewReader("{\"msg\":\"VOTE\"}\n{\"msg\":\"VO\xffTE\"}\n"))},
		{"jsonl object slow path", NewJSONLDecoder(strings.NewReader("\"UPDATE\"\n{\"msg\":\"\\\"\xff\"}\n"))},
		{"jsonl object slow path, msg not first", NewJSONLDecoder(strings.NewReader("\"UPDATE\"\n{\"seq\":1,\"msg\":\"\xc3\"}\n"))},
		{"jsonl string slow path", NewJSONLDecoder(strings.NewReader("\"UPDATE\"\n\"\xff\"\n"))},
		{"regex capture", NewRegexDecoder(strings.NewReader("recv UPDATE\nrecv \xffAB\n"), []Rule{mustRule(t, `recv (\S+)`)})},
		{"regex template", NewRegexDecoder(strings.NewReader("recv UPDATE\nrecv VOTE\n"), []Rule{mustRule(t, `recv (VOTE)=>$1`+"\xff")})},
	}
	for _, tc := range refused {
		events, err := drain(t, tc.dec)
		var de *DecodeError
		if !errors.As(err, &de) || de.Line != 2 || !strings.Contains(de.Reason, "not valid UTF-8") {
			t.Errorf("%s: decoded %+v then %v, want a UTF-8 DecodeError at line 2", tc.name, events, err)
		}
	}

	events, err := drain(t, NewJSONLDecoder(strings.NewReader("{\"msg\":\"VOTE\",\"note\":\"\xff\"}\n{\"msg\":\"é\"}\n")))
	if err != io.EOF || len(events) != 2 || events[0].Msg != "VOTE" || events[1].Msg != "é" {
		t.Errorf("decoded %+v then %v, want VOTE and é", events, err)
	}
}

func mustRule(t *testing.T, s string) Rule {
	t.Helper()
	r, err := ParseRule(s)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestFastMsg(t *testing.T) {
	cases := []struct {
		in   string
		msg  string
		fast bool
	}{
		{`{"msg":"VOTE"}`, "VOTE", true},
		{`{"msg":"VOTE","seq":1}`, "VOTE", true},
		{`{"msg":"a\"b"}`, "", false},
		{`{"msg":""}`, "", false},
		{`{"seq":1,"msg":"VOTE"}`, "", false},
		{`{"msg":"VOTE" }`, "", false},
	}
	for _, c := range cases {
		msg, ok := fastMsg([]byte(c.in))
		if ok != c.fast || (ok && string(msg) != c.msg) {
			t.Errorf("fastMsg(%s) = %q, %v; want %q, %v", c.in, msg, ok, c.msg, c.fast)
		}
	}
}

func TestRegexDecoderDefaultRules(t *testing.T) {
	in := `2026-08-07T12:00:01Z node3 recv UPDATE seq=1
# operator note: nothing interesting here
12:00:02 node3 recv STORE_ACK from n1
`
	d := NewRegexDecoder(strings.NewReader(in), nil)
	ev, err := d.Next()
	if err != nil || ev.Msg != "UPDATE" {
		t.Fatalf("Next = %+v, %v; want UPDATE", ev, err)
	}
	ev, err = d.Next()
	if err != nil || !ev.Skip || ev.Line != 2 {
		t.Fatalf("Next = %+v, %v; want skip at line 2", ev, err)
	}
	ev, err = d.Next()
	if err != nil || ev.Msg != "STORE_ACK" {
		t.Fatalf("Next = %+v, %v; want STORE_ACK", ev, err)
	}
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("trailing Next = %v, want EOF", err)
	}
}

func TestRegexDecoderCustomRules(t *testing.T) {
	rule, err := ParseRule(`recv (\w+)=>RECV_$1`)
	if err != nil {
		t.Fatal(err)
	}
	d := NewRegexDecoder(strings.NewReader("node recv vote\nnode sent ack\n"), []Rule{rule})
	ev, err := d.Next()
	if err != nil || ev.Msg != "RECV_vote" {
		t.Fatalf("Next = %+v, %v; want RECV_vote", ev, err)
	}
	ev, err = d.Next()
	if err != nil || !ev.Skip {
		t.Fatalf("Next = %+v, %v; want skip", ev, err)
	}
}

func TestParseRuleErrors(t *testing.T) {
	if _, err := ParseRule("([unclosed"); err == nil {
		t.Error("bad pattern accepted")
	}
	if r, err := ParseRule(`a=>b=>$0`); err != nil || r.Message != "$0" || r.Pattern.String() != "a=>b" {
		t.Errorf("last-separator split = %+v, %v", r, err)
	}
}

func TestVerdictJSONCanonical(t *testing.T) {
	v := Verdict{Line: 3, Event: "VOTE", Kind: KindAccepted, State: "2.1",
		Actions: []string{"->vote", "->commit"}}
	got := string(v.AppendJSON(nil))
	want := `{"line":3,"event":"VOTE","kind":"accepted","state":"2.1","actions":["->vote","->commit"]}`
	if got != want {
		t.Errorf("AppendJSON = %s, want %s", got, want)
	}

	rep := Report{Lines: 5, Events: 4, Accepted: 3, Ignored: 1, Violations: 0, Finished: true, FinalState: "FIN"}
	sum := Terminal(rep, nil)
	got = string(sum.AppendJSON(nil))
	want = `{"kind":"summary","stats":{"lines":5,"events":4,"accepted":3,"ignored":1,"skipped":0,"violations":0,"finished":true,"final_state":"FIN"}}`
	if got != want {
		t.Errorf("summary JSON = %s, want %s", got, want)
	}
}

func TestVerdictJSONEscaping(t *testing.T) {
	v := Verdict{Kind: KindMalformed, Detail: "quote \" slash \\ newline \n bell \x07"}
	got := string(v.AppendJSON(nil))
	want := `{"kind":"malformed","detail":"quote \" slash \\ newline \n bell \u0007"}`
	if got != want {
		t.Errorf("escaped JSON = %s, want %s", got, want)
	}
}

func TestTerminal(t *testing.T) {
	if v := Terminal(Report{}, &DecodeError{Line: 7, Reason: "bad"}); v.Kind != KindMalformed || v.Line != 7 {
		t.Errorf("Terminal(decode) = %+v", v)
	}
	if v := Terminal(Report{}, context.Canceled); v.Kind != KindAborted {
		t.Errorf("Terminal(cancel) = %+v", v)
	}
	if v := Terminal(Report{Violations: 1}, nil); v.Kind != KindSummary || v.Stats == nil || v.Stats.Violations != 1 {
		t.Errorf("Terminal(nil) = %+v", v)
	}
}
