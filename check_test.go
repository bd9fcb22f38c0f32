package asagen_test

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"asagen"
)

// collectVerdicts drains a verdict stream into a slice.
func collectVerdicts(t *testing.T, seq func(func(asagen.Verdict) bool)) []asagen.Verdict {
	t.Helper()
	var out []asagen.Verdict
	for v := range seq {
		out = append(out, v)
	}
	return out
}

// conformingCommitTrace drives one commit member (r=4) to its finish
// state, matching TestInstanceExecution's delivery sequence.
const conformingCommitTrace = `{"msg":"FREE"}
"UPDATE"
{"msg":"VOTE","from":"m1"}
{"msg":"VOTE","from":"m2"}
"COMMIT"
"COMMIT"
`

func TestCheckConforming(t *testing.T) {
	client := asagen.NewClient()
	seq, err := client.Check(context.Background(), "commit",
		strings.NewReader(conformingCommitTrace), asagen.WithTraceParam(4))
	if err != nil {
		t.Fatal(err)
	}
	verdicts := collectVerdicts(t, seq)
	var kinds []asagen.VerdictKind
	for _, v := range verdicts {
		kinds = append(kinds, v.Kind)
	}
	want := []asagen.VerdictKind{
		asagen.VerdictAccepted, asagen.VerdictAccepted, asagen.VerdictAccepted,
		asagen.VerdictAccepted, asagen.VerdictAccepted, asagen.VerdictAccepted,
		asagen.VerdictFinished, asagen.VerdictSummary,
	}
	if len(kinds) != len(want) {
		t.Fatalf("verdict kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("verdict kinds = %v, want %v", kinds, want)
		}
	}
	summary := verdicts[len(verdicts)-1]
	if summary.Stats == nil {
		t.Fatal("summary verdict has no stats")
	}
	st := summary.Stats
	if !st.Conforming() || !st.Finished || st.Accepted != 6 || st.Events != 6 || st.Lines != 6 {
		t.Errorf("summary stats = %+v", st)
	}
	if st.FinalState == "" {
		t.Error("summary final state empty")
	}
	// Accepted verdicts carry the post-delivery state and the line.
	if verdicts[1].Line != 2 || verdicts[1].Event != "UPDATE" || verdicts[1].State == "" {
		t.Errorf("second verdict = %+v", verdicts[1])
	}
}

func TestCheckViolation(t *testing.T) {
	client := asagen.NewClient()
	// An out-of-vocabulary message is never applicable.
	seq, err := client.Check(context.Background(), "commit",
		strings.NewReader("\"UPDATE\"\n\"NOPE\"\n\"VOTE\"\n"), asagen.WithTraceParam(4))
	if err != nil {
		t.Fatal(err)
	}
	verdicts := collectVerdicts(t, seq)
	if len(verdicts) != 3 {
		t.Fatalf("got %d verdicts %+v, want accepted+violation+summary", len(verdicts), verdicts)
	}
	if verdicts[1].Kind != asagen.VerdictViolation || verdicts[1].Line != 2 {
		t.Errorf("violation verdict = %+v", verdicts[1])
	}
	if verdicts[1].Detail == "" {
		t.Error("violation verdict has no detail")
	}
	summary := verdicts[2]
	if summary.Kind != asagen.VerdictSummary || summary.Stats == nil {
		t.Fatalf("terminal verdict = %+v", summary)
	}
	if summary.Stats.Conforming() || summary.Stats.FirstViolation != 2 || summary.Stats.Violations != 1 {
		t.Errorf("summary stats = %+v", summary.Stats)
	}
}

func TestCheckToleranceAndKeepGoing(t *testing.T) {
	client := asagen.NewClient()
	trace := "\"NOPE\"\n\"NOPE\"\n\"NOPE\"\n"
	seq, err := client.Check(context.Background(), "commit", strings.NewReader(trace),
		asagen.WithTraceParam(4), asagen.WithTolerance(1), asagen.WithKeepGoing())
	if err != nil {
		t.Fatal(err)
	}
	verdicts := collectVerdicts(t, seq)
	var ignored, violations int
	for _, v := range verdicts {
		switch v.Kind {
		case asagen.VerdictIgnored:
			ignored++
		case asagen.VerdictViolation:
			violations++
		}
	}
	if ignored != 1 || violations != 2 {
		t.Errorf("ignored=%d violations=%d, want 1 and 2 (keep-going)", ignored, violations)
	}
	st := verdicts[len(verdicts)-1].Stats
	if st == nil || st.Violations != 2 || st.Ignored != 1 {
		t.Errorf("summary stats = %+v", st)
	}
}

func TestCheckRegexFormat(t *testing.T) {
	client := asagen.NewClient()
	trace := "12:00:01 member recv FREE from peer\n# log noise without any event\n12:00:02 member recv UPDATE\n"
	seq, err := client.Check(context.Background(), "commit", strings.NewReader(trace),
		asagen.WithTraceParam(4), asagen.WithTraceFormat(asagen.TraceFormatRegex))
	if err != nil {
		t.Fatal(err)
	}
	verdicts := collectVerdicts(t, seq)
	var kinds []asagen.VerdictKind
	for _, v := range verdicts {
		kinds = append(kinds, v.Kind)
	}
	want := []asagen.VerdictKind{asagen.VerdictAccepted, asagen.VerdictSkipped,
		asagen.VerdictAccepted, asagen.VerdictSummary}
	if len(kinds) != len(want) {
		t.Fatalf("verdict kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("verdict kinds = %v, want %v", kinds, want)
		}
	}
	if verdicts[0].Event != "FREE" || verdicts[2].Event != "UPDATE" {
		t.Errorf("decoded events = %q, %q", verdicts[0].Event, verdicts[2].Event)
	}
}

func TestCheckCustomPattern(t *testing.T) {
	client := asagen.NewClient()
	trace := "deliver msg=vote\ndeliver msg=update\n"
	seq, err := client.Check(context.Background(), "commit", strings.NewReader(trace),
		asagen.WithTraceParam(4), asagen.WithTolerance(1),
		asagen.WithTracePattern(`msg=(\w+)=>{$1}`), asagen.WithTracePattern(`msg=(\w+)`))
	if err != nil {
		t.Fatal(err)
	}
	_ = seq
	// The first pattern wins and uppercasing is the caller's problem; use
	// a template mapping lowercase to the machine vocabulary instead.
	seq, err = client.Check(context.Background(), "commit", strings.NewReader("deliver msg=update\n"),
		asagen.WithTraceParam(4), asagen.WithTracePattern(`msg=update=>UPDATE`))
	if err != nil {
		t.Fatal(err)
	}
	verdicts := collectVerdicts(t, seq)
	if len(verdicts) != 2 || verdicts[0].Kind != asagen.VerdictAccepted || verdicts[0].Event != "UPDATE" {
		t.Fatalf("verdicts = %+v", verdicts)
	}
}

func TestCheckMalformedTrace(t *testing.T) {
	client := asagen.NewClient()
	seq, err := client.Check(context.Background(), "commit",
		strings.NewReader("\"UPDATE\"\n{broken\n"), asagen.WithTraceParam(4))
	if err != nil {
		t.Fatal(err)
	}
	verdicts := collectVerdicts(t, seq)
	last := verdicts[len(verdicts)-1]
	if last.Kind != asagen.VerdictMalformed || last.Line != 2 || last.Detail == "" {
		t.Errorf("terminal verdict = %+v, want malformed at line 2", last)
	}
	if last.Stats != nil {
		t.Error("malformed verdict carries stats")
	}
}

func TestCheckPreflightErrors(t *testing.T) {
	client := asagen.NewClient()
	ctx := context.Background()
	if _, err := client.Check(ctx, "nonsense", strings.NewReader("")); !errors.Is(err, asagen.ErrUnknownModel) {
		t.Errorf("unknown model error = %v, want ErrUnknownModel", err)
	}
	if _, err := client.Check(ctx, "commit", strings.NewReader(""),
		asagen.WithTraceFormat("xml")); !errors.Is(err, asagen.ErrBadTrace) {
		t.Errorf("bad format error = %v, want ErrBadTrace", err)
	}
	if _, err := client.Check(ctx, "commit", strings.NewReader(""),
		asagen.WithTracePattern("([broken")); !errors.Is(err, asagen.ErrBadTrace) {
		t.Errorf("bad pattern error = %v, want ErrBadTrace", err)
	}
	// A negative tolerance is refused up front, as the wire route's
	// preflight 400 does, and before the machine is generated.
	if _, err := client.Check(ctx, "commit", strings.NewReader(""),
		asagen.WithTolerance(-1)); !errors.Is(err, asagen.ErrBadTrace) || !strings.Contains(err.Error(), "tolerance") {
		t.Errorf("negative tolerance error = %v, want ErrBadTrace naming the tolerance", err)
	}
	if n := client.Stats().Generations; n != 0 {
		t.Errorf("preflight failures generated %d machines, want 0", n)
	}
}

// TestCheckEmptyFormatIsTheDefault: WithTraceFormat("") selects JSON
// Lines, as an empty format= does on the wire.
func TestCheckEmptyFormatIsTheDefault(t *testing.T) {
	seq, err := asagen.NewClient().Check(context.Background(), "commit",
		strings.NewReader(conformingCommitTrace), asagen.WithTraceParam(4), asagen.WithTraceFormat(""))
	if err != nil {
		t.Fatal(err)
	}
	verdicts := collectVerdicts(t, seq)
	if last := verdicts[len(verdicts)-1]; last.Kind != asagen.VerdictSummary || !last.Stats.Conforming() {
		t.Fatalf("terminal verdict = %+v, want a conforming summary", last)
	}
}

func TestCheckEarlyBreak(t *testing.T) {
	client := asagen.NewClient()
	seq, err := client.Check(context.Background(), "commit",
		strings.NewReader(conformingCommitTrace), asagen.WithTraceParam(4))
	if err != nil {
		t.Fatal(err)
	}
	var got int
	for range seq {
		got++
		break
	}
	if got != 1 {
		t.Fatalf("consumed %d verdicts after break", got)
	}
}

func TestCheckCancellation(t *testing.T) {
	client := asagen.NewClient()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seq, err := client.Check(ctx, "commit",
		strings.NewReader(conformingCommitTrace), asagen.WithTraceParam(4))
	if err != nil {
		t.Fatal(err)
	}
	var verdicts []asagen.Verdict
	for v := range seq {
		verdicts = append(verdicts, v)
		cancel()
	}
	last := verdicts[len(verdicts)-1]
	if last.Kind != asagen.VerdictAborted {
		t.Errorf("terminal verdict after cancel = %+v, want aborted", last)
	}
	if !strings.Contains(last.Detail, "context canceled") {
		t.Errorf("aborted detail = %q", last.Detail)
	}
}

// TestCheckVerdictJSON pins the canonical verdict encoding the SDK, CLI
// and API all emit.
func TestCheckVerdictJSON(t *testing.T) {
	client := asagen.NewClient()
	seq, err := client.Check(context.Background(), "commit",
		strings.NewReader("\"UPDATE\"\n\"NOPE\"\n"), asagen.WithTraceParam(4))
	if err != nil {
		t.Fatal(err)
	}
	verdicts := collectVerdicts(t, seq)
	if len(verdicts) != 3 {
		t.Fatalf("got %d verdicts", len(verdicts))
	}
	got, err := json.Marshal(verdicts[2])
	if err != nil {
		t.Fatal(err)
	}
	want := `{"kind":"summary","stats":{"lines":2,"events":2,"accepted":1,"ignored":0,"skipped":0,"violations":1,"first_violation":2,"finished":false,"final_state":` +
		string(mustJSON(t, verdicts[2].Stats.FinalState)) + `}}`
	if string(got) != want {
		t.Errorf("summary JSON = %s\nwant %s", got, want)
	}
	got, err = json.Marshal(verdicts[0])
	if err != nil {
		t.Fatal(err)
	}
	wantPrefix := `{"line":1,"event":"UPDATE","kind":"accepted","state":`
	if !strings.HasPrefix(string(got), wantPrefix) {
		t.Errorf("accepted JSON = %s\nwant prefix %s", got, wantPrefix)
	}
}

// TestVerdictKindsRoundTrip: every kind encodes as its own wire name and
// reads back as itself; a kind that is none of them is an encoding error,
// where it used to be reported as "skipped".
func TestVerdictKindsRoundTrip(t *testing.T) {
	for _, kind := range []asagen.VerdictKind{
		asagen.VerdictAccepted, asagen.VerdictIgnored, asagen.VerdictSkipped, asagen.VerdictFinished,
		asagen.VerdictViolation, asagen.VerdictMalformed, asagen.VerdictAborted, asagen.VerdictSummary,
	} {
		var back struct{ Kind asagen.VerdictKind }
		if err := json.Unmarshal(mustJSON(t, asagen.Verdict{Line: 1, Kind: kind}), &back); err != nil || back.Kind != kind {
			t.Errorf("%s: read back as %q (%v)", kind, back.Kind, err)
		}
	}
	for _, kind := range []asagen.VerdictKind{"bogus", "", "Skipped", "unknown"} {
		if b, err := json.Marshal(asagen.Verdict{Kind: kind}); err == nil {
			t.Errorf("kind %q encoded as %s, want an error", kind, b)
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDeliverTypedErrors pins the satellite contract: runtime delivery
// failure classes surface as matchable typed errors on the SDK Instance.
func TestDeliverTypedErrors(t *testing.T) {
	client := asagen.NewClient()
	machine, err := client.Generate(context.Background(), "commit", asagen.WithParam(4))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := machine.NewInstance(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Out of vocabulary, so never applicable: *IgnoredError via errors.As.
	_, err = inst.Deliver("NOPE")
	var ignored *asagen.IgnoredError
	if !errors.As(err, &ignored) {
		t.Fatalf("Deliver(NOPE) at start = %v, want *IgnoredError", err)
	}
	if ignored.Message != "NOPE" || ignored.State == "" {
		t.Errorf("IgnoredError = %+v", ignored)
	}
	if !strings.Contains(ignored.Error(), "NOPE") {
		t.Errorf("IgnoredError message = %q", ignored.Error())
	}
	// ErrFinished is not an IgnoredError and vice versa.
	if errors.Is(err, asagen.ErrFinished) {
		t.Error("IgnoredError matches ErrFinished")
	}
	for _, msg := range []string{"FREE", "UPDATE", "VOTE", "VOTE", "COMMIT", "COMMIT"} {
		if _, err := inst.Deliver(msg); err != nil {
			t.Fatalf("deliver %s: %v", msg, err)
		}
	}
	if !inst.Finished() {
		t.Fatal("round did not finish")
	}
	_, err = inst.Deliver("UPDATE")
	if !errors.Is(err, asagen.ErrFinished) {
		t.Fatalf("Deliver after finish = %v, want ErrFinished", err)
	}
	if errors.As(err, &ignored) {
		t.Error("ErrFinished matches *IgnoredError")
	}
}
