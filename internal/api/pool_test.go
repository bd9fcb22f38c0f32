package api

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"asagen/internal/artifact"
	"asagen/internal/trace"
)

// referenceStream is the event stream the route must answer body with,
// built serially from the monitor's verdicts through Verdict.AppendJSON
// and a fresh decoder, one framed event per verdict, ending as the route
// ends it.
func referenceStream(t *testing.T, p *artifact.Pipeline, format, body string) string {
	t.Helper()
	machine, _, _, err := p.Machine(context.Background(), "commit", 4)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	frame := func(name string, data []byte) {
		want.WriteString("event: " + name + "\ndata: " + string(data) + "\n\n")
	}
	mon, err := trace.NewMonitor(trace.WithTarget("", machine),
		trace.WithObserver(trace.ObserverFunc(func(v trace.Verdict) bool {
			frame(v.Kind.String(), v.AppendJSON(nil))
			return true
		})))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mon.Run(context.Background(), trace.Check{Format: format}.Decoder(strings.NewReader(body)))
	var de *trace.DecodeError
	switch {
	case err == nil:
		v := trace.Terminal(rep, nil)
		frame(v.Kind.String(), v.AppendJSON(nil))
	case errors.As(err, &de):
		frame("error", envelopeJSON(CodeBadTrace, de.Error()))
	default:
		t.Fatal(err)
	}
	return want.String()
}

// poolCase is one check stream of TestCheckStreamsSharePools.
type poolCase struct {
	name, format, body string
	cancel             bool // the client goes away mid-stream
}

func poolCases() []poolCase {
	var conforming, text, violating, malformed strings.Builder
	for n := 1; n <= 3000; n++ {
		conforming.WriteString(alternatingLine(n, trace.FormatJSONL))
		text.WriteString(alternatingLine(n, trace.FormatRegex))
		switch {
		case n == 1700:
			violating.WriteString("\"NOPE\"\n")
			malformed.WriteString("{broken\n")
		default:
			violating.WriteString(alternatingLine(n, trace.FormatJSONL))
			malformed.WriteString(alternatingLine(n, trace.FormatJSONL))
		}
	}
	return []poolCase{
		{name: "conforming", format: trace.FormatJSONL, body: conforming.String()},
		{name: "regex", format: trace.FormatRegex, body: text.String()},
		{name: "violating", format: trace.FormatJSONL, body: violating.String()},
		{name: "malformed", format: trace.FormatJSONL, body: malformed.String()},
		{name: "cancelled", format: trace.FormatJSONL, body: conforming.String(), cancel: true},
		{name: "conforming-2", format: trace.FormatJSONL, body: conforming.String()},
		{name: "violating-2", format: trace.FormatJSONL, body: violating.String()},
		{name: "cancelled-regex", format: trace.FormatRegex, body: text.String(), cancel: true},
	}
}

// TestCheckStreamsSharePools runs eight concurrent check streams on one
// handler, round after round, so every stream works in scanner and event
// buffers other streams have returned: conforming and regex streams,
// one stopped by a violation, one ended by a decode error, and two the
// client abandons half-way. Each complete stream is byte-identical to
// its serial reference, each abandoned one a prefix of it, and every
// handler returns.
func TestCheckStreamsSharePools(t *testing.T) {
	p := artifact.New()
	inner := NewHandler(p)
	var handlers sync.WaitGroup
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer handlers.Done()
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	cases := poolCases()
	want := make([]string, len(cases))
	for i, c := range cases {
		want[i] = referenceStream(t, p, c.format, c.body)
	}
	for round := 0; round < 3; round++ {
		var streams sync.WaitGroup
		for i, c := range cases {
			handlers.Add(1)
			streams.Add(1)
			go func() {
				defer streams.Done()
				if err := checkStream(ts.URL, c, want[i]); err != nil {
					t.Errorf("round %d, %s: %v", round, c.name, err)
				}
			}()
		}
		streams.Wait()
		handlers.Wait()
	}
}

// checkStream posts one case and compares what comes back with want.
func checkStream(url string, c poolCase, want string) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	go func() {
		body := c.body
		if c.cancel {
			body = body[:len(body)/2] // and then nothing, until the cancel
		}
		io.WriteString(pw, body)
		if !c.cancel {
			pw.Close()
		}
	}()
	defer pw.Close()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		url+"/v1/models/commit/check?r=4&format="+c.format, pr)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if !c.cancel {
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if string(got) != want {
			return errors.New("stream differs from its serial reference")
		}
		return nil
	}
	// Read a few verdicts' worth, then go away.
	got := make([]byte, 4096)
	if _, err := io.ReadFull(resp.Body, got); err != nil {
		return err
	}
	if !strings.HasPrefix(want, string(got)) {
		return errors.New("abandoned stream is not a prefix of its serial reference")
	}
	cancel()
	return nil
}

// TestCheckStreamLongLines: a trace line longer than the pooled scanner
// buffer is judged like any other, and a verdict longer than the pooled
// event buffer reaches the client whole; the grown event buffer is not
// pooled, so the next stream starts from a checkBufSize one again.
func TestCheckStreamLongLines(t *testing.T) {
	p := artifact.New()
	h := NewHandler(p)
	pad := strings.Repeat("x", 100<<10)
	body := alternatingLine(1, "") + `{"msg":"NOT_FREE","pad":"` + pad + `"}` + "\n" +
		alternatingLine(3, "") + `"NOPE_` + strings.ToUpper(pad) + `"` + "\n"
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/models/commit/check?r=4", strings.NewReader(body)))
	if got, want := rec.Body.String(), referenceStream(t, p, trace.FormatJSONL, body); got != want {
		t.Fatalf("stream of %d bytes differs from its %d-byte reference", len(got), len(want))
	}
	events := parseSSE(t, rec.Body.String())
	if len(events) != 5 || events[1].name != "accepted" || events[3].name != "violation" || len(events[3].data) < 100<<10 {
		t.Fatalf("events = %d, want three accepted lines, the 100 KiB violation and the summary", len(events))
	}
	buf := eventBufs.Get().(*[]byte)
	if len(*buf) != 0 || cap(*buf) != checkBufSize {
		t.Errorf("the next stream starts from a %d/%d-byte event buffer, want 0/%d", len(*buf), cap(*buf), checkBufSize)
	}
	eventBufs.Put(buf)
}

// discardWriter is a flushable ResponseWriter that keeps nothing.
type discardWriter struct{ header http.Header }

func (w discardWriter) Header() http.Header         { return w.header }
func (w discardWriter) WriteHeader(int)             {}
func (w discardWriter) Flush()                      {}
func (w discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// TestCheckStreamSteadyStateAllocation bounds what one 5 000-line stream
// allocates once the pools are warm: the per-stream state (decoder,
// monitor, the encoder's memo) and nothing per line or per buffer.
// Before the buffers were pooled a stream allocated about 100 KiB.
func TestCheckStreamSteadyStateAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	h := NewHandler(artifact.New())
	var body strings.Builder
	for n := 1; n <= 5000; n++ {
		body.WriteString(alternatingLine(n, trace.FormatJSONL))
	}
	w := discardWriter{header: http.Header{}}
	reader := strings.NewReader(body.String())
	req := httptest.NewRequest(http.MethodPost, "/v1/models/commit/check?r=4", reader)
	serve := func() {
		reader.Reset(body.String())
		h.ServeHTTP(w, req)
	}
	serve() // generate the machine, fill the pools
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		serve()
	}
	runtime.ReadMemStats(&after)
	perStream := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes allocated per 5 000-line stream", perStream)
	if perStream > 16<<10 {
		t.Errorf("a 5 000-line stream allocates %d bytes, want at most 16 KiB", perStream)
	}
}
