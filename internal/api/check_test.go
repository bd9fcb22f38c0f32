package api

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/textproto"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"
	"unicode/utf8"

	"asagen/internal/artifact"
	"asagen/internal/trace"
)

// conformingTrace finishes one commit member at r=4 (vote threshold 3 is
// met by two received votes plus the member's own, commit threshold 2).
const conformingTrace = `{"msg":"FREE"}
"UPDATE"
"VOTE"
"VOTE"
"COMMIT"
"COMMIT"
`

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data string
}

// parseSSE splits a complete event-stream body into events.
func parseSSE(t *testing.T, body string) []sseEvent {
	t.Helper()
	var events []sseEvent
	for _, block := range strings.Split(strings.TrimSuffix(body, "\n\n"), "\n\n") {
		lines := strings.Split(block, "\n")
		if len(lines) != 2 || !strings.HasPrefix(lines[0], "event: ") || !strings.HasPrefix(lines[1], "data: ") {
			t.Fatalf("malformed SSE block %q", block)
		}
		events = append(events, sseEvent{
			name: strings.TrimPrefix(lines[0], "event: "),
			data: strings.TrimPrefix(lines[1], "data: "),
		})
	}
	return events
}

func postCheck(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/jsonl", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(raw)
}

func TestCheckRouteConformingStream(t *testing.T) {
	ts := httptest.NewServer(NewHandler(artifact.New()))
	defer ts.Close()

	resp, body := postCheck(t, ts, "/v1/models/commit/check?r=4", conformingTrace)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Errorf("Cache-Control = %q", cc)
	}
	events := parseSSE(t, body)
	var names []string
	for _, ev := range events {
		names = append(names, ev.name)
	}
	want := []string{"accepted", "accepted", "accepted", "accepted", "accepted",
		"accepted", "finished", "summary"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("event names = %v, want %v", names, want)
	}
	last := events[len(events)-1]
	var summary struct {
		Kind  string `json:"kind"`
		Stats struct {
			Lines      int    `json:"lines"`
			Accepted   int    `json:"accepted"`
			Violations int    `json:"violations"`
			Finished   bool   `json:"finished"`
			FinalState string `json:"final_state"`
		} `json:"stats"`
	}
	if err := json.Unmarshal([]byte(last.data), &summary); err != nil {
		t.Fatalf("summary data %q: %v", last.data, err)
	}
	st := summary.Stats
	if st.Lines != 6 || st.Accepted != 6 || st.Violations != 0 || !st.Finished || st.FinalState == "" {
		t.Errorf("summary stats = %+v", st)
	}
}

// TestCheckRouteVerdictBytesMatchMonitor pins the cross-surface contract:
// the SSE data payloads are byte-identical to the canonical verdict JSON
// the trace layer produces directly (and hence to `fsmgen check -json`
// and the SDK iterator, which share the same encoder).
func TestCheckRouteVerdictBytesMatchMonitor(t *testing.T) {
	p := artifact.New()
	ts := httptest.NewServer(NewHandler(p))
	defer ts.Close()

	traceBody := "\"FREE\"\n\"UPDATE\"\n\"NOPE\"\n\"NOPE\"\n" // one tolerated rejection, then a violation
	_, body := postCheck(t, ts, "/v1/models/commit/check?r=4&tolerance=1", traceBody)
	events := parseSSE(t, body)

	machine, _, _, err := p.Machine(context.Background(), "commit", 4)
	if err != nil {
		t.Fatal(err)
	}
	var wantData []string
	rep, err := trace.Check{Tolerance: 1}.Run(context.Background(), machine, strings.NewReader(traceBody),
		trace.ObserverFunc(func(v trace.Verdict) bool {
			wantData = append(wantData, string(v.AppendJSON(nil)))
			return true
		}))
	if err != nil {
		t.Fatal(err)
	}
	last := trace.Terminal(rep, nil)
	wantData = append(wantData, string(last.AppendJSON(nil)))

	if len(events) != len(wantData) {
		t.Fatalf("got %d events, want %d", len(events), len(wantData))
	}
	for i, ev := range events {
		if ev.data != wantData[i] {
			t.Errorf("event %d data = %s\nwant       %s", i, ev.data, wantData[i])
		}
	}
}

func TestCheckRouteMalformedTrace(t *testing.T) {
	ts := httptest.NewServer(NewHandler(artifact.New()))
	defer ts.Close()

	resp, body := postCheck(t, ts, "/v1/models/commit/check?r=4", "\"UPDATE\"\n{broken\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (the stream had already started)", resp.StatusCode)
	}
	events := parseSSE(t, body)
	last := events[len(events)-1]
	if last.name != "error" {
		t.Fatalf("terminal event = %q, want error; body %q", last.name, body)
	}
	var envelope struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal([]byte(last.data), &envelope); err != nil {
		t.Fatalf("error data %q: %v", last.data, err)
	}
	if envelope.Error.Code != CodeBadTrace || !strings.Contains(envelope.Error.Message, "line 2") {
		t.Errorf("error envelope = %+v", envelope.Error)
	}
	// The conforming prefix was still judged before the failure.
	if events[0].name != "accepted" {
		t.Errorf("first event = %q, want accepted", events[0].name)
	}
}

// TestCheckRouteLineLimit: a trace line may be 1 MiB long, not counting
// its terminator; one byte more ends the stream with an in-band bad_trace
// error naming the line, after the verdicts of the lines before it.
func TestCheckRouteLineLimit(t *testing.T) {
	ts := httptest.NewServer(NewHandler(artifact.New()))
	defer ts.Close()

	const limit = 1 << 20
	line := func(n int) string {
		const head, tail = `{"msg":"VOTE","pad":"`, `"}`
		return head + strings.Repeat("x", n-len(head)-len(tail)) + tail
	}
	_, body := postCheck(t, ts, "/v1/models/commit/check?r=4", "{\"msg\":\"FREE\"}\r\n\"UPDATE\"\r\n"+line(limit)+"\r\n\"VOTE\"\r\n")
	events := parseSSE(t, body)
	if len(events) != 5 || events[2].name != "accepted" || events[4].name != "summary" {
		t.Fatalf("a %d-byte line: events = %+v, want four accepted lines and the summary", limit, events)
	}

	_, body = postCheck(t, ts, "/v1/models/commit/check?r=4", "{\"msg\":\"FREE\"}\n\"UPDATE\"\n"+line(limit+1)+"\n\"VOTE\"\n")
	events = parseSSE(t, body)
	if len(events) != 3 || events[0].name != "accepted" || events[1].name != "accepted" || events[2].name != "error" {
		t.Fatalf("a %d-byte line: events = %+v, want two accepted lines and an error", limit+1, events)
	}
	var envelope struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal([]byte(events[2].data), &envelope); err != nil {
		t.Fatalf("error data %q: %v", events[2].data, err)
	}
	if envelope.Error.Code != CodeBadTrace || envelope.Error.Message != "trace: line 3: line exceeds 1048576 bytes" {
		t.Errorf("error envelope = %+v, want bad_trace at line 3", envelope.Error)
	}
}

// TestCheckRouteInvalidUTF8: text/event-stream is UTF-8, so a message
// that is not ends the stream with a bad_trace error event instead of
// reaching the verdicts' event and detail as a raw byte.
func TestCheckRouteInvalidUTF8(t *testing.T) {
	ts := httptest.NewServer(NewHandler(artifact.New()))
	defer ts.Close()

	for _, tc := range []struct{ query, body string }{
		{"", "\"UPDATE\"\n{\"msg\":\"\xff\"}\n"},
		{"", "\"UPDATE\"\n\"\xff\"\n"},
		{"&match=" + url.QueryEscape(`recv (\S+)`), "recv UPDATE\nrecv \xff\n"},
	} {
		_, body := postCheck(t, ts, "/v1/models/commit/check?r=4"+tc.query, tc.body)
		if !utf8.ValidString(body) {
			t.Errorf("%q: stream is not valid UTF-8: %q", tc.body, body)
		}
		events := parseSSE(t, body)
		if len(events) != 2 || events[0].name != "accepted" || events[1].name != "error" ||
			!strings.Contains(events[1].data, `"code":"bad_trace"`) || !strings.Contains(events[1].data, "line 2: message is not valid UTF-8") {
			t.Errorf("%q: events = %+v, want the accepted line 1 and a bad_trace error at line 2", tc.body, events)
		}
	}
}

func TestCheckRouteRegexFormat(t *testing.T) {
	ts := httptest.NewServer(NewHandler(artifact.New()))
	defer ts.Close()

	trace := "12:01 recv FREE\nplain noise line\n12:02 recv UPDATE\n"
	resp, body := postCheck(t, ts, "/v1/models/commit/check?r=4&format=regex", trace)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	events := parseSSE(t, body)
	var names []string
	for _, ev := range events {
		names = append(names, ev.name)
	}
	if strings.Join(names, ",") != "accepted,skipped,accepted,summary" {
		t.Fatalf("event names = %v", names)
	}

	// A custom match pattern implies the regex format.
	q := url.Values{"r": {"4"}, "match": {`recv ([A-Z_]+)`}}
	resp, body = postCheck(t, ts, "/v1/models/commit/check?"+q.Encode(), "ignored recv FREE\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if events := parseSSE(t, body); events[0].name != "accepted" {
		t.Errorf("events = %+v", events)
	}
}

func TestCheckRoutePreflightErrors(t *testing.T) {
	ts := httptest.NewServer(NewHandler(artifact.New()))
	defer ts.Close()

	for _, tc := range []struct {
		path   string
		status int
		code   string
	}{
		{"/v1/models/nonsense/check", http.StatusNotFound, CodeUnknownModel},
		{"/v1/models/commit/check?r=banana", http.StatusBadRequest, CodeBadParameter},
		{"/v1/models/commit/check?r=0", http.StatusBadRequest, CodeBadParameter},
		{"/v1/models/commit/check?r=-7", http.StatusBadRequest, CodeBadParameter},
		{"/v1/models/commit/check?tolerance=-1", http.StatusBadRequest, CodeBadParameter},
		{"/v1/models/commit/check?keep_going=maybe", http.StatusBadRequest, CodeBadParameter},
		{"/v1/models/commit/check?format=xml", http.StatusBadRequest, CodeBadTrace},
		{"/v1/models/commit/check?match=%28broken", http.StatusBadRequest, CodeBadTrace},
		// match patterns decode regex traces; with format=jsonl they
		// would be dropped.
		{"/v1/models/commit/check?format=jsonl&match=UPDATE", http.StatusBadRequest, CodeBadTrace},
	} {
		resp, body := postCheck(t, ts, tc.path, "\"UPDATE\"\n")
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d (body %s)", tc.path, resp.StatusCode, tc.status, body)
			continue
		}
		var envelope struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		if err := json.Unmarshal([]byte(body), &envelope); err != nil {
			t.Errorf("%s: body %q not an error envelope: %v", tc.path, body, err)
			continue
		}
		if envelope.Error.Code != tc.code {
			t.Errorf("%s: code = %q, want %q", tc.path, envelope.Error.Code, tc.code)
		}
	}

	// GET is not served on the check route.
	resp, err := http.Get(ts.URL + "/v1/models/commit/check")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d, want 405", resp.StatusCode)
	}
}

// TestCheckRouteClientDisconnect pins request-scoped cancellation: when
// the client goes away mid-stream, the handler notices and returns
// instead of blocking on the half-open trace body.
func TestCheckRouteClientDisconnect(t *testing.T) {
	handlerDone := make(chan struct{})
	inner := NewHandler(artifact.New())
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer close(handlerDone)
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	pr, pw := io.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/models/commit/check?r=4", pr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Feed one event, read its verdict back, then vanish mid-stream.
	if _, err := io.WriteString(pw, "\"UPDATE\"\n"); err != nil {
		t.Fatal(err)
	}
	firstEvent := make([]byte, 1)
	if _, err := io.ReadFull(resp.Body, firstEvent); err != nil {
		t.Fatal(err)
	}
	cancel()

	select {
	case <-handlerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("handler still running 5s after client disconnect")
	}
	pw.Close()
}

// alternatingLine is line i of a trace that never finishes the commit
// machine (FREE/NOT_FREE alternation crosses no quorum threshold), so
// every line draws exactly one accepted verdict; as JSON Lines, or as
// the text log the default regex rule reads.
func alternatingLine(i int, format string) string {
	msg := "FREE"
	if i%2 == 0 {
		msg = "NOT_FREE"
	}
	if format == trace.FormatRegex {
		return "12:00:00.001 member-0 recv " + msg + " from member-1\n"
	}
	return `{"msg":"` + msg + `"}` + "\n"
}

// monitorStream is the event stream the route must answer a JSON Lines
// trace with, built from the monitor's verdicts alone, one framed event
// per verdict.
func monitorStream(t *testing.T, p *artifact.Pipeline, body string) string {
	t.Helper()
	machine, _, _, err := p.Machine(context.Background(), "commit", 4)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	frame := func(v trace.Verdict) bool {
		want.WriteString("event: " + v.Kind.String() + "\ndata: " + string(v.AppendJSON(nil)) + "\n\n")
		return true
	}
	rep, err := trace.Check{}.Run(context.Background(), machine, strings.NewReader(body), trace.ObserverFunc(frame))
	if err != nil {
		t.Fatal(err)
	}
	frame(trace.Terminal(rep, nil))
	return want.String()
}

// TestCheckRouteSlowProducerSeesEachVerdict pins the delivery guarantee:
// every verdict for the input received so far is on the wire before the
// server waits for more input. A producer of one line at a time reads
// the complete verdict of line n before it writes line n+1.
func TestCheckRouteSlowProducerSeesEachVerdict(t *testing.T) {
	ts := httptest.NewServer(NewHandler(artifact.New()))
	defer ts.Close()

	const lines, violationAt = 50, 25
	for _, tc := range []struct {
		name, query, format string
		violate             bool
	}{
		{name: "jsonl", query: ""},
		{name: "regex", query: "&format=regex", format: trace.FormatRegex},
		{name: "keep_going", query: "&keep_going=1", violate: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pr, pw := io.Pipe()
			defer pw.Close()
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/models/commit/check?r=4"+tc.query, pr)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()

			events := make(chan string)
			go func() {
				defer close(events)
				br := bufio.NewReader(resp.Body)
				for {
					name, err1 := br.ReadString('\n')
					data, err2 := br.ReadString('\n')
					_, err3 := br.ReadString('\n')
					if err1 != nil || err2 != nil || err3 != nil {
						return
					}
					events <- name + data
				}
			}()
			for n, alt := 1, 1; n <= lines; n++ {
				line, kind := alternatingLine(alt, tc.format), "accepted"
				if tc.violate && n == violationAt {
					line, kind = "\"NOPE\"\n", "violation"
				} else {
					alt++
				}
				if _, err := io.WriteString(pw, line); err != nil {
					t.Fatal(err)
				}
				select {
				case ev := <-events:
					want := "event: " + kind + "\ndata: {\"line\":" + strconv.Itoa(n) + ","
					if !strings.HasPrefix(ev, want) {
						t.Fatalf("after line %d read %q, want prefix %q", n, ev, want)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("verdict for line %d not delivered before line %d was sent", n, n+1)
				}
			}
			pw.Close()
			if ev := <-events; !strings.HasPrefix(ev, "event: summary\n") {
				t.Errorf("terminal event = %q, want summary", ev)
			}
		})
	}
}

// countingWriter is a ResponseWriter that records the body and counts
// the writes and flushes that delivered it.
type countingWriter struct {
	header          http.Header
	body            bytes.Buffer
	writes, flushes int
}

func (w *countingWriter) Header() http.Header { return w.header }
func (w *countingWriter) WriteHeader(int)     {}
func (w *countingWriter) Flush()              { w.flushes++ }
func (w *countingWriter) Write(b []byte) (int, error) {
	w.writes++
	return w.body.Write(b)
}

// TestCheckRouteBatchesBufferedInput is the other half of the delivery
// guarantee: a trace that arrives in one piece is not answered one
// syscall per line, and batching changes no byte of the stream.
func TestCheckRouteBatchesBufferedInput(t *testing.T) {
	p := artifact.New()
	h := NewHandler(p)
	var body strings.Builder
	for n := 1; n <= 5000; n++ {
		body.WriteString(alternatingLine(n, trace.FormatJSONL))
	}
	w := &countingWriter{header: http.Header{}}
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/models/commit/check?r=4", strings.NewReader(body.String())))

	if want := monitorStream(t, p, body.String()); w.body.String() != want {
		t.Errorf("stream differs from the per-event framing of the monitor's verdicts (%d bytes, want %d)",
			w.body.Len(), len(want))
	}
	if w.flushes > 32 || w.writes > 32 {
		t.Errorf("5000 buffered lines answered in %d writes and %d flushes, want at most 32 of each", w.writes, w.flushes)
	}
}

// flushCounter counts the flushes a handler asks of its ResponseWriter.
// Unwrap lets http.ResponseController reach the connection's deadlines.
type flushCounter struct {
	http.ResponseWriter
	flushes *atomic.Int64
}

func (w flushCounter) Flush() {
	w.flushes.Add(1)
	w.ResponseWriter.(http.Flusher).Flush()
}

func (w flushCounter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// writeCounter is a listener whose connections count their writes: on a
// plain TCP connection, one Write is one write(2).
type writeCounter struct {
	net.Listener
	writes *atomic.Int64
}

func (l writeCounter) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	return countedConn{c, l.writes}, err
}

type countedConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countedConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// rawExchange sends one request on a fresh connection, the body in one
// piece while the response is read, and returns the status line, the
// header block and the body read to EOF.
func rawExchange(t *testing.T, addr, proto, path, body string) (status string, header http.Header, payload string) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	go io.WriteString(conn, "POST "+path+" "+proto+"\r\nHost: x\r\nContent-Length: "+
		strconv.Itoa(len(body))+"\r\n\r\n"+body)
	raw, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	head, payload, ok := strings.Cut(string(raw), "\r\n\r\n")
	if !ok {
		t.Fatalf("%s: no header block in %q", proto, raw)
	}
	status, fields, _ := strings.Cut(head, "\r\n")
	mh, err := textproto.NewReader(bufio.NewReader(strings.NewReader(fields + "\r\n\r\n"))).ReadMIMEHeader()
	if err != nil {
		t.Fatal(err)
	}
	return status, http.Header(mh), payload
}

// TestCheckRouteWireFraming: on HTTP/1.x the event stream is not chunked
// but close-delimited, so the body on the wire is the event stream itself
// — the recorder's bytes, ending at EOF right after the terminal event,
// for HTTP/1.1 and HTTP/1.0 alike — and every flush, the headers'
// included, is one write to the connection. (Chunked, a 32 KiB flush was
// three: the connection buffer's first 4 KiB, the rest, and the chunk's
// closing CRLF.)
func TestCheckRouteWireFraming(t *testing.T) {
	p := artifact.New()
	h := NewHandler(p)
	var flushes, writes atomic.Int64
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(flushCounter{w, &flushes}, r)
	}))
	ts.Listener = writeCounter{ts.Listener, &writes}
	ts.Start()
	defer ts.Close()

	var body strings.Builder
	for n := 1; n <= 5000; n++ {
		body.WriteString(alternatingLine(n, trace.FormatJSONL))
	}
	const path = "/v1/models/commit/check?r=4"
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body.String())))
	want := rec.Body.String()
	if events := parseSSE(t, want); len(events) != 5001 || events[5000].name != "summary" {
		t.Fatalf("recorded %d events, want 5 000 verdicts and the summary", len(events))
	}

	for _, proto := range []string{"HTTP/1.1", "HTTP/1.0"} {
		flushes.Store(0)
		writes.Store(0)
		status, header, got := rawExchange(t, ts.Listener.Addr().String(), proto, path, body.String())
		if !strings.HasSuffix(status, " 200 OK") {
			t.Fatalf("%s: status line %q", proto, status)
		}
		if te := header.Values("Transfer-Encoding"); len(te) != 0 {
			t.Errorf("%s: Transfer-Encoding %q, want the body close-delimited", proto, te)
		}
		if c := header.Get("Connection"); c != "close" {
			t.Errorf("%s: Connection %q, want close", proto, c)
		}
		if got != want {
			t.Errorf("%s: body of %d bytes differs from the recorder's %d", proto, len(got), len(want))
		}
		if f, w := flushes.Load(), writes.Load(); f != w || f > 32 {
			t.Errorf("%s: %d flushes cost %d connection writes, want one each and at most 32", proto, f, w)
		} else {
			t.Logf("%s: %d flushes, %d writes", proto, f, w)
		}
	}
}

// TestCheckRouteTerminalEventFollowsBufferedVerdicts: verdicts still
// buffered when the run fails precede the terminal error event.
func TestCheckRouteTerminalEventFollowsBufferedVerdicts(t *testing.T) {
	h := NewHandler(artifact.New())
	prefix := alternatingLine(1, "") + alternatingLine(2, "") + alternatingLine(3, "")
	for _, tc := range []struct {
		code string
		body io.Reader
	}{
		{CodeBadTrace, strings.NewReader(prefix + "{broken\n")},
		{CodeTraceAborted, io.MultiReader(strings.NewReader(prefix), iotest.ErrReader(errors.New("link down")))},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/models/commit/check?r=4", tc.body))
		events := parseSSE(t, rec.Body.String())
		if len(events) != 4 {
			t.Fatalf("%s: got %d events, want 3 verdicts and the error: %q", tc.code, len(events), rec.Body.String())
		}
		for i, ev := range events[:3] {
			if ev.name != "accepted" || !strings.HasPrefix(ev.data, `{"line":`+strconv.Itoa(i+1)+",") {
				t.Errorf("%s: event %d = %+v, want the accepted verdict of line %d", tc.code, i, ev, i+1)
			}
		}
		if last := events[3]; last.name != "error" || !strings.Contains(last.data, `"code":"`+tc.code+`"`) {
			t.Errorf("%s: terminal event = %+v", tc.code, last)
		}
	}
}

// TestCheckRouteStalledReader: a client that posts a trace and never
// reads the response must not pin the handler in Write. The raw client
// streams an endless keep_going trace, so the verdicts fill every socket
// buffer between the two; the write deadline then ends the run.
func TestCheckRouteStalledReader(t *testing.T) {
	handlerDone := make(chan struct{})
	inner := NewHandler(artifact.New())
	inner.checkWriteTimeout = 200 * time.Millisecond
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer close(handlerDone)
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		io.WriteString(conn, "POST /v1/models/commit/check?r=4&keep_going=1 HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n")
		block := strings.Repeat("\"NOPE\"\n", 4096)
		chunk := strconv.FormatInt(int64(len(block)), 16) + "\r\n" + block + "\r\n"
		for {
			// Ends when the server hangs up or the test closes conn.
			if _, err := io.WriteString(conn, chunk); err != nil {
				return
			}
		}
	}()

	select {
	case <-handlerDone:
	case <-time.After(10 * time.Second):
		t.Fatal("handler still blocked 10s after its 200ms write deadline: a reader that never reads pins it")
	}
	conn.Close()
	<-writerDone
}
