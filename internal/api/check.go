package api

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"time"

	"asagen/internal/artifact"
	"asagen/internal/trace"
)

// handleCheck serves POST /v1/models/{model}/check: the request body is a
// trace (JSON Lines by default, or text decoded through regex transition
// patterns) streamed through the model's generated machine, and the
// response is a Server-Sent Events stream with one event per verdict.
// Event names are the verdict kinds and each data payload is the
// canonical verdict JSON — byte-identical to what `fsmgen check -json`
// and the SDK iterator emit for the same trace.
//
// The trace is judged at line rate as the body arrives; neither side
// buffers the whole trace, so arbitrarily long streams check in bounded
// memory. Closing the request mid-stream cancels the run server-side.
//
// Events are flushed on input idleness (see eventStream): every verdict
// for the input received so far is on the wire before the handler waits
// for more input.
//
// Preflight failures (unknown model, bad parameter, bad pattern) are
// ordinary JSON-envelope errors. Once the event stream has started,
// failures arrive as a terminal `error` event whose data is the same
// envelope: code `bad_trace` for undecodable input, `trace_aborted` for
// a failed trace read. A completed run — conforming or violating, per
// its `stats` — ends with a `summary` event.
func (h *Handler) handleCheck(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	param, ok := queryParam(w, q.Get("r"))
	if !ok {
		return
	}
	tolerance := 0
	if ts := q.Get("tolerance"); ts != "" {
		n, err := strconv.Atoi(ts)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeBadParameter,
				"bad tolerance "+strconv.Quote(ts)+": want a non-negative integer")
			return
		}
		tolerance = n
	}
	keepGoing := false
	switch kg := q.Get("keep_going"); kg {
	case "", "0", "false":
	case "1", "true":
		keepGoing = true
	default:
		writeError(w, http.StatusBadRequest, CodeBadParameter,
			"bad keep_going "+strconv.Quote(kg)+": want 1/true or 0/false")
		return
	}
	chk, err := trace.ParseCheck(q.Get("format"), q["match"], tolerance)
	if err != nil {
		code := CodeBadTrace
		if errors.Is(err, trace.ErrNegativeTolerance) {
			code = CodeBadParameter
		}
		writeError(w, http.StatusBadRequest, code, err.Error())
		return
	}
	chk.KeepGoing = keepGoing

	machine, _, _, err := h.p.Machine(r.Context(), r.PathValue("model"), param)
	if err != nil {
		switch {
		case r.Context().Err() != nil:
			return // client gone before generation finished
		case errors.Is(err, artifact.ErrUnknownModel):
			writeError(w, http.StatusNotFound, CodeUnknownModel, err.Error())
		default:
			// Model construction rejected the parameter value.
			writeError(w, http.StatusBadRequest, CodeBadParameter, err.Error())
		}
		return
	}
	stream := newEventStream(w, h.checkWriteTimeout)
	defer stream.release()

	// Preflight is clean: commit to the event stream. From here failures
	// are in-band `error` events, not status codes.
	header := w.Header()
	header.Set("Content-Type", "text/event-stream; charset=utf-8")
	header.Set("Cache-Control", "no-store")
	header.Set("X-Accel-Buffering", "no")
	if r.ProtoMajor == 1 {
		// Without this the HTTP/1 server drains the unread request body
		// before releasing the response headers, to keep the connection
		// reusable — a deadlock when the trace is still streaming in.
		// Responses and trace bodies interleave here, so the connection
		// could never be reused anyway.
		header.Set("Connection", "close")
		// Nor need the body be chunked: net/http then sends it
		// close-delimited, as for HTTP/1.0 (this header is not sent), and
		// a flush is one write, not three. The terminal event, not the
		// close, marks a complete stream.
		header.Set("Transfer-Encoding", "identity")
	}
	w.WriteHeader(http.StatusOK)
	// Push the headers out now: verdicts may be a long time coming on a
	// live trace, and SSE clients act on the content type immediately.
	if stream.rc.Flush() != nil {
		return
	}
	// Whatever ends the run, the events still buffered go out with it,
	// before the buffer is released. A failure here means the client is
	// gone; there is no one to tell.
	defer stream.flush()

	rep, err := chk.Run(r.Context(), machine, trace.FlushBeforeRead(r.Body, stream.flush), stream)
	var de *trace.DecodeError
	switch {
	case stream.err != nil:
		// A write failed or timed out; the client is gone or not reading.
	case r.Context().Err() != nil:
		// Cancelled mid-run; nothing useful can be written.
	case err == nil:
		summary := trace.Terminal(rep, nil)
		stream.Observe(&summary)
	case errors.As(err, &de):
		stream.event("error", envelopeJSON(CodeBadTrace, de.Error()))
	default:
		stream.event("error", envelopeJSON(CodeTraceAborted, err.Error()))
	}
}

const (
	// checkFlushBytes caps the events buffered while input keeps coming.
	// One write this size passes net/http's 2 KiB response and 4 KiB
	// connection buffers untouched, and with the body close-delimited on
	// HTTP/1.x it leaves as one write(2).
	checkFlushBytes = 32 << 10
	// checkBufSize is an event buffer's capacity: room for the event that
	// crosses checkFlushBytes, so a run never grows its buffer unless one
	// event is over a kilobyte.
	checkBufSize = checkFlushBytes + 1024
	// checkWriteTimeout bounds each write of the event stream, so a
	// client that posts a trace and never reads cannot pin the handler.
	checkWriteTimeout = 30 * time.Second
)

// eventBufs recycles the event buffers of finished check streams. It only
// ever holds the checkBufSize arrays it handed out: a buffer that grew
// past its capacity for an outsized event is the stream's own, and is
// left to the GC with it.
var eventBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, checkBufSize)
	return &b
}}

// acceptedHead frames an accepted verdict, by far the most frequent.
const acceptedHead = "event: accepted\ndata: "

// eventStream is the response side of one check run. Events accumulate
// in buf and go to the client at exactly three points: immediately
// before the trace decoder reads the request body (flush is the hook of
// trace.FlushBeforeRead), when buf passes checkFlushBytes, and when the
// handler ends. The first keeps per-event latency: the decoder reads
// only when every line that has arrived has been judged, so nothing is
// held back while the handler waits for input, and with input buffered
// the monitor judges millions of lines a second — the next read, and its
// flush, is under a millisecond away, which is why there is no timer.
//
// Verdicts are encoded straight into buf by the stream's own
// trace.Encoder, so a transition the stream has already reported costs
// its line number and a copy. buf starts as a buffer borrowed from
// eventBufs, returned by release when the handler ends.
type eventStream struct {
	w       http.ResponseWriter
	rc      *http.ResponseController
	timeout time.Duration
	pooled  *[]byte // the borrowed buffer; nil once released
	buf     []byte
	enc     trace.Encoder
	err     error // first write failure; the stream is dead after it
}

func newEventStream(w http.ResponseWriter, timeout time.Duration) *eventStream {
	pooled := eventBufs.Get().(*[]byte)
	return &eventStream{w: w, rc: http.NewResponseController(w), timeout: timeout,
		pooled: pooled, buf: (*pooled)[:0]}
}

// release returns the borrowed buffer to eventBufs; the stream writes
// nothing afterwards.
func (s *eventStream) release() {
	eventBufs.Put(s.pooled)
	s.pooled, s.buf = nil, nil
}

// event appends one framed event; false means the stream is dead.
func (s *eventStream) event(name string, data []byte) bool {
	s.begin(name)
	s.buf = append(s.buf, data...)
	return s.end()
}

// Observe appends one verdict as a framed event named by its kind; false
// means the stream is dead. The stream is the check run's trace.Observer.
func (s *eventStream) Observe(v *trace.Verdict) bool {
	if v.Kind == trace.KindAccepted {
		s.buf = append(s.buf, acceptedHead...)
	} else {
		s.begin(v.Kind.String())
	}
	s.buf = s.enc.Append(s.buf, v)
	return s.end()
}

func (s *eventStream) begin(name string) {
	s.buf = append(s.buf, "event: "...)
	s.buf = append(s.buf, name...)
	s.buf = append(s.buf, "\ndata: "...)
}

func (s *eventStream) end() bool {
	s.buf = append(s.buf, "\n\n"...)
	if len(s.buf) >= checkFlushBytes {
		return s.flush() == nil
	}
	return s.err == nil
}

// flush writes the buffered events through to the client under a fresh
// write deadline.
func (s *eventStream) flush() error {
	if s.err != nil || len(s.buf) == 0 {
		return s.err
	}
	s.err = s.rc.SetWriteDeadline(time.Now().Add(s.timeout))
	if errors.Is(s.err, http.ErrNotSupported) {
		s.err = nil // a recorder: no connection, so nothing that can stall
	}
	if s.err == nil {
		_, s.err = s.w.Write(s.buf)
	}
	if s.err == nil {
		s.err = s.rc.Flush()
	}
	s.buf = s.buf[:0]
	return s.err
}

// envelopeJSON renders the standard error envelope as a compact JSON
// line for use as an SSE data payload.
func envelopeJSON(code, message string) []byte {
	data, err := json.Marshal(errorEnvelope{Error: errorBody{Code: code, Message: message}})
	if err != nil {
		return []byte(`{"error":{"code":"` + code + `","message":"encoding failed"}}`)
	}
	return data
}
