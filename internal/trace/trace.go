// Package trace is the streaming conformance-monitoring layer: it drives
// a generated state machine over unbounded event streams at line rate and
// classifies every delivery into a typed verdict. This is the paper's
// dynamic-deployment path (§4.2) turned outward — instead of the machine
// acting inside the protocol, it runs beside a live system and judges the
// message stream the system actually produced, the way go-rst's state
// machine consumes an unbounded list of input lines through per-state
// transition patterns and observer callbacks.
//
// The layer has three parts:
//
//   - Decoders turn an io.Reader into a stream of Events, one per input
//     line: JSON Lines for structured traces, and a regex front-end that
//     maps captured text lines to machine messages (go-rst style).
//   - A Judge turns each delivery to one machine into a verdict kind; it
//     is the only code that does, for the fleet simulation and the
//     cluster's routing oracle too. A Monitor feeds the events to the
//     Judge of its one machine, emitting a Verdict per delivery to
//     registered observers and accumulating a Report (lines, verdicts,
//     violations, first-violation position).
//   - A canonical JSON encoding of verdicts shared by every consumer
//     (SSE wire stream, CLI, SDK iterator), so the same trace always
//     produces byte-identical verdict streams on every path. An Encoder
//     writes the same bytes, reusing each transition's.
//
// Memory is bounded by the longest input line, never by the trace: lines
// are decoded, judged and discarded one at a time.
package trace

import (
	"bytes"
	"strconv"

	"asagen/internal/core"
)

// Kind classifies one verdict.
type Kind uint8

const (
	// KindAccepted reports a message the machine consumed: a transition
	// fired, the actions on it were performed.
	KindAccepted Kind = iota
	// KindIgnored reports a tolerated rejection: the machine records no
	// transition for the message in its current state (guard-rejected or
	// out-of-vocabulary), and the monitor's tolerance budget absorbed it.
	KindIgnored
	// KindSkipped reports an input line the decoder produced no event
	// for (e.g. no regex transition pattern matched).
	KindSkipped
	// KindFinished reports the machine reaching its finish state. It is
	// emitted in addition to the KindAccepted verdict of the delivery
	// that finished the machine.
	KindFinished
	// KindViolation reports a rejected message after the tolerance
	// budget was exhausted: the trace does not conform to the machine.
	KindViolation
	// KindMalformed reports undecodable input: the trace is neither
	// conforming nor violating, it is not a trace in the declared format.
	KindMalformed
	// KindAborted reports a run stopped by context cancellation.
	KindAborted
	// KindSummary is the terminal verdict of a completed run; it carries
	// the Report.
	KindSummary
)

var kindNames = [...]string{
	KindAccepted:  "accepted",
	KindIgnored:   "ignored",
	KindSkipped:   "skipped",
	KindFinished:  "finished",
	KindViolation: "violation",
	KindMalformed: "malformed",
	KindAborted:   "aborted",
	KindSummary:   "summary",
}

// String returns the verdict kind's wire name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// ParseKind returns the kind whose wire name is name; ok is false when
// no kind has that name.
func ParseKind(name string) (k Kind, ok bool) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), true
		}
	}
	return 0, false
}

// Verdict is the monitor's judgement of one delivery (or one stream
// event for the terminal kinds). The zero Line means the verdict is not
// anchored to an input line.
type Verdict struct {
	// Line is the 1-based input line the verdict judges.
	Line int
	// Event is the delivered message type.
	Event string
	// Kind classifies the verdict.
	Kind Kind
	// edge is tr's position in its machine's core.Table, the Encoder's
	// memo index. It sits in Kind's padding, so a Verdict, which every
	// ObserverFunc copies, is no larger for it.
	edge int32
	// State is the machine state after the delivery (unchanged for
	// rejections).
	State string
	// Actions are the actions performed by an accepted delivery, in
	// transition order. The slice is shared with the machine structure
	// and must not be mutated.
	Actions []string
	// Detail carries the rejection reason, the skip reason, or the
	// decode error message.
	Detail string
	// Stats is the run report; non-nil only on KindSummary.
	Stats *Report

	// tr is the transition an accepted verdict fired, set by Monitor.Run
	// and nil on every other verdict: Event, State and Actions are its
	// Message, Target.Name and Actions, which is what lets an Encoder
	// reuse the bytes it wrote for the transition before.
	tr *core.Transition
}

// Report accumulates a run's statistics; it is carried by the summary
// verdict and returned by Monitor.Run.
type Report struct {
	// Lines counts input lines consumed, including blank and skipped
	// ones.
	Lines int
	// Events counts decoded events delivered to the machine.
	Events int
	// Accepted, Ignored, Skipped and Violations count verdicts by kind.
	Accepted   int
	Ignored    int
	Skipped    int
	Violations int
	// FirstViolation is the 1-based line of the first violation; 0 when
	// the trace conforms.
	FirstViolation int
	// Finished reports whether the machine reached its finish state.
	Finished bool
	// FinalState is the machine's state when the run completed.
	FinalState string
}

// Conforming reports whether the monitored trace conformed: every
// delivered event was consumed or tolerated.
func (r Report) Conforming() bool { return r.Violations == 0 }

// AppendJSON appends the canonical JSON encoding of the verdict to dst
// and returns the extended slice. The encoding is deterministic — fixed
// key order, no insignificant whitespace — so equal verdict streams are
// byte-identical wherever they are rendered (SSE, CLI, SDK).
func (v *Verdict) AppendJSON(dst []byte) []byte {
	dst = append(dst, '{')
	if v.Line > 0 {
		dst = append(dst, `"line":`...)
		dst = strconv.AppendInt(dst, int64(v.Line), 10)
		dst = append(dst, ',')
	}
	if v.Event != "" {
		dst = append(dst, `"event":`...)
		dst = appendJSONString(dst, v.Event)
		dst = append(dst, ',')
	}
	dst = append(dst, `"kind":`...)
	dst = appendJSONString(dst, v.Kind.String())
	if v.State != "" {
		dst = append(dst, `,"state":`...)
		dst = appendJSONString(dst, v.State)
	}
	if len(v.Actions) > 0 {
		dst = append(dst, `,"actions":[`...)
		for i, a := range v.Actions {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, a)
		}
		dst = append(dst, ']')
	}
	if v.Detail != "" {
		dst = append(dst, `,"detail":`...)
		dst = appendJSONString(dst, v.Detail)
	}
	if v.Stats != nil {
		dst = append(dst, `,"stats":`...)
		dst = v.Stats.AppendJSON(dst)
	}
	return append(dst, '}')
}

// Encoder writes a stream's verdicts in the canonical encoding, encoding
// each transition once: what an accepted verdict carries after its line
// number depends only on the fired transition, so the first time a
// transition fires those bytes are taken from Verdict.AppendJSON and
// kept, and afterwards the verdict is `{"line":`, its digits and them.
// Every other verdict is AppendJSON's own.
//
// The digits are a counter too: the Encoder keeps the last line number it
// wrote that way, and the next accepted line is almost always the one
// after it, so its digits are incremented in place rather than formatted.
// Any other line is formatted afresh and becomes the counter's value.
//
// The memo is a slice indexed by the transition's position in its
// machine's core.Table, and an entry is used only for the transition it
// was written for, so an Encoder reused across machines encodes another
// machine's transition at a kept position field by field. The memo is
// bounded: positions from maxEncoded on are always encoded field by
// field. The zero value is ready to use; an Encoder belongs to one stream
// and is not safe for concurrent use.
type Encoder struct {
	tails []encoded
	// line is the last line number written from the memo, and
	// digits[start:] its decimal form; line is 0 before the first.
	line   int
	start  int
	digits [20]byte
}

// encoded is what follows an accepted verdict's line number, for the
// transition it was written for.
type encoded struct {
	tr   *core.Transition
	tail string
}

const maxEncoded = 4096

// Append appends the canonical JSON encoding of *v to dst and returns the
// extended slice.
func (e *Encoder) Append(dst []byte, v *Verdict) []byte {
	if v.tr == nil || v.Line <= 0 {
		return v.AppendJSON(dst)
	}
	if int(v.edge) < len(e.tails) {
		if enc := &e.tails[v.edge]; enc.tr == v.tr {
			dst = append(dst, `{"line":`...)
			dst = append(dst, e.lineDigits(v.Line)...)
			return append(dst, enc.tail...)
		}
	}
	start := len(dst)
	dst = v.AppendJSON(dst)
	if v.edge < maxEncoded {
		if n := int(v.edge) + 1; n > len(e.tails) {
			e.tails = append(e.tails, make([]encoded, n-len(e.tails))...)
		}
		if enc := &e.tails[v.edge]; enc.tr == nil {
			// The tail starts at the comma that ends the line number.
			head := start + len(`{"line":`)
			head += bytes.IndexByte(dst[head:], ',')
			*enc = encoded{tr: v.tr, tail: string(dst[head:])}
		}
	}
	return dst
}

// lineDigits returns the decimal form of line, valid until the next call.
func (e *Encoder) lineDigits(line int) []byte {
	switch {
	case line == e.line:
	case line == e.line+1 && e.line > 0:
		i := len(e.digits) - 1
		for ; i >= e.start && e.digits[i] == '9'; i-- {
			e.digits[i] = '0'
		}
		if i < e.start { // every digit carried: 99 becomes 100
			e.start--
			e.digits[e.start] = '1'
		} else {
			e.digits[i]++
		}
		e.line = line
	default:
		n := len(strconv.AppendInt(e.digits[:0], int64(line), 10))
		e.start = len(e.digits) - n
		copy(e.digits[e.start:], e.digits[:n])
		e.line = line
	}
	return e.digits[e.start:]
}

// AppendJSON appends the canonical JSON encoding of the report to dst.
func (r *Report) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"lines":`...)
	dst = strconv.AppendInt(dst, int64(r.Lines), 10)
	dst = append(dst, `,"events":`...)
	dst = strconv.AppendInt(dst, int64(r.Events), 10)
	dst = append(dst, `,"accepted":`...)
	dst = strconv.AppendInt(dst, int64(r.Accepted), 10)
	dst = append(dst, `,"ignored":`...)
	dst = strconv.AppendInt(dst, int64(r.Ignored), 10)
	dst = append(dst, `,"skipped":`...)
	dst = strconv.AppendInt(dst, int64(r.Skipped), 10)
	dst = append(dst, `,"violations":`...)
	dst = strconv.AppendInt(dst, int64(r.Violations), 10)
	if r.FirstViolation > 0 {
		dst = append(dst, `,"first_violation":`...)
		dst = strconv.AppendInt(dst, int64(r.FirstViolation), 10)
	}
	dst = append(dst, `,"finished":`...)
	dst = strconv.AppendBool(dst, r.Finished)
	if r.FinalState != "" {
		dst = append(dst, `,"final_state":`...)
		dst = appendJSONString(dst, r.FinalState)
	}
	return append(dst, '}')
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal. Control
// characters, quotes and backslashes are escaped per RFC 8259; all other
// bytes pass through verbatim (valid UTF-8 in means valid UTF-8 out).
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' {
			continue
		}
		dst = append(dst, s[start:i]...)
		switch c {
		case '"', '\\':
			dst = append(dst, '\\', c)
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		}
		start = i + 1
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// Terminal derives the terminal verdict of a run from Monitor.Run's
// results: a summary for a completed run (conforming or not), a
// malformed verdict for a decode failure, and an aborted verdict for a
// cancelled run. Callers that stopped the run themselves (ErrStopped)
// should not emit a terminal verdict.
func Terminal(rep Report, err error) Verdict {
	switch e := err.(type) {
	case nil:
		r := rep
		return Verdict{Kind: KindSummary, Stats: &r}
	case *DecodeError:
		return Verdict{Line: e.Line, Kind: KindMalformed, Detail: e.Error()}
	default:
		return Verdict{Kind: KindAborted, Detail: err.Error()}
	}
}
