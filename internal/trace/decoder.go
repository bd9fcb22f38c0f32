package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"regexp"
	"sync"
	"unicode/utf8"
)

// Event is one decoded trace element: the message carried by one input
// line.
type Event struct {
	// Line is the 1-based input line number.
	Line int
	// Msg is the machine message type decoded from the line; empty when
	// Skip is set.
	Msg string
	// Skip marks a non-blank line the decoder produced no event for
	// (e.g. no transition pattern matched); the monitor reports it as a
	// skipped verdict instead of a delivery.
	Skip bool

	// sym is the decoder's symbol for Msg: one decoder gives equal
	// messages the same symbol, numbered from 1 in the order it first
	// saw them, so a Judge resolves each message once per run. 0 when the
	// decoder gave the message none (a slow path, or a full interner).
	sym int32
}

// Decoder produces the event stream of one trace. Next returns io.EOF at
// the end of the input and a *DecodeError for undecodable lines; any
// other error is an I/O failure of the underlying reader.
type Decoder interface {
	Next() (Event, error)
}

// DecodeCloser is a Decoder that holds a pooled line buffer until Close.
// Both of this package's decoders are one; Check.Decoder returns one.
type DecodeCloser interface {
	Decoder
	io.Closer
}

// DecodeError reports an input line that is not a trace element in the
// decoder's format.
type DecodeError struct {
	// Line is the 1-based position of the offending line.
	Line int
	// Reason describes why the line was rejected.
	Reason string
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("trace: line %d: %s", e.Line, e.Reason)
}

// maxLineBytes bounds a single trace line, not counting its terminator
// (\n or \r\n). The monitor's memory use is bounded by this, never by the
// trace length.
const maxLineBytes = 1 << 20

// lineBufSize is the line buffer a decoder starts with; a longer line
// makes the decoder's lineReader grow a copy of its own, up to
// maxLineBytes and a terminator.
const lineBufSize = 64 << 10

// lineBufs recycles the line buffers of closed decoders, so a server
// checking one short trace after another allocates none. It only ever
// holds the lineBufSize arrays it handed out: a buffer a lineReader grew
// for a long line is that reader's own, and is left to the GC with it.
var lineBufs = sync.Pool{New: func() any {
	b := make([]byte, lineBufSize)
	return &b
}}

// errClosed is what a closed decoder's Next returns.
var errClosed = errors.New("trace: Next on a closed decoder")

// lineReader is the line splitter shared by the decoders: it hands out
// one line at a time from a reused buffer, tracking the 1-based line
// number, and reads only when the buffer holds no complete line. Lines
// end in \n; a \r before it, or before the end of the input, is dropped.
// Returned slices are valid only until the next call.
type lineReader struct {
	r      io.Reader
	pooled *[]byte // borrowed from lineBufs; nil once returned
	buf    []byte  // *pooled, or a larger array grown for a long line; nil once closed
	start  int     // buf[start:end] is read and not yet handed out
	end    int
	err    error // the reader's error once it returned one, or a too-long line's
	line   int
}

// maxConsecutiveEmptyReads is how many (0, nil) reads in a row a
// lineReader puts up with before it fails with io.ErrNoProgress, as
// bufio.Scanner does.
const maxConsecutiveEmptyReads = 100

func newLineReader(r io.Reader) lineReader {
	buf := lineBufs.Get().(*[]byte)
	return lineReader{r: r, pooled: buf, buf: *buf}
}

// Close returns the line buffer to the pool. A reader nobody closes
// leaves its buffer to the GC; one that is closed reads no more.
func (lr *lineReader) Close() error {
	if lr.pooled != nil {
		lineBufs.Put(lr.pooled)
		lr.pooled, lr.buf, lr.r = nil, nil, nil
	}
	return nil
}

// next returns the next input line without its terminator. io.EOF marks
// the end of input; a line longer than maxLineBytes is a *DecodeError,
// and so is every call after it.
func (lr *lineReader) next() ([]byte, error) {
	if lr.buf == nil {
		return nil, errClosed
	}
	for empty := 0; ; {
		if i := bytes.IndexByte(lr.buf[lr.start:lr.end], '\n'); i >= 0 {
			line := lr.buf[lr.start : lr.start+i]
			lr.start += i + 1
			return lr.take(line)
		}
		if lr.err != nil {
			if lr.start < lr.end { // the last line has no terminator
				line := lr.buf[lr.start:lr.end]
				lr.start = lr.end
				return lr.take(line)
			}
			if _, tooLong := lr.err.(*DecodeError); tooLong || lr.err == io.EOF {
				return nil, lr.err
			}
			return nil, fmt.Errorf("trace: read line %d: %w", lr.line+1, lr.err)
		}
		if lr.end == len(lr.buf) {
			switch {
			case lr.start > 0:
				lr.end = copy(lr.buf, lr.buf[lr.start:lr.end])
				lr.start = 0
			case len(lr.buf) >= maxLineBytes+len("\r\n"):
				// Not even a \r\n at the end would bring this line
				// within the limit.
				return nil, lr.tooLong()
			default:
				grown := make([]byte, min(2*len(lr.buf), maxLineBytes+len("\r\n")))
				lr.end = copy(grown, lr.buf[lr.start:lr.end])
				lr.buf = grown
			}
		}
		n, err := lr.r.Read(lr.buf[lr.end:])
		switch {
		case n < 0 || n > len(lr.buf)-lr.end:
			lr.err = errors.New("trace: reader returned an impossible count")
		case err != nil:
			lr.end += n
			lr.err = err
		case n > 0:
			lr.end += n
			empty = 0
		default:
			if empty++; empty >= maxConsecutiveEmptyReads {
				lr.err = io.ErrNoProgress
			}
		}
	}
}

// take hands out one line: its trailing \r dropped, held to the limit.
func (lr *lineReader) take(line []byte) ([]byte, error) {
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	if len(line) > maxLineBytes {
		return nil, lr.tooLong()
	}
	lr.line++
	return line, nil
}

// tooLong fails the reader at the next line: this call and every later
// one return the same *DecodeError.
func (lr *lineReader) tooLong() error {
	lr.err = &DecodeError{Line: lr.line + 1, Reason: fmt.Sprintf("line exceeds %d bytes", maxLineBytes)}
	lr.start, lr.end = 0, 0
	return lr.err
}

// FlushBeforeRead returns a reader over r that calls flush immediately
// before every Read of r, and fails the Read with flush's error. Wrapped
// around a decoder's input it flushes on input idleness: a decoder only
// reads when its line buffer holds no complete line, so "about to Read"
// means every line that has arrived has been judged and nothing
// more can be done without blocking. A producer of one line at a time
// sees each verdict before its next line is asked for; a trace that
// arrives in one piece is answered in as few writes as it took reads.
func FlushBeforeRead(r io.Reader, flush func() error) io.Reader {
	return &flushingReader{r: r, flush: flush}
}

type flushingReader struct {
	r     io.Reader
	flush func() error
}

func (f *flushingReader) Read(p []byte) (int, error) {
	if err := f.flush(); err != nil {
		return 0, err
	}
	return f.r.Read(p)
}

// interner deduplicates message strings so steady-state decoding of a
// trace over a machine's (small) vocabulary performs no per-line
// allocation, and gives each distinct message a symbol (Event.sym). The
// table is bounded; an adversarial stream of distinct messages falls back
// to plain allocation, and no symbol, rather than growing memory.
//
// It is also where a message is held to valid UTF-8: verdicts carry the
// message into text/event-stream and JSON output, which must be UTF-8.
// Only a miss is checked, so a recurring message pays nothing.
type interner map[string]symbol

// symbol is an interned message and its symbol.
type symbol struct {
	msg string
	sym int32
}

const maxInterned = 1024

// notUTF8 is the reason every decoder gives for a message that is not
// valid UTF-8.
const notUTF8 = "message is not valid UTF-8"

// get returns b as a string and its symbol, 0 once the table is full; ok
// is false when b is not valid UTF-8.
func (in interner) get(b []byte) (s string, sym int32, ok bool) {
	// The string(b) conversions in the map index expressions do not
	// allocate (compiler-recognised pattern).
	if e, ok := in[string(b)]; ok {
		return e.msg, e.sym, true
	}
	if !utf8.Valid(b) {
		return "", 0, false
	}
	s = string(b)
	if len(in) < maxInterned {
		sym = int32(len(in)) + 1
		in[s] = symbol{s, sym}
	}
	return s, sym, true
}

// JSONLDecoder decodes JSON Lines traces: one event per line, either a
// bare JSON string naming the message ("VOTE") or an object with a
// "msg" member ({"msg":"VOTE", ...}; other members are ignored, so
// richer event records pass through untouched). Blank lines are
// skipped silently. A message that is not valid UTF-8 is a DecodeError;
// so is any line that is not, except that a line starting {"msg":"...",
// with no escape in the message, is read no further than that member.
type JSONLDecoder struct {
	lr     lineReader
	intern interner
}

// NewJSONLDecoder returns a JSON Lines decoder over r.
func NewJSONLDecoder(r io.Reader) *JSONLDecoder {
	return &JSONLDecoder{lr: newLineReader(r), intern: make(interner)}
}

// Close returns the decoder's line buffer to a pool shared by every
// decoder; Next fails afterwards. A decoder that is never closed works
// the same and leaves the buffer to the GC.
func (d *JSONLDecoder) Close() error { return d.lr.Close() }

// jsonlEvent is the decoded object form of one JSON Lines event.
type jsonlEvent struct {
	Msg string `json:"msg"`
}

// Next implements Decoder.
func (d *JSONLDecoder) Next() (Event, error) {
	for {
		b, err := d.lr.next()
		if err != nil {
			return Event{}, err
		}
		b = bytes.TrimSpace(b)
		if len(b) == 0 {
			continue
		}
		// encoding/json would read invalid UTF-8 as U+FFFD, so the slow
		// paths check the line before it does.
		switch b[0] {
		case '{':
			// Fast path for the canonical {"msg":"..."} shape with no
			// escapes: the message bytes are extracted and interned
			// without invoking the JSON decoder. It reads nothing after
			// the first msg member.
			if raw, ok := fastMsg(b); ok {
				msg, sym, ok := d.intern.get(raw)
				if !ok {
					return Event{}, &DecodeError{Line: d.lr.line, Reason: notUTF8}
				}
				return Event{Line: d.lr.line, Msg: msg, sym: sym}, nil
			}
			if !utf8.Valid(b) {
				return Event{}, &DecodeError{Line: d.lr.line, Reason: "JSON event is not valid UTF-8"}
			}
			var ev jsonlEvent
			if err := json.Unmarshal(b, &ev); err != nil {
				return Event{}, &DecodeError{Line: d.lr.line,
					Reason: fmt.Sprintf("invalid JSON event: %v", err)}
			}
			if ev.Msg == "" {
				return Event{}, &DecodeError{Line: d.lr.line,
					Reason: `JSON event object has no "msg" member`}
			}
			return Event{Line: d.lr.line, Msg: ev.Msg}, nil
		case '"':
			if !utf8.Valid(b) {
				return Event{}, &DecodeError{Line: d.lr.line, Reason: notUTF8}
			}
			var msg string
			if err := json.Unmarshal(b, &msg); err != nil || msg == "" {
				return Event{}, &DecodeError{Line: d.lr.line,
					Reason: "invalid JSON string event"}
			}
			return Event{Line: d.lr.line, Msg: msg}, nil
		default:
			return Event{}, &DecodeError{Line: d.lr.line,
				Reason: fmt.Sprintf("not a JSON Lines event (starts with %q); expected a string or an object with a \"msg\" member", b[0])}
		}
	}
}

// fastMsg extracts the msg value from a {"msg":"..."} prefix when the
// value contains no escapes. ok is false when the line needs the full
// JSON decoder.
func fastMsg(b []byte) (msg []byte, ok bool) {
	const prefix = `{"msg":"`
	if len(b) < len(prefix) || string(b[:len(prefix)]) != prefix {
		return nil, false
	}
	rest := b[len(prefix):]
	end := bytes.IndexByte(rest, '"')
	if end < 0 || bytes.IndexByte(rest[:end], '\\') >= 0 {
		return nil, false
	}
	switch {
	case end == 0:
		return nil, false // empty msg: let the slow path reject it
	case len(rest) == end+1 || rest[end+1] == '}' || rest[end+1] == ',':
		return rest[:end], true
	default:
		return nil, false
	}
}

// Rule maps a transition pattern to a machine message, go-rst style: a
// line matching Pattern decodes to Message with capture-group references
// ($1, ${name}) expanded.
type Rule struct {
	Pattern *regexp.Regexp
	// Message is the message template; when empty, "$1" (the first
	// capture group, or the whole match when the pattern declares no
	// groups) is used.
	Message string
	// match, when set, is a hand-written equivalent of Pattern with one
	// capture group spanning the whole match: the [start, end) of the
	// leftmost match in a line. Only rules whose pattern is fixed at
	// compile time have one; Pattern stays the specification.
	match func(line []byte) (start, end int, ok bool)
}

// ParseRule compiles a rule from its flag/query syntax:
//
//	PATTERN             message is capture group 1 (or the whole match)
//	PATTERN=>TEMPLATE   message is TEMPLATE with $1/${name} expanded
func ParseRule(s string) (Rule, error) {
	pattern, template := s, ""
	if i := indexRuleSep(s); i >= 0 {
		pattern, template = s[:i], s[i+2:]
	}
	re, err := regexp.Compile(pattern)
	if err != nil {
		return Rule{}, fmt.Errorf("trace: bad match rule %q: %v", s, err)
	}
	return Rule{Pattern: re, Message: template}, nil
}

// indexRuleSep locates the last "=>" separator, so patterns containing
// "=>" can still be written by putting the template after the final one.
func indexRuleSep(s string) int {
	for i := len(s) - 2; i >= 0; i-- {
		if s[i] == '=' && s[i+1] == '>' {
			return i
		}
	}
	return -1
}

// DefaultRules returns the regex front-end's fallback rule set: the
// first ALL_CAPS token of a line (two or more characters) is the
// message — the shape of the repository's machine vocabularies (VOTE,
// STORE_ACK, SUCC_FAIL, ...).
func DefaultRules() []Rule {
	return []Rule{{Pattern: defaultPattern, match: matchDefault}}
}

// defaultPattern specifies the default rule. Decoding runs matchDefault;
// the compiled pattern is what the differential and fuzz tests hold it
// to, and what error messages name.
var defaultPattern = regexp.MustCompile(`\b([A-Z][A-Z0-9_]+)\b`)

// isWordByte is RE2's \w, which like its \b is ASCII-only: every byte
// of a non-ASCII or invalid rune is a non-word byte.
func isWordByte(c byte) bool {
	return 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || '0' <= c && c <= '9' || c == '_'
}

// matchDefault is defaultPattern by hand: the first maximal run of word
// bytes that starts with A-Z, is at least two bytes long and holds no
// lowercase letter. A match can only start at the head of a run (\b
// needs a non-word byte before it), and backtracking the greedy
// [A-Z0-9_]+ never helps because every byte it gives back is itself a
// word byte, so the closing \b holds only at the end of the run.
//
// So only an A-Z byte can start a match, and the matcher skips to the
// next one eight bytes at a time (nextUpper). An A-Z byte that is not a
// run's head lies in a run whose head, between the last run checked and
// it, is a word byte other than A-Z: that run cannot match, and is
// skipped whole.
func matchDefault(line []byte) (start, end int, ok bool) {
	for i := 0; ; {
		start = nextUpper(line, i)
		if start < 0 {
			return 0, 0, false
		}
		ok = start == 0 || !isWordByte(line[start-1])
		for i = start; i < len(line) && isWordByte(line[i]); i++ {
			if 'a' <= line[i] && line[i] <= 'z' {
				ok = false
			}
		}
		if ok && i-start >= 2 {
			return start, i, true
		}
	}
}

// nextUpper returns the position of the first A-Z byte of line at or
// after i, or -1. It tests eight bytes a word: a byte's high bit in
// (x&lo7 + geA) &^ (x&lo7 + gtZ) says its low seven bits are A-Z, and
// &^ x drops the bytes from 0x80 up, whose low seven bits may be too
// (0xc1 is 'A' | 0x80) but which are never A-Z: \b is ASCII-only.
func nextUpper(line []byte, i int) int {
	const (
		lo7 = 0x7f7f7f7f7f7f7f7f // each byte's low seven bits
		hi1 = 0x8080808080808080 // each byte's high bit
		// Added to a byte's low seven bits, geA carries into its high
		// bit from 'A' up, and gtZ from 'Z'+1 up; no sum carries out of
		// its byte.
		geA = (0x80 - 'A') * 0x0101010101010101
		gtZ = (0x80 - 'Z' - 1) * 0x0101010101010101
	)
	for ; i+8 <= len(line); i += 8 {
		x := binary.LittleEndian.Uint64(line[i:])
		low := x & lo7
		if m := (low + geA) &^ (low + gtZ) &^ x & hi1; m != 0 {
			return i + bits.TrailingZeros64(m)/8
		}
	}
	for ; i < len(line); i++ {
		if 'A' <= line[i] && line[i] <= 'Z' {
			return i
		}
	}
	return -1
}

// RegexDecoder decodes text traces through an ordered rule list:
// the first matching rule supplies the message (first-match wins, like
// go-rst's per-state transition lists). Non-blank lines matching no rule
// decode to skip events; blank lines are skipped silently. A message that
// is not valid UTF-8 is a DecodeError.
type RegexDecoder struct {
	lr     lineReader
	rules  []Rule
	intern interner
	buf    []byte
	span   [4]int // submatch indices of a hand-matched rule
}

// NewRegexDecoder returns a regex decoder over r. A nil or empty rule
// list selects DefaultRules.
func NewRegexDecoder(r io.Reader, rules []Rule) *RegexDecoder {
	if len(rules) == 0 {
		rules = DefaultRules()
	}
	return &RegexDecoder{lr: newLineReader(r), rules: rules, intern: make(interner)}
}

// Close returns the decoder's line buffer to the pool, as
// JSONLDecoder.Close does.
func (d *RegexDecoder) Close() error { return d.lr.Close() }

// Next implements Decoder.
func (d *RegexDecoder) Next() (Event, error) {
	for {
		b, err := d.lr.next()
		if err != nil {
			return Event{}, err
		}
		if len(bytes.TrimSpace(b)) == 0 {
			continue
		}
		for i := range d.rules {
			rule := &d.rules[i]
			var m []int
			if rule.match != nil {
				start, end, ok := rule.match(b)
				if !ok {
					continue
				}
				d.span = [4]int{start, end, start, end}
				m = d.span[:]
			} else if m = rule.Pattern.FindSubmatchIndex(b); m == nil {
				continue
			}
			d.buf = d.buf[:0]
			switch {
			case rule.Message != "":
				d.buf = rule.Pattern.Expand(d.buf, []byte(rule.Message), b, m)
			case len(m) >= 4 && m[2] >= 0:
				d.buf = append(d.buf, b[m[2]:m[3]]...)
			default:
				d.buf = append(d.buf, b[m[0]:m[1]]...)
			}
			if len(d.buf) == 0 {
				return Event{}, &DecodeError{Line: d.lr.line,
					Reason: fmt.Sprintf("match rule %q produced an empty message", rule.Pattern)}
			}
			msg, sym, ok := d.intern.get(d.buf)
			if !ok {
				return Event{}, &DecodeError{Line: d.lr.line, Reason: notUTF8}
			}
			return Event{Line: d.lr.line, Msg: msg, sym: sym}, nil
		}
		return Event{Line: d.lr.line, Skip: true}, nil
	}
}
