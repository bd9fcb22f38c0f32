package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"regexp"
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
}

// Decoder produces the event stream of one trace. Next returns io.EOF at
// the end of the input and a *DecodeError for undecodable lines; any
// other error is an I/O failure of the underlying reader.
type Decoder interface {
	Next() (Event, error)
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

// maxLineBytes bounds a single trace line. The monitor's memory use is
// bounded by this, never by the trace length.
const maxLineBytes = 1 << 20

// lineReader is the scanning core shared by the decoders: it hands out
// one line at a time from a reused buffer, tracking the 1-based line
// number. Returned slices are valid only until the next call.
type lineReader struct {
	sc   *bufio.Scanner
	line int
}

func newLineReader(r io.Reader) *lineReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxLineBytes)
	return &lineReader{sc: sc}
}

// next returns the next input line without its terminator. io.EOF marks
// the end of input; a too-long line is a *DecodeError.
func (lr *lineReader) next() ([]byte, error) {
	if !lr.sc.Scan() {
		if err := lr.sc.Err(); err != nil {
			if err == bufio.ErrTooLong {
				return nil, &DecodeError{Line: lr.line + 1,
					Reason: fmt.Sprintf("line exceeds %d bytes", maxLineBytes)}
			}
			return nil, fmt.Errorf("trace: read line %d: %w", lr.line+1, err)
		}
		return nil, io.EOF
	}
	lr.line++
	return lr.sc.Bytes(), nil
}

// FlushBeforeRead returns a reader over r that calls flush immediately
// before every Read of r, and fails the Read with flush's error. Wrapped
// around a decoder's input it flushes on input idleness: the decoders'
// scanner only reads when its buffer holds no complete line, so "about
// to Read" means every line that has arrived has been judged and nothing
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
// allocation. The table is bounded; an adversarial stream of distinct
// messages falls back to plain allocation rather than growing memory.
//
// It is also where a message is held to valid UTF-8: verdicts carry the
// message into text/event-stream and JSON output, which must be UTF-8.
// Only a miss is checked, so a recurring message pays nothing.
type interner map[string]string

const maxInterned = 1024

// notUTF8 is the reason every decoder gives for a message that is not
// valid UTF-8.
const notUTF8 = "message is not valid UTF-8"

// get returns b as a string; ok is false when b is not valid UTF-8.
func (in interner) get(b []byte) (s string, ok bool) {
	// The string(b) conversions in the map index expressions do not
	// allocate (compiler-recognised pattern).
	if s, ok := in[string(b)]; ok {
		return s, true
	}
	if !utf8.Valid(b) {
		return "", false
	}
	s = string(b)
	if len(in) < maxInterned {
		in[s] = s
	}
	return s, true
}

// JSONLDecoder decodes JSON Lines traces: one event per line, either a
// bare JSON string naming the message ("VOTE") or an object with a
// "msg" member ({"msg":"VOTE", ...}; other members are ignored, so
// richer event records pass through untouched). Blank lines are
// skipped silently. A message that is not valid UTF-8 is a DecodeError;
// so is any line that is not, except that a line starting {"msg":"...",
// with no escape in the message, is read no further than that member.
type JSONLDecoder struct {
	lr     *lineReader
	intern interner
}

// NewJSONLDecoder returns a JSON Lines decoder over r.
func NewJSONLDecoder(r io.Reader) *JSONLDecoder {
	return &JSONLDecoder{lr: newLineReader(r), intern: make(interner)}
}

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
				msg, ok := d.intern.get(raw)
				if !ok {
					return Event{}, &DecodeError{Line: d.lr.line, Reason: notUTF8}
				}
				return Event{Line: d.lr.line, Msg: msg}, nil
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
func matchDefault(line []byte) (start, end int, ok bool) {
	for i := 0; i < len(line); {
		if !isWordByte(line[i]) {
			i++
			continue
		}
		start, ok = i, 'A' <= line[i] && line[i] <= 'Z'
		for ; i < len(line) && isWordByte(line[i]); i++ {
			if 'a' <= line[i] && line[i] <= 'z' {
				ok = false
			}
		}
		if ok && i-start >= 2 {
			return start, i, true
		}
	}
	return 0, 0, false
}

// RegexDecoder decodes text traces through an ordered rule list:
// the first matching rule supplies the message (first-match wins, like
// go-rst's per-state transition lists). Non-blank lines matching no rule
// decode to skip events; blank lines are skipped silently. A message that
// is not valid UTF-8 is a DecodeError.
type RegexDecoder struct {
	lr     *lineReader
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
			msg, ok := d.intern.get(d.buf)
			if !ok {
				return Event{}, &DecodeError{Line: d.lr.line, Reason: notUTF8}
			}
			return Event{Line: d.lr.line, Msg: msg}, nil
		}
		return Event{Line: d.lr.line, Skip: true}, nil
	}
}

// NewDecoder returns the decoder for a named trace format over r:
// "jsonl" (JSON Lines, the default for an empty name) or "regex" (text
// via transition patterns; rules may be nil for the defaults). Unknown
// formats return an error naming the known ones.
func NewDecoder(format string, r io.Reader, rules []Rule) (Decoder, error) {
	switch format {
	case "", FormatJSONL:
		return NewJSONLDecoder(r), nil
	case FormatRegex:
		return NewRegexDecoder(r, rules), nil
	default:
		return nil, fmt.Errorf("trace: unknown trace format %q (known: %s, %s)",
			format, FormatJSONL, FormatRegex)
	}
}

// Trace format names accepted by NewDecoder, the check CLI and the
// check API route.
const (
	FormatJSONL = "jsonl"
	FormatRegex = "regex"
)
