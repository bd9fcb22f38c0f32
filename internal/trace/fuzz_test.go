package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"asagen/internal/core"
)

// The trace front ends read input nobody here chose — request bodies and
// log files — so each gets a fuzz target. Run one locally with:
//
//	go test ./internal/trace -run='^$' -fuzz=FuzzDefaultRuleMatch -fuzztime=30s

// checkDefaultMatch holds matchDefault to its specification on one line.
func checkDefaultMatch(t *testing.T, line []byte) {
	t.Helper()
	want := defaultPattern.FindSubmatchIndex(line)
	start, end, ok := matchDefault(line)
	switch {
	case !ok && want == nil:
	case !ok || want == nil:
		t.Fatalf("matchDefault(%q) ok = %v, regexp = %v", line, ok, want)
	case !reflect.DeepEqual(want, []int{start, end, start, end}):
		t.Fatalf("matchDefault(%q) = [%d, %d), regexp = %v", line, start, end, want)
	}
}

// FuzzDefaultRuleMatch: the default rule's hand-written matcher agrees
// with the compiled pattern it replaces on arbitrary bytes, invalid
// UTF-8 included (\b is ASCII-only, so those are non-word bytes).
func FuzzDefaultRuleMatch(f *testing.F) {
	for _, seed := range []string{
		"2026-08-07T12:00:01Z node3 recv UPDATE seq=1",
		"# operator note: nothing interesting here",
		"12:00:02 node3 recv STORE_ACK from n1",
		"", "A", "AB", "A_", "_AB", "9AB AB9", "ABc DEF", "aAB", "xAB_ CD",
		"É AB", "ÉAB", "AB\xff", "\xffAB CD", "AB\xc3", "A\x80B CD",
		// Tokens at and around the matcher's eight-byte words, and one
		// after a rune whose lead byte is 'E' | 0x80 (Ł is C5 81).
		"abcdef AB", "abcdefg AB", "abcdefgh AB", "0123456789abcde AB",
		"abcdeŁAB CD", "\xc1\xc1\xc1\xc1\xc1\xc1\xc1\xdaAB",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, line []byte) { checkDefaultMatch(t, line) })
}

// TestDefaultRuleMatchesPattern sweeps random lines over the bytes the
// pattern distinguishes on every ordinary test run: the edges of each
// word range and the bytes next to them, and the high-bit twins of A and
// Z, at up to 40 bytes, five of the matcher's words.
func TestDefaultRuleMatchesPattern(t *testing.T) {
	const alphabet = "AZaz09__  -@[`{\xc1\xda\xc3\xa9\xff"
	rng := rand.New(rand.NewSource(1))
	line := make([]byte, 0, 41)
	for i := 0; i < 100_000; i++ {
		line = line[:rng.Intn(cap(line))]
		for j := range line {
			line[j] = alphabet[rng.Intn(len(alphabet))]
		}
		checkDefaultMatch(t, line)
	}
}

// drain decodes a whole input, asserting what every decoder owes its
// caller: line numbers strictly increase, an event is a message or a
// skip, never both or neither, and a message is valid UTF-8.
func drain(t *testing.T, dec Decoder) ([]Event, error) {
	t.Helper()
	var events []Event
	for last := 0; ; {
		ev, err := dec.Next()
		if err != nil {
			return events, err
		}
		if ev.Line <= last {
			t.Fatalf("line %d follows line %d", ev.Line, last)
		}
		if ev.Skip == (ev.Msg != "") {
			t.Fatalf("line %d: event %+v is not exactly one of message and skip", ev.Line, ev)
		}
		if !utf8.ValidString(ev.Msg) {
			t.Fatalf("line %d: message %q is not valid UTF-8", ev.Line, ev.Msg)
		}
		last = ev.Line
		events = append(events, ev)
	}
}

// msgMembers counts the members of a JSON object that encoding/json
// would store into jsonlEvent.Msg (it folds case and keeps the last).
func msgMembers(b []byte) int {
	dec := json.NewDecoder(bytes.NewReader(b))
	if _, err := dec.Token(); err != nil {
		return 0
	}
	n := 0
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return 0
		}
		if k, ok := key.(string); ok && strings.EqualFold(k, "msg") {
			n++
		}
		var value json.RawMessage
		if dec.Decode(&value) != nil {
			return 0
		}
	}
	return n
}

// FuzzJSONLDecoder: arbitrary bytes never panic the decoder, every
// message it decodes is valid UTF-8 (drain), and the fast path is the
// slow path: on a valid UTF-8 line encoding/json accepts, fastMsg
// extracts the message encoding/json decodes. The fast path takes the
// first msg member and reads nothing after it. That is a decision, and
// the API document states it: a trace line is not held to the strict
// reading of JSON the way a posted spec is. So an invalid tail, a second
// msg member (encoding/json keeps the last) and invalid UTF-8 after the
// message are accepted there and outside the property.
func FuzzJSONLDecoder(f *testing.F) {
	for _, seed := range []string{
		"\"VOTE\"\n{\"msg\":\"COMMIT\"}\n{\"msg\":\"UPDATE\",\"seq\":12,\"node\":\"n3\"}\n\n{\"seq\": 1, \"msg\": \"FREE\"}\n",
		"{\"msg\": \n", "{\"seq\":1}\n", "VOTE\n", "\"\"\n", "{\"msg\":\"\"}\n",
		`{"msg":"a\"b"}`, `{"msg":"VOTE" }`, `{"msg":"VOTE","msg":"FREE"}`, `{"msg":"VOTE",`,
		"{\"msg\":\"\xff\"}", "\"\xff\"\n", "{\"msg\":\"VOTE\",\"x\":\"\xff\"}\n", "{\"msg\":\"\\u00e9\xff\"}\n",
		"\r\n \"VOTE\" \r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, err := drain(t, NewJSONLDecoder(bytes.NewReader(data)))
		var de *DecodeError
		if !errors.Is(err, io.EOF) && !errors.As(err, &de) {
			t.Fatalf("decoding from memory failed with %v, want io.EOF or a DecodeError", err)
		}
		for _, line := range bytes.Split(data, []byte("\n")) {
			line = bytes.TrimSpace(line)
			msg, fast := fastMsg(line)
			var ev jsonlEvent
			if !fast || !utf8.Valid(line) || json.Unmarshal(line, &ev) != nil || msgMembers(line) != 1 {
				continue
			}
			if ev.Msg != string(msg) {
				t.Fatalf("fastMsg(%q) = %q, encoding/json decodes %q", line, msg, ev.Msg)
			}
		}
	})
}

// FuzzRegexDecoder: a fuzzed user rule ahead of the default rule, over
// fuzzed text. The decoder never panics, and it decodes exactly what the
// same rule list decodes with regexp as the only engine — first-match
// order and the hand-written matcher in place.
func FuzzRegexDecoder(f *testing.F) {
	f.Add(`recv (\w+)=>RECV_$1`, []byte("node recv vote\nnode sent ack\n"))
	f.Add(`recv ([A-Z_]+)`, []byte("ignored recv FREE\n12:02 recv UPDATE\nplain noise line\n"))
	f.Add(`a=>b=>$0`, []byte("2026-08-07T12:00:01Z node3 recv UPDATE seq=1\n# note\n\n12:00:02 recv STORE_ACK\n"))
	f.Add(`(?P<m>[a-z]+)=>${m}`, []byte("AB\xffCD ef\n\xc3 GH\n"))
	f.Add(`x*=>$1`, []byte("UPDATE\n"))
	f.Add(`recv (\S+)`, []byte("recv VOTE\nrecv \xff\n"))
	f.Fuzz(func(t *testing.T, rule string, data []byte) {
		user, err := ParseRule(rule)
		if err != nil {
			return // rejected before any trace is read
		}
		got, gotErr := drain(t, NewRegexDecoder(bytes.NewReader(data), []Rule{user, DefaultRules()[0]}))
		want, wantErr := drain(t, NewRegexDecoder(bytes.NewReader(data), []Rule{user, {Pattern: defaultPattern}}))
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotErr, wantErr) {
			t.Fatalf("rule %q over %q:\n got %+v, %v\nwant %+v, %v", rule, data, got, gotErr, want, wantErr)
		}
	})
}

// fuzzTrace turns each byte of data into one JSON Lines line: a message
// of vocab as a fast-path object, a bare string or an object whose
// message is escaped (the last two carry no decoder symbol), a blank
// line, or, for 0xff, a malformed line that ends the run.
func fuzzTrace(data []byte, vocab []string) string {
	var b strings.Builder
	for _, c := range data {
		msg := vocab[int(c)%len(vocab)]
		switch {
		case c == 0xff:
			b.WriteString(`{"msg":`)
		case c >= 0xc0:
		case c >= 0x80:
			b.WriteString(`{"msg":"\u00` + strconv.FormatInt(int64(msg[0]), 16) + msg[1:] + `"}`)
		case c >= 0x40:
			b.WriteString(`"` + msg + `"`)
		default:
			b.WriteString(`{"msg":"` + msg + `","seq":` + strconv.Itoa(int(c)) + `}`)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FuzzEncoderAgreesWithAppendJSON: a fuzzed JSON Lines trace over the
// vocabularies of commit r=4 and chord, and a message neither has, is
// checked against both machines at a fuzzed tolerance, reading past
// violations or not, with one Encoder shared by both checks as a stream's
// is by all its lines. Every verdict the Encoder writes is
// Verdict.AppendJSON's, though the memo's table positions are filled by
// one machine's transitions and then read for the other's.
func FuzzEncoderAgreesWithAppendJSON(f *testing.F) {
	commit, chord := registryMachine(f, "commit"), registryMachine(f, "chord")
	vocab := slices.Concat(commit.Messages, chord.Messages, []string{"NOPE"})
	slices.Sort(vocab)
	vocab = slices.Compact(vocab)
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(0), false)
	f.Add([]byte("\x00\x41\x82\xc3\x04\x45\x86\x07\x48\x89\x0a\x4b"), uint8(3), true)
	f.Add([]byte("\x05\x05\x46\x87\x08\x08\xff\x09"), uint8(1), true)
	f.Fuzz(func(t *testing.T, data []byte, tolerance uint8, keepGoing bool) {
		trace := fuzzTrace(data, vocab)
		var enc Encoder
		var got, want []byte
		obs := ObserverFunc(func(v Verdict) bool {
			got = enc.Append(got[:0], &v)
			want = v.AppendJSON(want[:0])
			if string(got) != string(want) {
				t.Fatalf("Encoder.Append = %s\nAppendJSON     = %s", got, want)
			}
			return true
		})
		chk := Check{Format: FormatJSONL, Tolerance: int(tolerance % 8), KeepGoing: keepGoing}
		for _, m := range []*core.StateMachine{commit, chord} {
			_, err := chk.Run(context.Background(), m, strings.NewReader(trace), obs)
			var de *DecodeError
			if err != nil && !errors.As(err, &de) {
				t.Fatalf("%s: Run = %v, want nil or a DecodeError", m.ModelName, err)
			}
		}
	})
}
