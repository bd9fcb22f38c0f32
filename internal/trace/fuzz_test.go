package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
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
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, line []byte) { checkDefaultMatch(t, line) })
}

// TestDefaultRuleMatchesPattern sweeps random lines over the bytes the
// pattern distinguishes on every ordinary test run.
func TestDefaultRuleMatchesPattern(t *testing.T) {
	const alphabet = "AZaz09__  -\xc3\xa9\xff"
	rng := rand.New(rand.NewSource(1))
	line := make([]byte, 0, 16)
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
