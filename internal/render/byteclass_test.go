package render

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"

	"asagen/internal/core"
)

// The gates and escapers read each model-controlled byte once, through a
// table of byte classes, and hand the rare text that needs more to the
// code they replaced. These tests hold them to that code — kept here as
// the reference — and to encoding/xml.

// refCommentText is CommentText as four scans of the text, the form the
// one-pass gate must agree with in verdict and in wording.
func refCommentText(text string) error {
	switch {
	case strings.ContainsAny(text, "\n\r\f"):
		return fmt.Errorf("comment text %q contains a line break", text)
	case strings.IndexByte(text, 0) >= 0 || strings.Contains(text, "\ufeff") || !utf8.ValidString(text):
		return fmt.Errorf("comment text %q contains NUL, a byte order mark or invalid UTF-8", text)
	}
	if rest, ok := strings.CutPrefix(strings.TrimSpace(text), "+build"); ok {
		if r, _ := utf8.DecodeRuneInString(rest); rest == "" || unicode.IsSpace(r) {
			return fmt.Errorf("comment text %q would be a +build line", text)
		}
	}
	return nil
}

// refEscapeDot is escapeDot as three replacements, with no shortcut.
func refEscapeDot(s string) string {
	s = strings.ReplaceAll(s, "\\", "\\\\")
	s = strings.ReplaceAll(s, "\\\\n", "\\n")
	return strings.ReplaceAll(s, "\"", "\\\"")
}

// byteTexts is every byte value alone and inside ASCII text, then the
// texts the slow paths exist for: byte order marks, invalid UTF-8, +build
// lines and near misses, and a NUL before a line break.
func byteTexts() []string {
	var texts []string
	for c := 0; c < 256; c++ {
		b := string([]byte{byte(c)})
		texts = append(texts, b, "ab"+b+"cd", b+"+build", "+build"+b)
	}
	return append(texts,
		"\ufeff", "\ufeffbom", "a\ufeff", "\xef\xbb", "\xef\xbb\xbf\xbf",
		"\xff", "bad\xffutf8", "\xc3", "\xc3(", "\xed\xa0\x80", "é", "日本語", "\u00a0", "\u2028",
		"+build", "+build x", " +build x", "\t+build", "+buildx", "+build x", "+build ", "// +build x", "go:build x",
		"\x00\n", "a\x00b\nc", "\x00\r", "\xff\n", "\ufeff\f", "\n\x00",
		`\`, `\n`, `\\n`, `"`, `a\"b`, `\\`, `"q"\n`,
	)
}

// TestCommentTextMatchesFourScans: the one-pass gate gives the verdict and
// the error text of the four scans it replaced, including which fault is
// named when a text has several.
func TestCommentTextMatchesFourScans(t *testing.T) {
	for _, text := range byteTexts() {
		got, want := fmt.Sprint(CommentText(text)), fmt.Sprint(refCommentText(text))
		if got != want {
			t.Errorf("CommentText(%q) = %s, want %s", text, got, want)
		}
	}
}

// TestEscapeDotMatchesReplaceAll: the shortcut for text with nothing to
// escape changes no output.
func TestEscapeDotMatchesReplaceAll(t *testing.T) {
	for _, text := range byteTexts() {
		if got, want := escapeDot(text), refEscapeDot(text); got != want {
			t.Errorf("escapeDot(%q) = %q, want %q", text, got, want)
		}
	}
}

// TestXMLTextMatchesEscapeText: every byte value, alone and inside ASCII
// text, is written as xml.EscapeText writes it.
func TestXMLTextMatchesEscapeText(t *testing.T) {
	for _, text := range byteTexts() {
		var x xmlWriter
		got := x.text([]byte("<"), text)[1:]
		var want bytes.Buffer
		if err := xml.EscapeText(&want, []byte(text)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("text(%q) = %q, want %q", text, got, want.Bytes())
		}
	}
}

// TestAppendQuoteMatchesStrconv: the shortcut for printable ASCII quotes
// as strconv.Quote does, every byte value alone and inside ASCII text.
func TestAppendQuoteMatchesStrconv(t *testing.T) {
	for _, text := range byteTexts() {
		if got, want := string(appendQuote(nil, text)), strconv.Quote(text); got != want {
			t.Errorf("appendQuote(%q) = %s, want %s", text, got, want)
		}
	}
}

// FuzzXMLMatchesMarshalIndent: whatever text a machine carries in its
// model name, state names, annotations, messages and actions, the xml
// format writes what xml.MarshalIndent makes of its Document.
//
//	go test ./internal/render -run='^$' -fuzz=FuzzXMLMatchesMarshalIndent -fuzztime=1m
func FuzzXMLMatchesMarshalIndent(f *testing.F) {
	f.Add("m", "a", "b", "a note", "GO", "STOP", "->x")
	f.Add(`<m a="1" b='2'>&amp;`, `"q"`, "t\tab", `<a href="x">&'`, "<GO>", "A&B", `->"w"&`)
	f.Add("bad\xffutf8", " ", "\r\n", "\x00", "", "", "")
	f.Add("\ufeff", "é", "日本語/ok", "]]>", "GO", "GO", "\x7f")
	f.Fuzz(func(t *testing.T, model, state1, state2, note, msg1, msg2, act string) {
		a := &core.State{Name: state1, Annotations: []string{note, ""}, Transitions: map[string]*core.Transition{}}
		b := &core.State{Name: state2, Annotations: []string{act}, Transitions: map[string]*core.Transition{}, Final: true}
		a.Transitions[msg1] = &core.Transition{Message: msg1, Target: b, Actions: []string{act, "", note}}
		b.Transitions[msg2] = &core.Transition{Message: msg2, Target: a}
		m := &core.StateMachine{ModelName: model, Parameter: len(note), Messages: []string{msg1, msg2},
			States: []*core.State{a, b}, Start: a, Finish: b}
		data, err := renderXML(m)
		if err != nil {
			t.Fatal(err)
		}
		if want := marshalIndent(t, m); !bytes.Equal(data, want) {
			t.Fatalf("differs from xml.MarshalIndent:\n%s", firstDifference(data, want))
		}
	})
}
