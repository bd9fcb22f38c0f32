package trace

import (
	"errors"
	"strings"
	"testing"
)

// TestParseCheck holds the check-format policy both the SDK and the check
// route defer to: the empty format is jsonl unless patterns make it regex,
// patterns with jsonl and unknown formats are refused, and so are a bad
// pattern and a negative tolerance (the latter as ErrNegativeTolerance);
// keep-going is carried as given.
func TestParseCheck(t *testing.T) {
	for _, tc := range []struct {
		name      string
		format    string
		patterns  []string
		tolerance int
		keepGoing bool
		want      string // resolved format; empty when an error is wanted
		err       string // substring of the error
	}{
		{name: "empty", format: "", want: FormatJSONL},
		{name: "jsonl", format: FormatJSONL, tolerance: 2, want: FormatJSONL},
		{name: "regex", format: FormatRegex, want: FormatRegex},
		{name: "keep going", tolerance: 1, keepGoing: true, want: FormatJSONL},
		{name: "unknown", format: "xml", err: `unknown trace format "xml"`},
		{name: "patterns imply regex", patterns: []string{`recv (\S+)`}, want: FormatRegex},
		{name: "patterns with regex", format: FormatRegex, patterns: []string{`recv (\S+)`, `(\w+)=>$1`}, want: FormatRegex},
		{name: "patterns with jsonl", format: FormatJSONL, patterns: []string{`recv (\S+)`}, err: "not jsonl"},
		{name: "bad pattern", patterns: []string{"([broken"}, err: "bad match rule"},
		{name: "negative tolerance", tolerance: -1, err: "negative tolerance -1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := ParseCheck(tc.format, tc.patterns, tc.tolerance, tc.keepGoing)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("error = %v, want one containing %q", err, tc.err)
				}
				if got, want := errors.Is(err, ErrNegativeTolerance), tc.tolerance < 0; got != want {
					t.Errorf("errors.Is(%v, ErrNegativeTolerance) = %t, want %t", err, got, want)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if c.Format != tc.want || len(c.Rules) != len(tc.patterns) || c.Tolerance != tc.tolerance || c.KeepGoing != tc.keepGoing {
				t.Errorf("check = %+v, want format %s, %d rules, tolerance %d, keep-going %t",
					c, tc.want, len(tc.patterns), tc.tolerance, tc.keepGoing)
			}
			dec := c.Decoder(strings.NewReader(""))
			defer dec.Close()
			if _, regex := dec.(*RegexDecoder); regex != (tc.want == FormatRegex) {
				t.Errorf("format %s decodes with a %T", c.Format, dec)
			}
		})
	}
}
