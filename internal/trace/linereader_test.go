package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
)

// TestLineLimitIgnoresTerminator: the limit counts a line without its
// terminator, on both decoders. A line of maxLineBytes−1 or maxLineBytes
// bytes decodes whether it ends in \n, in \r\n or at the end of the input;
// one byte more is a DecodeError naming its line, and the decoder reads
// no further.
func TestLineLimitIgnoresTerminator(t *testing.T) {
	decoders := []struct {
		name   string
		decode func(io.Reader) DecodeCloser
		line   func(n int) string // a line of n bytes that decodes to VOTE
	}{
		{"jsonl", func(r io.Reader) DecodeCloser { return NewJSONLDecoder(r) },
			func(n int) string {
				const head, tail = `{"msg":"VOTE","pad":"`, `"}`
				return head + strings.Repeat("x", n-len(head)-len(tail)) + tail
			}},
		{"regex", func(r io.Reader) DecodeCloser { return NewRegexDecoder(r, nil) },
			func(n int) string { return "VOTE " + strings.Repeat("x", n-len("VOTE ")) }},
	}
	for _, d := range decoders {
		for _, n := range []int{maxLineBytes - 1, maxLineBytes, maxLineBytes + 1} {
			for _, term := range []string{"\n", "\r\n", ""} {
				t.Run(fmt.Sprintf("%s/%d/%q", d.name, n-maxLineBytes, term), func(t *testing.T) {
					in := "\"UPDATE\"\n" + d.line(n) + term
					if term != "" {
						in += "\"COMMIT\"\n"
					}
					if d.name == "regex" {
						in = strings.ReplaceAll(in, `"`, "")
					}
					dec := d.decode(strings.NewReader(in))
					defer dec.Close()
					events, err := drain(t, dec)
					if n > maxLineBytes {
						var de *DecodeError
						if !errors.As(err, &de) || de.Line != 2 || de.Reason != fmt.Sprintf("line exceeds %d bytes", maxLineBytes) {
							t.Fatalf("error = %v, want line 2 to exceed %d bytes", err, maxLineBytes)
						}
						if len(events) != 1 {
							t.Fatalf("events = %+v before the long line, want UPDATE", events)
						}
						if _, again := dec.Next(); !errors.Is(again, err) {
							t.Fatalf("Next after the long line = %v, want the same error", again)
						}
						return
					}
					if !errors.Is(err, io.EOF) {
						t.Fatalf("error = %v, want io.EOF", err)
					}
					want := []string{"UPDATE", "VOTE", "COMMIT"}
					if term == "" {
						want = want[:2]
					}
					if len(events) != len(want) {
						t.Fatalf("%d events, want %v", len(events), want)
					}
					for i, ev := range events {
						if ev.Line != i+1 || ev.Msg != want[i] {
							t.Fatalf("event %d = line %d %q, want line %d %q", i, ev.Line, ev.Msg, i+1, want[i])
						}
					}
				})
			}
		}
	}
}

// scannerLines is the oracle: the lines bufio.Scanner with ScanLines
// reads from data, each copied, numbered from 1 by position.
func scannerLines(t *testing.T, data []byte) []string {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, maxLineBytes+len("\r\n"))
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scanner: %v", err)
	}
	return lines
}

// chunked wraps data in one of the testing/iotest readers that split a
// read, chosen by how.
func chunked(data []byte, how byte) io.Reader {
	r := io.Reader(bytes.NewReader(data))
	switch how % 5 {
	case 1:
		r = iotest.OneByteReader(r)
	case 2:
		r = iotest.HalfReader(r)
	case 3:
		r = iotest.DataErrReader(r)
	case 4:
		r = iotest.DataErrReader(iotest.OneByteReader(r))
	}
	return r
}

// readLines reads data through a lineReader whose buffer starts at size
// bytes, so short inputs also make it move and grow its buffer, and
// returns each line copied; the line number must count them.
func readLines(t *testing.T, r io.Reader, size int) []string {
	t.Helper()
	lr := lineReader{r: r, buf: make([]byte, size)}
	var lines []string
	for {
		line, err := lr.next()
		if errors.Is(err, io.EOF) {
			return lines
		}
		if err != nil {
			t.Fatalf("line %d: %v", lr.line+1, err)
		}
		lines = append(lines, string(line))
		if lr.line != len(lines) {
			t.Fatalf("line number %d after %d lines", lr.line, len(lines))
		}
	}
}

// FuzzLineReaderAgreesWithScanner: on inputs below the limit, the
// decoders' line splitter reads the lines bufio.Scanner with ScanLines
// reads, in order and numbered alike, however the input arrives in
// chunks and wherever its buffer starts.
func FuzzLineReaderAgreesWithScanner(f *testing.F) {
	for _, seed := range []string{
		"", "\n", "\n\n", "a", "a\n", "a\nb", "a\r\nb\r\n", "\r", "\r\n", "a\r", "a\r\r\n",
		"\"UPDATE\"\n{\"msg\":\"VOTE\"}\r\n\n  \nCOMMIT", "x\ry\nz\r", strings.Repeat("long line ", 40) + "\nend",
	} {
		for how := byte(0); how < 5; how++ {
			f.Add([]byte(seed), how, uint8(3))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, how byte, size uint8) {
		want := scannerLines(t, data)
		got := readLines(t, chunked(data, how), 1+int(size)%64)
		if !slices.Equal(got, want) {
			t.Fatalf("lines of %q read as %q, bufio.Scanner reads %q", data, got, want)
		}
		if pooled := readLines(t, chunked(data, how), lineBufSize); len(pooled) != len(want) {
			t.Fatalf("%d lines from a pooled-size buffer, want %d", len(pooled), len(want))
		}
	})
}

// TestLineReaderReadErrors: as with bufio.Scanner, a read error hands out
// the line read before it, then fails, naming the line it was reading; a
// reader that makes no progress fails with io.ErrNoProgress.
func TestLineReaderReadErrors(t *testing.T) {
	boom := errors.New("boom")
	lr := lineReader{r: io.MultiReader(strings.NewReader("a\nb"), iotest.ErrReader(boom)), buf: make([]byte, 8)}
	for _, want := range []string{"a", "b"} {
		if line, err := lr.next(); err != nil || string(line) != want {
			t.Fatalf("next = %q, %v, want %q", line, err, want)
		}
	}
	if _, err := lr.next(); !errors.Is(err, boom) || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("next after the failed read = %v, want boom at line 3", err)
	}

	lr = lineReader{r: stuckReader{}, buf: make([]byte, 8)}
	if _, err := lr.next(); !errors.Is(err, io.ErrNoProgress) {
		t.Fatalf("next on a stuck reader = %v, want io.ErrNoProgress", err)
	}
}

// stuckReader reads nothing and reports nothing.
type stuckReader struct{}

func (stuckReader) Read([]byte) (int, error) { return 0, nil }
