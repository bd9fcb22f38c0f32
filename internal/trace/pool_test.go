package trace

import (
	"errors"
	"io"
	"strings"
	"testing"
)

// TestDecoderCloseReturnsLineBuffer: a line longer than the pooled
// buffer (but under maxLineBytes) decodes, Close hands the buffer back
// and makes the decoder read no more, and the pool never gives out the
// larger buffer the scanner grew for that line.
func TestDecoderCloseReturnsLineBuffer(t *testing.T) {
	long := `{"msg":"VOTE","pad":"` + strings.Repeat("x", 3*lineBufSize) + `"}`
	in := "\"UPDATE\"\n" + long + "\n\"COMMIT\"\n"
	for _, dec := range []DecodeCloser{
		NewJSONLDecoder(strings.NewReader(in)),
		NewRegexDecoder(strings.NewReader(in), []Rule{mustRule(t, `"(?:msg":")?([A-Z]+)"`)}),
	} {
		events, err := drain(t, dec)
		if !errors.Is(err, io.EOF) {
			t.Fatalf("%T: %v", dec, err)
		}
		if len(events) != 3 || events[1].Line != 2 || events[1].Msg != "VOTE" || events[2].Msg != "COMMIT" {
			t.Fatalf("%T: events = %+v", dec, events)
		}
		if err := dec.Close(); err != nil {
			t.Fatal(err)
		}
		if err := dec.Close(); err != nil {
			t.Fatalf("%T: second Close: %v", dec, err)
		}
		if _, err := dec.Next(); !errors.Is(err, errClosed) {
			t.Errorf("%T: Next after Close = %v, want errClosed", dec, err)
		}
		buf := lineBufs.Get().(*[]byte)
		if len(*buf) != lineBufSize || cap(*buf) != lineBufSize {
			t.Errorf("%T: the pool gave out a %d/%d-byte buffer, want %d", dec, len(*buf), cap(*buf), lineBufSize)
		}
		lineBufs.Put(buf)
	}
}
