package trace

import (
	"context"
	"errors"
	"fmt"
	"io"

	"asagen/internal/core"
)

// Trace format names accepted by ParseCheck, the check CLI and the check
// API route.
const (
	FormatJSONL = "jsonl"
	FormatRegex = "regex"
)

// ErrNegativeTolerance matches a negative tolerance's error: the check
// route answers it as a bad parameter, not as a bad trace.
var ErrNegativeTolerance = errors.New("trace: negative tolerance")

// Check is a check request that passed ParseCheck: its format resolved,
// its patterns compiled into Rules (nil selects DefaultRules) and its
// tolerance non-negative. It is the one carrier of a run's tolerance and
// of KeepGoing, which reads the whole trace past a violation.
type Check struct {
	Format    string // FormatJSONL or FormatRegex
	Rules     []Rule
	Tolerance int
	KeepGoing bool
}

// ParseCheck is the one place a check's trace options are decided, for
// the SDK and the check route alike, before any machine is generated. An
// empty format is jsonl, or regex when there are patterns; patterns with
// jsonl, an unknown format, a pattern that does not compile and a
// negative tolerance are errors.
func ParseCheck(format string, patterns []string, tolerance int) (Check, error) {
	if tolerance < 0 {
		return Check{}, fmt.Errorf("%w %d", ErrNegativeTolerance, tolerance)
	}
	c := Check{Format: format, Tolerance: tolerance}
	for _, p := range patterns {
		rule, err := ParseRule(p)
		if err != nil {
			return Check{}, err
		}
		c.Rules = append(c.Rules, rule)
	}
	switch {
	case format == "" && c.Rules != nil:
		c.Format = FormatRegex
	case format == "":
		c.Format = FormatJSONL
	case format == FormatJSONL && c.Rules != nil:
		return Check{}, errors.New("trace: match patterns decode the regex format, not jsonl")
	case format != FormatJSONL && format != FormatRegex:
		return Check{}, fmt.Errorf("trace: unknown trace format %q (known: %s, %s)",
			format, FormatJSONL, FormatRegex)
	}
	return c, nil
}

// Decoder returns the decoder for the check's format over r. Closing it
// returns its line buffer to the pool.
func (c Check) Decoder(r io.Reader) DecodeCloser {
	if c.Format == FormatRegex {
		return NewRegexDecoder(r, c.Rules)
	}
	return NewJSONLDecoder(r)
}

// Run checks the trace read from r against machine, every verdict to obs,
// and returns what Monitor.Run returns.
func (c Check) Run(ctx context.Context, machine *core.StateMachine, r io.Reader, obs Observer) (Report, error) {
	m, err := newMonitor(machine, c.Tolerance, c.KeepGoing, obs)
	if err != nil {
		return Report{}, fmt.Errorf("trace: check: %w", err)
	}
	dec := c.Decoder(r)
	defer dec.Close()
	return m.Run(ctx, dec)
}
