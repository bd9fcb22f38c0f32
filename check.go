package asagen

import (
	"context"
	"errors"
	"fmt"
	"io"
	"iter"

	"asagen/internal/trace"
)

// Trace formats accepted by Check (see WithTraceFormat).
const (
	// TraceFormatJSONL decodes JSON Lines traces: one event per line,
	// either a bare JSON string naming the message ("VOTE") or an object
	// with a "msg" member; other members are ignored.
	TraceFormatJSONL = "jsonl"
	// TraceFormatRegex decodes text traces through ordered transition
	// patterns (see WithTracePattern); the first matching rule supplies
	// the message, and non-matching lines are reported as skipped.
	TraceFormatRegex = "regex"
)

// VerdictKind classifies one conformance verdict. Its value is the
// kind's wire name, the "kind" of the verdict's JSON encoding.
type VerdictKind string

// Verdict kinds produced by Check.
const (
	// VerdictAccepted: the machine consumed the message; a transition
	// fired and its actions were performed.
	VerdictAccepted VerdictKind = "accepted"
	// VerdictIgnored: the delivery was rejected (guard-rejected,
	// out-of-vocabulary, or after finish) but absorbed by the tolerance
	// budget.
	VerdictIgnored VerdictKind = "ignored"
	// VerdictSkipped: the decoder produced no event for the line (no
	// transition pattern matched).
	VerdictSkipped VerdictKind = "skipped"
	// VerdictFinished: the machine reached its finish state; emitted in
	// addition to the accepted verdict of the finishing delivery.
	VerdictFinished VerdictKind = "finished"
	// VerdictViolation: a rejected delivery after the tolerance budget
	// was exhausted — the trace does not conform.
	VerdictViolation VerdictKind = "violation"
	// VerdictMalformed: the input is not a trace in the declared format;
	// the stream ends here.
	VerdictMalformed VerdictKind = "malformed"
	// VerdictAborted: the run was cancelled (context cancellation or a
	// trace-reader failure); the stream ends here.
	VerdictAborted VerdictKind = "aborted"
	// VerdictSummary: the terminal verdict of a completed run, carrying
	// the aggregate CheckStats.
	VerdictSummary VerdictKind = "summary"
)

// Verdict is the conformance judgement of one trace line (or of the
// whole run, for the terminal kinds). Its JSON encoding is canonical —
// the same trace yields byte-identical verdict streams through the SDK,
// the `fsmgen check` command and the /v1 check route.
type Verdict struct {
	// Line is the 1-based trace line judged; 0 for terminal verdicts
	// not anchored to a line.
	Line int
	// Event is the delivered message type.
	Event string
	// Kind classifies the verdict.
	Kind VerdictKind
	// State is the machine state after the delivery (unchanged for
	// rejections).
	State string
	// Actions are the actions an accepted delivery performed, in
	// transition order.
	Actions []string
	// Detail carries the rejection, skip or decode-failure reason.
	Detail string
	// Stats is the run report; non-nil only on VerdictSummary.
	Stats *CheckStats
}

// MarshalJSON renders the canonical verdict encoding (fixed key order,
// no insignificant whitespace). A Kind that is not one of the Verdict
// constants is an error.
func (v Verdict) MarshalJSON() ([]byte, error) {
	kind, ok := trace.ParseKind(string(v.Kind))
	if !ok {
		return nil, fmt.Errorf("asagen: unknown verdict kind %q", v.Kind)
	}
	out := trace.Verdict{
		Line:    v.Line,
		Event:   v.Event,
		Kind:    kind,
		State:   v.State,
		Actions: v.Actions,
		Detail:  v.Detail,
	}
	if v.Stats != nil {
		out.Stats = &trace.Report{
			Lines:          v.Stats.Lines,
			Events:         v.Stats.Events,
			Accepted:       v.Stats.Accepted,
			Ignored:        v.Stats.Ignored,
			Skipped:        v.Stats.Skipped,
			Violations:     v.Stats.Violations,
			FirstViolation: v.Stats.FirstViolation,
			Finished:       v.Stats.Finished,
			FinalState:     v.Stats.FinalState,
		}
	}
	return out.AppendJSON(nil), nil
}

// CheckStats is the aggregate report of one Check run, carried by the
// summary verdict.
type CheckStats struct {
	// Lines counts trace lines consumed, including blank and skipped
	// ones; Events counts decoded events delivered to the machine.
	Lines  int
	Events int
	// Accepted, Ignored, Skipped and Violations count verdicts by kind.
	Accepted   int
	Ignored    int
	Skipped    int
	Violations int
	// FirstViolation is the line of the first violation; 0 when the
	// trace conforms.
	FirstViolation int
	// Finished reports whether the machine reached its finish state.
	Finished bool
	// FinalState is the machine state when the run ended.
	FinalState string
}

// Conforming reports whether the checked trace conformed to the machine.
func (s CheckStats) Conforming() bool { return s.Violations == 0 }

// CheckOption configures one Check call.
type CheckOption func(*checkConfig)

type checkConfig struct {
	format    string
	patterns  []string
	tolerance int
	param     int
	keepGoing bool
}

// WithTraceFormat selects the trace encoding: TraceFormatJSONL (the
// default, also selected by "") or TraceFormatRegex.
func WithTraceFormat(format string) CheckOption {
	return func(c *checkConfig) { c.format = format }
}

// WithTracePattern adds a transition pattern for TraceFormatRegex (and
// implies that format): "PATTERN" decodes a matching line to its first
// capture group, "PATTERN=>TEMPLATE" to the template with $1/${name}
// expanded. Patterns are tried in registration order, first match wins;
// without any, the first ALL_CAPS token of each line is the message.
func WithTracePattern(rule string) CheckOption {
	return func(c *checkConfig) {
		c.patterns = append(c.patterns, rule)
		c.format = TraceFormatRegex
	}
}

// WithTolerance sets how many rejected deliveries are absorbed before a
// further rejection becomes a violation. The default is 0: the first
// rejection violates; a negative n is an ErrBadTrace.
func WithTolerance(n int) CheckOption {
	return func(c *checkConfig) { c.tolerance = n }
}

// WithTraceParam selects the model parameter of the machine the trace
// is checked against. Values <= 0 select the model's default.
func WithTraceParam(r int) CheckOption {
	return func(c *checkConfig) { c.param = r }
}

// WithKeepGoing makes Check read the whole trace even after a
// violation, counting every violation, instead of stopping at the
// first one.
func WithKeepGoing() CheckOption {
	return func(c *checkConfig) { c.keepGoing = true }
}

// Check streams the trace read from r through the named model's
// generated machine and yields one Verdict per judged line, ending with
// exactly one terminal verdict: a summary (the trace was fully judged —
// conforming or violating, per its Stats), a malformed verdict (the
// input is not a trace in the declared format), or an aborted verdict
// (ctx was cancelled or the reader failed). The machine is the same
// memoised family member Generate returns, so checking and rendering
// share one generation.
//
// The returned iterator is single-use — it consumes r — and memory use
// is bounded by the longest trace line, never the trace length: lines
// are judged and discarded at line rate. Breaking out of the loop stops
// reading promptly. Errors detectable before any trace is read (unknown
// model, bad parameter, bad format, pattern or tolerance) are returned
// immediately instead of as verdicts, and the trace options are checked
// before any generation; they match the package sentinels under
// errors.Is.
func (c *Client) Check(ctx context.Context, model string, r io.Reader, opts ...CheckOption) (iter.Seq[Verdict], error) {
	var cfg checkConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	var rules []trace.Rule
	for _, p := range cfg.patterns {
		rule, err := trace.ParseRule(p)
		if err != nil {
			return nil, wrapSentinel(ErrBadTrace, err)
		}
		rules = append(rules, rule)
	}
	if cfg.format == "" {
		cfg.format = TraceFormatJSONL
	}
	if cfg.format != TraceFormatJSONL && cfg.format != TraceFormatRegex {
		return nil, wrapSentinel(ErrBadTrace,
			errors.New("asagen: unknown trace format "+cfg.format+" (known: jsonl, regex)"))
	}
	if cfg.tolerance < 0 {
		return nil, wrapSentinel(ErrBadTrace,
			fmt.Errorf("asagen: negative tolerance %d", cfg.tolerance))
	}
	machine, err := c.Generate(ctx, model, WithParam(cfg.param))
	if err != nil {
		return nil, err
	}
	return func(yield func(Verdict) bool) {
		dec, err := trace.NewDecoder(cfg.format, r, rules)
		if err != nil {
			yield(Verdict{Kind: VerdictAborted, Detail: err.Error()})
			return
		}
		monOpts := []trace.MonitorOption{
			trace.WithTarget("", machine.machine),
			trace.WithTolerance(cfg.tolerance),
			trace.WithObserver(trace.ObserverFunc(func(v trace.Verdict) bool {
				return yield(publicVerdict(v))
			})),
		}
		if cfg.keepGoing {
			monOpts = append(monOpts, trace.WithKeepGoing())
		}
		mon, err := trace.NewMonitor(monOpts...)
		if err != nil {
			yield(Verdict{Kind: VerdictAborted, Detail: err.Error()})
			return
		}
		rep, err := mon.Run(ctx, dec)
		if errors.Is(err, trace.ErrStopped) {
			return // the consumer broke out of the loop
		}
		yield(publicVerdict(trace.Terminal(rep, err)))
	}, nil
}

// publicVerdict converts an internal verdict to the public shape.
func publicVerdict(v trace.Verdict) Verdict {
	out := Verdict{
		Line:    v.Line,
		Event:   v.Event,
		Kind:    VerdictKind(v.Kind.String()),
		State:   v.State,
		Actions: v.Actions,
		Detail:  v.Detail,
	}
	if v.Stats != nil {
		out.Stats = &CheckStats{
			Lines:          v.Stats.Lines,
			Events:         v.Stats.Events,
			Accepted:       v.Stats.Accepted,
			Ignored:        v.Stats.Ignored,
			Skipped:        v.Stats.Skipped,
			Violations:     v.Stats.Violations,
			FirstViolation: v.Stats.FirstViolation,
			Finished:       v.Stats.Finished,
			FinalState:     v.Stats.FinalState,
		}
	}
	return out
}
