package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"asagen"
	"asagen/internal/trace"
)

// exitError carries a process exit code with an error, letting check
// distinguish a violating trace (1) from a broken invocation or
// malformed trace (2), grep-style.
type exitError struct {
	code int
	err  error
}

func (e *exitError) Error() string { return e.err.Error() }

func (e *exitError) Unwrap() error { return e.err }

// exitCode maps an error from run to the process exit code.
func exitCode(err error) int {
	var ec *exitError
	if errors.As(err, &ec) {
		return ec.code
	}
	return 1
}

// runCheck implements the check subcommand: it streams a trace through a
// model's generated machine and reports one verdict per line, exiting 0
// when the trace conforms, 1 when it violates, and 2 when the trace (or
// the invocation) is broken.
//
// Output is buffered and flushed whenever the checker is about to wait
// for more trace (and at exit), as the check route does: `tail -f log |
// fsmgen check` prints each verdict as its line arrives, a trace file is
// answered in a few large writes.
func runCheck(args []string, stdout io.Writer) error {
	helper := asagen.NewClient()
	modelNames := make([]string, 0, len(helper.Models()))
	for _, m := range helper.Models() {
		modelNames = append(modelNames, m.Name)
	}

	fs := flag.NewFlagSet("fsmgen check", flag.ContinueOnError)
	var (
		modelName = fs.String("model", "commit", "registered model: "+strings.Join(modelNames, ", "))
		r         = fs.Int("r", 0, "model parameter (0 = model default)")
		tracePath = fs.String("trace", "-", "trace `file` to check (\"-\" = stdin)")
		format    = fs.String("format", "", "trace format: jsonl (default) or regex")
		tolerance = fs.Int("tolerance", 0, "rejected deliveries absorbed before a violation")
		keepGoing = fs.Bool("keep-going", false, "keep checking past the first violation")
		jsonOut   = fs.Bool("json", false, "print each verdict as canonical JSON (one object per line)")
		quiet     = fs.Bool("q", false, "suppress per-line verdicts; print only the summary")
		matches   []string
		specFiles []string
	)
	fs.Func("match", "regex transition `pattern` PATTERN or PATTERN=>TEMPLATE (repeatable; implies -format regex)",
		func(rule string) error {
			matches = append(matches, rule)
			return nil
		})
	fs.Func("spec", "JSON model spec `file` to register before resolving -model (repeatable)",
		func(path string) error {
			specFiles = append(specFiles, path)
			return nil
		})
	if err := fs.Parse(args); err != nil {
		return &exitError{code: 2, err: err}
	}

	client := asagen.NewClient(asagen.WithIsolatedRegistry())
	for _, path := range specFiles {
		data, err := os.ReadFile(path)
		if err != nil {
			return &exitError{code: 2, err: err}
		}
		sp, err := asagen.ParseModelSpec(data)
		if err != nil {
			return &exitError{code: 2, err: fmt.Errorf("-spec %s: %w", path, err)}
		}
		if err := client.RegisterModel(sp); err != nil {
			return &exitError{code: 2, err: fmt.Errorf("-spec %s: %w", path, err)}
		}
	}

	in := io.Reader(os.Stdin)
	if *tracePath != "-" {
		f, err := os.Open(*tracePath)
		if err != nil {
			return &exitError{code: 2, err: err}
		}
		defer f.Close()
		in = f
	}
	out := bufio.NewWriterSize(stdout, 32<<10)
	in = trace.FlushBeforeRead(in, out.Flush)

	opts := []asagen.CheckOption{
		asagen.WithTraceParam(*r),
		asagen.WithTolerance(*tolerance),
		asagen.WithTraceFormat(*format),
	}
	for _, rule := range matches {
		opts = append(opts, asagen.WithTracePattern(rule))
	}
	if *keepGoing {
		opts = append(opts, asagen.WithKeepGoing())
	}
	verdicts, err := client.Check(context.Background(), *modelName, in, opts...)
	if err != nil {
		return &exitError{code: 2, err: err}
	}

	var terminal asagen.Verdict
	for v := range verdicts {
		terminal = v
		if *jsonOut {
			// MarshalJSON directly: encoding/json would re-escape HTML
			// characters (`->` in actions), breaking byte-identity with
			// the SSE stream.
			line, err := v.MarshalJSON()
			if err != nil {
				return &exitError{code: 2, err: err}
			}
			out.Write(line)
			out.WriteByte('\n')
			continue
		}
		if !*quiet || v.Stats != nil {
			out.WriteString(formatVerdict(v))
			out.WriteByte('\n')
		}
	}
	if err := out.Flush(); err != nil {
		return &exitError{code: 2, err: err}
	}

	switch terminal.Kind {
	case asagen.VerdictSummary:
		if terminal.Stats.Conforming() {
			return nil
		}
		return &exitError{code: 1, err: fmt.Errorf("trace violates model %s: first violation at line %d",
			*modelName, terminal.Stats.FirstViolation)}
	case asagen.VerdictMalformed:
		return &exitError{code: 2, err: fmt.Errorf("malformed trace: %s", terminal.Detail)}
	default:
		return &exitError{code: 2, err: fmt.Errorf("check aborted: %s", terminal.Detail)}
	}
}

// formatVerdict renders one verdict as a human-readable line.
func formatVerdict(v asagen.Verdict) string {
	switch v.Kind {
	case asagen.VerdictAccepted:
		line := fmt.Sprintf("line %d: accepted %s -> %s", v.Line, v.Event, v.State)
		if len(v.Actions) > 0 {
			line += " [" + strings.Join(v.Actions, " ") + "]"
		}
		return line
	case asagen.VerdictIgnored:
		return fmt.Sprintf("line %d: ignored %s (%s)", v.Line, v.Event, v.Detail)
	case asagen.VerdictSkipped:
		return fmt.Sprintf("line %d: skipped (%s)", v.Line, v.Detail)
	case asagen.VerdictFinished:
		return fmt.Sprintf("line %d: finished in state %s", v.Line, v.State)
	case asagen.VerdictViolation:
		return fmt.Sprintf("line %d: VIOLATION %s (%s)", v.Line, v.Event, v.Detail)
	case asagen.VerdictMalformed:
		return fmt.Sprintf("line %d: malformed trace (%s)", v.Line, v.Detail)
	case asagen.VerdictAborted:
		return fmt.Sprintf("aborted (%s)", v.Detail)
	case asagen.VerdictSummary:
		st := v.Stats
		if st.Conforming() {
			line := fmt.Sprintf("trace conforms: %d lines, %d events, %d accepted, %d ignored, %d skipped",
				st.Lines, st.Events, st.Accepted, st.Ignored, st.Skipped)
			if st.Finished {
				line += ", finished"
			}
			if st.FinalState != "" {
				line += " in state " + st.FinalState
			}
			return line
		}
		return fmt.Sprintf("trace violates: %d violations, first at line %d (%d lines, %d events, %d accepted, %d ignored)",
			st.Violations, st.FirstViolation, st.Lines, st.Events, st.Accepted, st.Ignored)
	default:
		return fmt.Sprintf("line %d: %s", v.Line, v.Kind)
	}
}
