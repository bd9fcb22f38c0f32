package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

// checkRun invokes the check subcommand and returns its stdout and exit
// code (0 for a nil error).
func checkRun(t *testing.T, args ...string) (string, int, error) {
	t.Helper()
	var sb strings.Builder
	err := run(append([]string{"check"}, args...), &sb)
	if err == nil {
		return sb.String(), 0, nil
	}
	return sb.String(), exitCode(err), err
}

func TestCheckConformingTraceExitsZero(t *testing.T) {
	out, code, err := checkRun(t,
		"-model", "commit", "-r", "4", "-trace", "../../examples/traces/commit-conforming.jsonl")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 0 {
		t.Fatalf("exit code = %d", code)
	}
	if !strings.Contains(out, "line 2: accepted UPDATE") {
		t.Errorf("output missing accepted verdict:\n%s", out)
	}
	if !strings.Contains(out, "finished in state") || !strings.Contains(out, "trace conforms: 6 lines, 6 events") {
		t.Errorf("output missing finish/summary:\n%s", out)
	}
}

func TestCheckViolatingTraceExitsOne(t *testing.T) {
	out, code, err := checkRun(t,
		"-model", "commit", "-r", "4", "-trace", "../../examples/traces/commit-violating.jsonl")
	if err == nil {
		t.Fatal("violating trace returned nil error")
	}
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (err %v)", code, err)
	}
	if !strings.Contains(err.Error(), "first violation at line 3") {
		t.Errorf("error = %v", err)
	}
	if !strings.Contains(out, "line 3: VIOLATION ELECT") || !strings.Contains(out, "trace violates:") {
		t.Errorf("output:\n%s", out)
	}
}

func TestCheckMalformedTraceExitsTwo(t *testing.T) {
	path := filepath.Join(t.TempDir(), "broken.jsonl")
	if err := os.WriteFile(path, []byte("\"UPDATE\"\n{nope\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code, err := checkRun(t, "-model", "commit", "-r", "4", "-trace", path)
	if err == nil {
		t.Fatal("malformed trace returned nil error")
	}
	if code != 2 {
		t.Fatalf("exit code = %d, want 2 (err %v)", code, err)
	}
	if !strings.Contains(err.Error(), "malformed trace") {
		t.Errorf("error = %v", err)
	}
	if !strings.Contains(out, "line 2: malformed trace") {
		t.Errorf("output:\n%s", out)
	}
}

// TestCheckInvalidUTF8IsMalformed: a message that is not valid UTF-8 is
// a malformed trace, and no raw byte of it reaches the -json output.
func TestCheckInvalidUTF8IsMalformed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "latin1.jsonl")
	if err := os.WriteFile(path, []byte("\"UPDATE\"\n{\"msg\":\"\xff\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code, err := checkRun(t, "-model", "commit", "-r", "4", "-json", "-trace", path)
	if code != 2 || err == nil || !strings.Contains(err.Error(), "not valid UTF-8") {
		t.Fatalf("exit code = %d, err %v; want 2 and a UTF-8 decode error", code, err)
	}
	if !utf8.ValidString(out) || !strings.Contains(out, `"kind":"malformed"`) {
		t.Errorf("output:\n%q", out)
	}
}

func TestCheckInvocationErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-model", "nonsense", "-trace", "../../examples/traces/commit-conforming.jsonl"},
		{"-trace", "/does/not/exist.jsonl"},
		{"-format", "xml", "-trace", "../../examples/traces/commit-conforming.jsonl"},
		{"-match", "([broken", "-trace", "../../examples/traces/commit-conforming.jsonl"},
	} {
		_, code, err := checkRun(t, args...)
		if err == nil || code != 2 {
			t.Errorf("check %v: code=%d err=%v, want exit 2", args, code, err)
		}
	}
}

// TestCheckMatchWithJSONLExitsTwo: -match patterns decode regex traces,
// so asking for them with -format jsonl is a broken invocation rather
// than a regex run.
func TestCheckMatchWithJSONLExitsTwo(t *testing.T) {
	out, code, err := checkRun(t, "-model", "commit", "-r", "4", "-format", "jsonl",
		"-match", `recv (\S+)`, "-trace", "../../examples/traces/commit-conforming.jsonl")
	if code != 2 || err == nil || !strings.Contains(err.Error(), "jsonl") {
		t.Fatalf("exit code = %d, err %v; want 2 and an error naming jsonl", code, err)
	}
	if out != "" {
		t.Errorf("a refused invocation printed verdicts:\n%s", out)
	}
}

func TestCheckRegexTrace(t *testing.T) {
	out, code, err := checkRun(t, "-model", "commit", "-r", "4",
		"-format", "regex", "-trace", "../../examples/traces/commit-conforming.log")
	if err != nil {
		t.Fatalf("run: %v (out %s)", err, out)
	}
	if code != 0 {
		t.Fatalf("exit code = %d", code)
	}
	if !strings.Contains(out, "line 2: skipped") {
		t.Errorf("comment line not reported skipped:\n%s", out)
	}
	if !strings.Contains(out, "1 skipped") || !strings.Contains(out, "finished") {
		t.Errorf("summary:\n%s", out)
	}
}

func TestCheckJSONOutputIsCanonical(t *testing.T) {
	out, code, err := checkRun(t, "-model", "commit", "-r", "4", "-json",
		"-trace", "../../examples/traces/commit-conforming.jsonl")
	if err != nil || code != 0 {
		t.Fatalf("run: code=%d err=%v", code, err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 8 {
		t.Fatalf("got %d JSON lines, want 8:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], `{"line":1,"event":"FREE","kind":"accepted","state":`) {
		t.Errorf("first verdict line = %s", lines[0])
	}
	// Every line is valid JSON and re-marshals to itself (canonical form).
	for _, line := range lines {
		var v map[string]any
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
	}
	if !strings.Contains(lines[7], `"kind":"summary"`) || !strings.Contains(lines[7], `"finished":true`) {
		t.Errorf("summary line = %s", lines[7])
	}
}

func TestCheckQuietPrintsOnlySummary(t *testing.T) {
	out, code, err := checkRun(t, "-model", "commit", "-r", "4", "-q",
		"-trace", "../../examples/traces/commit-conforming.jsonl")
	if err != nil || code != 0 {
		t.Fatalf("run: code=%d err=%v", code, err)
	}
	if lines := strings.Split(strings.TrimSpace(out), "\n"); len(lines) != 1 || !strings.HasPrefix(lines[0], "trace conforms:") {
		t.Errorf("quiet output = %q", out)
	}
}

func TestExitCodeMapping(t *testing.T) {
	if got := exitCode(errors.New("plain")); got != 1 {
		t.Errorf("plain error code = %d", got)
	}
	if got := exitCode(&exitError{code: 2, err: errors.New("broken")}); got != 2 {
		t.Errorf("exitError code = %d", got)
	}
}

// TestCheckStdinPipePrintsEachVerdictAsItsLineArrives: output is
// buffered, yet `tail -f log | fsmgen check` keeps per-line output —
// the verdict of line n is readable before line n+1 is fed.
func TestCheckStdinPipePrintsEachVerdictAsItsLineArrives(t *testing.T) {
	stdinR, stdinW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer stdinR.Close()
	defer stdinW.Close()
	defer func(old *os.File) { os.Stdin = old }(os.Stdin)
	os.Stdin = stdinR

	outR, outW := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"check", "-model", "commit", "-r", "4"}, outW)
		outW.Close()
	}()
	printed := make(chan string)
	go func() {
		defer close(printed)
		for sc := bufio.NewScanner(outR); sc.Scan(); {
			printed <- sc.Text()
		}
	}()
	next := func(after string) string {
		select {
		case line := <-printed:
			return line
		case <-time.After(5 * time.Second):
			t.Fatalf("no output 5s after %s", after)
			return ""
		}
	}

	// FREE/NOT_FREE alternation never finishes the machine: one accepted
	// verdict per line.
	for n := 1; n <= 20; n++ {
		msg := "FREE"
		if n%2 == 0 {
			msg = "NOT_FREE"
		}
		if _, err := fmt.Fprintf(stdinW, "%q\n", msg); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("line %d: accepted %s ", n, msg)
		if got := next(fmt.Sprintf("line %d was fed", n)); !strings.HasPrefix(got, want) {
			t.Fatalf("after line %d printed %q, want prefix %q", n, got, want)
		}
	}
	stdinW.Close()
	if got := next("end of input"); !strings.HasPrefix(got, "trace conforms: 20 lines") {
		t.Errorf("summary = %q", got)
	}
	if err := <-done; err != nil {
		t.Errorf("run: %v", err)
	}
}
