package main

import "testing"

// TestRunMatchesPaper executes the Table 1 reproduction; run returns an
// error when any generated count deviates from the published numbers, so a
// plain invocation is the regression check.
func TestRunMatchesPaper(t *testing.T) {
	if err := run([]string{"-repeats", "1"}); err != nil {
		t.Fatalf("table1: %v", err)
	}
}

func TestRunRedundantVariant(t *testing.T) {
	// The redundant reading merges to the same published finals.
	if err := run([]string{"-repeats", "1", "-model", "commit-redundant"}); err != nil {
		t.Fatalf("table1 -model commit-redundant: %v", err)
	}
}

func TestRunOtherModels(t *testing.T) {
	// Non-commit registry entries print a sweep table with no paper
	// comparison; any generation failure surfaces as an error.
	if err := run([]string{"-repeats", "1", "-model", "consensus"}); err != nil {
		t.Fatalf("table1 -model consensus: %v", err)
	}
	if err := run([]string{"-repeats", "1", "-model", "termination", "-params", "1,3,5"}); err != nil {
		t.Fatalf("table1 -model termination -params: %v", err)
	}
}

func TestRunCustomParams(t *testing.T) {
	// Off-paper parameters skip the comparison columns instead of
	// reporting mismatches.
	if err := run([]string{"-repeats", "1", "-params", "5,6"}); err != nil {
		t.Fatalf("table1 -params 5,6: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"-model", "nonsense"}); err == nil {
		t.Error("unknown model accepted")
	}
	if err := run([]string{"-params", "4,nope"}); err == nil {
		t.Error("malformed -params accepted")
	}
}
