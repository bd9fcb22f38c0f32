package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunFormats(t *testing.T) {
	tests := []struct {
		name   string
		args   []string
		wantIn string
	}{
		{"text", []string{"-r", "4", "-format", "text"}, "state: F/0/F/0/F/F/F"},
		{"dot", []string{"-r", "4", "-format", "dot"}, "digraph"},
		{"xml", []string{"-r", "4", "-format", "xml"}, "<stateMachineDiagram"},
		{"go", []string{"-r", "4", "-format", "go", "-pkg", "demo"}, "package demo"},
		{"doc", []string{"-r", "4", "-format", "doc"}, "# State machine"},
		{"efsm", []string{"-r", "13", "-format", "efsm"}, "states: 9"},
		{"efsm-dot", []string{"-r", "7", "-format", "efsm-dot"}, "digraph"},
		{"redundant", []string{"-model", "commit-redundant", "-r", "7", "-format", "doc"}, "| States (merged) | 85 |"},
		{"no-merge", []string{"-r", "4", "-no-merge", "-format", "doc"}, "| States (merged) | 33 |"},
		{"no-comments", []string{"-r", "4", "-no-comments", "-format", "text"}, "Transitions:"},
		{"default-param", []string{"-format", "text"}, "state machine: bft-commit"},
		{"model-consensus", []string{"-model", "consensus", "-r", "5", "-format", "text"}, "state machine: ct-consensus"},
		{"model-termination", []string{"-model", "termination", "-r", "3", "-format", "dot"}, "digraph"},
		{"model-termination-efsm", []string{"-model", "termination", "-r", "6", "-format", "efsm"}, "states:"},
		{"model-redundant-entry", []string{"-model", "commit-redundant", "-r", "4", "-format", "text"}, "state: "},
		{"model-consensus-go", []string{"-model", "consensus", "-r", "4", "-format", "go", "-pkg", "cons"}, "package cons"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var sb strings.Builder
			if err := run(tt.args, &sb); err != nil {
				t.Fatalf("run(%v): %v", tt.args, err)
			}
			if !strings.Contains(sb.String(), tt.wantIn) {
				t.Errorf("output missing %q", tt.wantIn)
			}
		})
	}
}

// TestUnknownNameErrorsListRegistries: the unknown-format and
// unknown-model failures name the registered sets, matching asasim's
// fail-fast style.
func TestUnknownNameErrorsListRegistries(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-format", "nonsense"}, &sb)
	if err == nil {
		t.Fatal("unknown format accepted")
	}
	for _, want := range []string{"text", "dot", "xml", "go", "doc", "efsm", "efsm-dot"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-format error %q missing %q", err, want)
		}
	}
	err = run([]string{"-model", "nonsense"}, &sb)
	if err == nil {
		t.Fatal("unknown model accepted")
	}
	for _, want := range []string{"chord", "commit", "commit-redundant", "consensus", "storage", "termination"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-model error %q missing %q", err, want)
		}
	}
}

func TestRunErrors(t *testing.T) {
	tests := [][]string{
		{"-r", "3"},                        // replication too small
		{"-format", "nonsense"},            // unknown format
		{"-r", "3", "-format", "efsm"},     // efsm path validates r too
		{"-bogus-flag"},                    // flag parse error
		{"-model", "nonsense"},             // unregistered model
		{"-model", "consensus", "-r", "2"}, // below the model's minimum
	}
	for _, args := range tests {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestRunWritesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "machine.txt")
	var sb strings.Builder
	if err := run([]string{"-r", "4", "-format", "text", "-o", path}, &sb); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "state machine: bft-commit") {
		t.Error("file missing artefact header")
	}
	if sb.Len() != 0 {
		t.Error("wrote to stdout despite -o")
	}
}

func TestGeneratedGoMatchesCheckedIn(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-r", "4", "-format", "go", "-pkg", "commitfsm4"}, &sb); err != nil {
		t.Fatal(err)
	}
	checked, err := os.ReadFile("../../internal/commit/commitfsm4/machine.go")
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != string(checked) {
		t.Error("fsmgen output differs from checked-in commitfsm4; regenerate it")
	}
}

// TestRunAllMatchesPerFormatInvocations: -all writes every (model ×
// format) artefact, and the bytes are bit-identical to the corresponding
// single-format invocation.
func TestRunAllMatchesPerFormatInvocations(t *testing.T) {
	dir := t.TempDir()
	var manifest strings.Builder
	if err := run([]string{"-all", "-o", dir}, &manifest); err != nil {
		t.Fatalf("run -all: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// 6 models × 5 machine formats + 6 EFSM-capable models × 2 EFSM formats.
	if len(entries) != 42 {
		t.Fatalf("-all wrote %d files, want 42", len(entries))
	}
	if got := strings.Count(manifest.String(), "wrote "); got != 42 {
		t.Errorf("manifest lists %d files, want 42", got)
	}

	perFormat := func(args ...string) string {
		var sb strings.Builder
		if err := run(args, &sb); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
		return sb.String()
	}
	comparisons := []struct {
		prefix string
		args   []string
	}{
		{"commit-r4.text.", []string{"-model", "commit", "-format", "text"}},
		{"commit-r4.go.", []string{"-model", "commit", "-format", "go"}},
		{"consensus-r5.dot.", []string{"-model", "consensus", "-format", "dot"}},
		{"termination-r4.xml.", []string{"-model", "termination", "-format", "xml"}},
		{"commit-redundant-r4.doc.", []string{"-model", "commit-redundant", "-format", "doc"}},
		{"commit-r4.efsm.", []string{"-model", "commit", "-format", "efsm"}},
		{"chord-r4.text.", []string{"-model", "chord", "-format", "text"}},
		{"chord-r4.efsm-dot.", []string{"-model", "chord", "-format", "efsm-dot"}},
		{"storage-r4.go.", []string{"-model", "storage", "-format", "go"}},
		{"storage-r4.efsm.", []string{"-model", "storage", "-format", "efsm"}},
	}
	for _, c := range comparisons {
		var path string
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), c.prefix) {
				path = filepath.Join(dir, e.Name())
				break
			}
		}
		if path == "" {
			t.Errorf("no -all artefact with prefix %q", c.prefix)
			continue
		}
		batch, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(batch) != perFormat(c.args...) {
			t.Errorf("%s differs from per-format invocation %v", path, c.args)
		}
	}
}

// leaseSpecJSON is a minimal user-defined spec for the -spec flag tests:
// collect unanimous grants, lead, then finish on expiry.
const leaseSpecJSON = `{
  "name": "lease",
  "description": "unanimous-grant leader lease",
  "param_name": "peer count",
  "default_param": 3,
  "components": [
    {"name": "leader", "kind": "bool"},
    {"name": "grants", "kind": "int", "max": {"param": true}}
  ],
  "messages": ["GRANT", "EXPIRE"],
  "rules": [
    {"message": "GRANT",
     "when": [{"component": "leader", "op": "==", "value": {"offset": 0}},
              {"component": "grants", "op": "==", "value": {"param": true, "offset": -1}}],
     "set": [{"component": "grants", "add": 1},
             {"component": "leader", "set": {"offset": 1}}],
     "actions": ["->lead"]},
    {"message": "GRANT",
     "when": [{"component": "leader", "op": "==", "value": {"offset": 0}}],
     "set": [{"component": "grants", "add": 1}]},
    {"message": "EXPIRE",
     "when": [{"component": "leader", "op": "==", "value": {"offset": 1}}],
     "actions": ["->release"],
     "finish": true}
  ]
}`

// TestRunSpecFlag: -spec registers a user-defined model for the
// invocation; the lone spec becomes the default -model, renders in any
// machine format, joins -all's cross product, and never leaks into other
// invocations.
func TestRunSpecFlag(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "lease.json")
	if err := os.WriteFile(specPath, []byte(leaseSpecJSON), 0o644); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := run([]string{"-spec", specPath, "-format", "text"}, &sb); err != nil {
		t.Fatalf("run -spec: %v", err)
	}
	if !strings.Contains(sb.String(), "state machine: lease") {
		t.Errorf("spec model not rendered by default:\n%.200s", sb.String())
	}

	// -model still wins when set explicitly.
	sb.Reset()
	if err := run([]string{"-spec", specPath, "-model", "commit", "-format", "text"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "state machine: bft-commit") {
		t.Errorf("-model override ignored:\n%.200s", sb.String())
	}

	// -all includes the registered spec: 42 built-in artefacts + 5
	// machine formats for the EFSM-less lease model.
	outDir := t.TempDir()
	sb.Reset()
	if err := run([]string{"-spec", specPath, "-all", "-o", outDir}, &sb); err != nil {
		t.Fatalf("run -spec -all: %v", err)
	}
	entries, err := os.ReadDir(outDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 47 {
		t.Fatalf("-spec -all wrote %d files, want 47", len(entries))
	}
	leaseArtifacts := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "lease-r3.") {
			leaseArtifacts++
		}
	}
	if leaseArtifacts != 5 {
		t.Errorf("lease artefacts = %d, want 5 machine formats", leaseArtifacts)
	}

	// The registration is invocation-scoped: without -spec the model is
	// unknown again.
	if err := run([]string{"-model", "lease", "-format", "text"}, &sb); err == nil {
		t.Error("spec registration leaked across invocations")
	}

	// A broken spec fails fast with the diagnostics.
	badPath := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(badPath, []byte(`{"name":"bad","components":[],"messages":[],"rules":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-spec", badPath, "-format", "text"}, &sb); err == nil ||
		!strings.Contains(err.Error(), "components") {
		t.Errorf("invalid spec error = %v, want component diagnostic", err)
	}

	// So does one that names a key twice: it used to load as model "y"
	// whose rule "b" finished and sent "->x".
	if err := os.WriteFile(badPath, []byte(
		`{"name":"x","rules":[{"message":"a","finish":true,"actions":["->x"]}],"rules":[{"message":"b"}],"NAME":"y"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-spec", badPath, "-format", "text"}, &sb); err == nil ||
		!strings.Contains(err.Error(), `line 1, column 71: duplicate key "rules"`) {
		t.Errorf("duplicate-key spec error = %v, want the located parse error", err)
	}
}
