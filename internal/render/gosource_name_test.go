package render

import (
	"context"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"asagen/internal/core"
)

// TestSanitizePackageName: arbitrary dynamic model names map onto valid
// Go package identifiers.
func TestSanitizePackageName(t *testing.T) {
	tests := []struct {
		in, want string
	}{
		{"bft-commit", "bftcommit"},
		{"termination-detection", "terminationdetection"},
		{"UPPER_case", "uppercase"},
		{"3phase", "m3phase"},
		{"2pc-commit", "m2pccommit"},
		{"---", "machine"},
		{"", "machine"},
		{"   ", "machine"},
		{"lease.v2", "leasev2"},
		{"héllo-wörld", "héllowörld"},
		{"日本語", "日本語"},
		{"٣phase", "m٣phase"}, // Arabic-Indic digit: valid in identifiers, not first
		{"a b c", "abc"},
		{"!@#$%^&*()", "machine"},
		{"x", "x"},
		{"42", "m42"},
		{"go", "mgo"},       // Go keywords are not identifiers
		{"Range", "mrange"}, // keyword after lower-casing
		{"func", "mfunc"},
		{"type!", "mtype"}, // keyword after stripping
	}
	for _, tt := range tests {
		if got := sanitizePackageName(tt.in); got != tt.want {
			t.Errorf("sanitizePackageName(%q) = %q, want %q", tt.in, got, tt.want)
		}
		// Every output must be usable in a package clause.
		src := "package " + sanitizePackageName(tt.in) + "\n"
		if _, err := parser.ParseFile(token.NewFileSet(), "x.go", src, parser.PackageClauseOnly); err != nil {
			t.Errorf("sanitizePackageName(%q) is not a valid package clause: %v", tt.in, err)
		}
	}
}

// TestGoSourceRendersHostileModelNames: the go format produces parseable
// source for models whose names would previously break the derived
// package clause.
func TestGoSourceRendersHostileModelNames(t *testing.T) {
	for _, name := range []string{"3phase", "lease-v2", "日本語", "#!?"} {
		m := &namedModel{name: name}
		machine, err := core.Generate(context.Background(), m)
		if err != nil {
			t.Fatalf("%q: generate: %v", name, err)
		}
		art, err := GoSource(machine, "")
		if err != nil {
			t.Fatalf("%q: render: %v", name, err)
		}
		// The derived clause passed the renderer's identifier gate; pin
		// what it is.
		want := "package " + sanitizePackageName(name) + "2"
		if !strings.Contains(string(art.Data), want) {
			t.Errorf("%q: generated source lacks %q", name, want)
		}
	}
}

// namedModel is a trivial two-state model with a configurable name.
type namedModel struct {
	name string
}

func (m *namedModel) Name() string   { return m.name }
func (m *namedModel) Parameter() int { return 2 }
func (m *namedModel) Components() []core.StateComponent {
	return []core.StateComponent{core.NewBoolComponent("on")}
}
func (m *namedModel) Messages() []string { return []string{"TOGGLE"} }
func (m *namedModel) Start() core.Vector { return core.Vector{0} }
func (m *namedModel) Apply(v core.Vector, mi int, out *core.Effect) bool {
	msg := m.Messages()[mi]
	if msg != "TOGGLE" {
		return false
	}
	s := v.Clone()
	s[0] = 1 - s[0]
	*out = core.Effect{Target: s}
	return true
}
func (m *namedModel) DescribeState(core.Vector, *core.Text) {}
