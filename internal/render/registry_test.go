package render

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

// wire is each format's metadata as HTTP responses, the store's rows and
// file names carry it. A change here changes what clients see.
var wire = []struct {
	format, mediaType, ext string
	efsm                   bool
}{
	{"doc", "text/markdown; charset=utf-8", ".md", false},
	{"dot", "text/vnd.graphviz; charset=utf-8", ".dot", false},
	{"efsm", "text/plain; charset=utf-8", ".txt", true},
	{"efsm-dot", "text/vnd.graphviz; charset=utf-8", ".dot", true},
	{"go", "text/x-go; charset=utf-8", ".go", false},
	{"text", "text/plain; charset=utf-8", ".txt", false},
	{"xml", "application/xml; charset=utf-8", ".xml", false},
}

// TestRegistryCoversAllFormats: Formats lists exactly the seven formats,
// sorted and each once, and each is a machine or an EFSM format as New,
// NewEFSM and IsEFSMFormat all say.
func TestRegistryCoversAllFormats(t *testing.T) {
	var want []string
	for _, w := range wire {
		want = append(want, w.format)
	}
	got := Formats()
	if !slices.Equal(got, want) || !slices.IsSorted(got) || len(slices.Compact(slices.Clone(got))) != len(got) {
		t.Fatalf("Formats() = %v, want %v", got, want)
	}
	for _, w := range wire {
		_, machineErr := New(w.format)
		_, efsmErr := NewEFSM(w.format)
		if IsEFSMFormat(w.format) != w.efsm || (machineErr == nil) == w.efsm || (efsmErr == nil) != w.efsm || !Known(w.format) {
			t.Errorf("%s: IsEFSMFormat %v, New err %v, NewEFSM err %v; want EFSM format %v",
				w.format, IsEFSMFormat(w.format), machineErr, efsmErr, w.efsm)
		}
	}
}

func TestRegistryErrors(t *testing.T) {
	if _, err := New("nonsense"); !errors.Is(err, ErrUnknownFormat) {
		t.Errorf("New(nonsense) = %v, want ErrUnknownFormat", err)
	}
	if _, err := NewEFSM("nonsense"); !errors.Is(err, ErrUnknownFormat) {
		t.Errorf("NewEFSM(nonsense) = %v, want ErrUnknownFormat", err)
	}
	// Kind mismatches are rejected with a pointer to the right call.
	if _, err := New("efsm"); err == nil {
		t.Error("New(efsm) accepted an EFSM format")
	}
	if _, err := NewEFSM("text"); err == nil {
		t.Error("NewEFSM(text) accepted a machine format")
	}
	if Known("nonsense") || IsEFSMFormat("nonsense") || !Known("dot") {
		t.Error("Known misreports the table")
	}
}

// TestNewReturnsFreshInstances: a package name given to GoSource holds for
// that call only; the go format goes on deriving its own.
func TestNewReturnsFreshInstances(t *testing.T) {
	m := commitMachine(t, 4)
	given, err := GoSource(m, "mutated")
	if err != nil {
		t.Fatal(err)
	}
	derived, err := must(New("go")).Render(m)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(given.String(), "\npackage mutated\n") || !strings.Contains(derived.String(), "\npackage bftcommit4\n") {
		t.Error("a package name given to one render reached another")
	}
	if given.Format != derived.Format || given.MediaType != derived.MediaType || given.Ext != derived.Ext {
		t.Errorf("GoSource labels its artefact %+v, the go format %+v", given, derived)
	}
}

// TestArtifactMetadata: every format stamps its name, media type and
// extension into the artefact, as the wire table has them.
func TestArtifactMetadata(t *testing.T) {
	machine := commitMachine(t, 4)
	efsm := commitEFSM(t, 4)
	for _, w := range wire {
		var art Artifact
		var err error
		if w.efsm {
			art, err = must(NewEFSM(w.format)).RenderEFSM(efsm)
		} else {
			art, err = must(New(w.format)).Render(machine)
		}
		if err != nil {
			t.Fatalf("%s: %v", w.format, err)
		}
		if art.Format != w.format || art.MediaType != w.mediaType || art.Ext != w.ext || len(art.Data) == 0 {
			t.Errorf("%s: artefact metadata %q %q %q, want %q %q", w.format, art.Format, art.MediaType, art.Ext, w.mediaType, w.ext)
		}
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
