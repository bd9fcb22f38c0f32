package models

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"asagen/internal/core"
	"asagen/internal/render"
	"asagen/internal/termination"
)

// adapters are the hand-written families each embedded document ports.
var adapters = map[string]func(int) (oracle, error){
	"consensus": newConsensusOracle,
	"chord":     newChordOracle,
	"storage":   newStorageOracle,
	"termination": func(k int) (oracle, error) {
		m, err := termination.NewModel(k)
		if err != nil {
			return nil, err
		}
		return terminationOracle{m}, nil
	},
}

type terminationOracle struct{ *termination.Model }

func (m terminationOracle) abstraction() core.EFSMAbstraction {
	return termination.NewAbstraction(m.Model)
}

// TestEmbeddedSpecsRenderLikeTheirAdapters is the port's contract: every
// family compiled from an embedded document renders, at every sweep
// parameter and in every format, the bytes its hand-written adapter
// renders, and generates the same machine without merging or descriptions.
func TestEmbeddedSpecsRenderLikeTheirAdapters(t *testing.T) {
	ctx := context.Background()
	files, err := documents.ReadDir(".")
	if err != nil || len(files) != len(adapters) {
		t.Fatalf("%d documents for %d adapters (%v)", len(files), len(adapters), err)
	}
	for _, f := range files {
		name := strings.TrimSuffix(f.Name(), ".json")
		entry, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if entry.Spec == nil {
			t.Errorf("%s: the entry is not compiled from a document", name)
		}
		for _, param := range entry.SweepParams {
			t.Run(fmt.Sprintf("%s/p=%d", name, param), func(t *testing.T) {
				model, err := entry.Build(param)
				if err != nil {
					t.Fatal(err)
				}
				adapter, err := adapters[name](param)
				if err != nil {
					t.Fatal(err)
				}
				for set, opt := range map[string]core.Option{
					"without merging":      core.WithoutMerging(),
					"without descriptions": core.WithoutDescriptions(),
				} {
					if got, want := generate(t, model, opt), generate(t, adapter, opt); got.Fingerprint() != want.Fingerprint() {
						t.Errorf("%s: the machine differs from the adapter's", set)
					}
				}
				machine, reference := generate(t, model), generate(t, adapter)
				efsm, err := entry.EFSM(ctx, param)
				if err != nil {
					t.Fatal(err)
				}
				referenceEFSM, err := core.GenerateEFSM(ctx, adapter, adapter.abstraction())
				if err != nil {
					t.Fatal(err)
				}
				for _, format := range render.Formats() {
					got, want := renderFormat(t, format, machine, efsm), renderFormat(t, format, reference, referenceEFSM)
					if !bytes.Equal(got, want) {
						t.Errorf("%s: %d bytes, the adapter's %d", format, len(got), len(want))
					}
				}
			})
		}
	}
}

func generate(t *testing.T, m core.Model, opts ...core.Option) *core.StateMachine {
	t.Helper()
	machine, err := core.Generate(context.Background(), m, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return machine
}

// renderFormat renders the machine, or for an EFSM format the EFSM.
func renderFormat(t *testing.T, format string, m *core.StateMachine, e *core.EFSM) []byte {
	t.Helper()
	var art render.Artifact
	var err error
	var f *render.Format
	if render.IsEFSMFormat(format) {
		if f, err = render.NewEFSM(format); err == nil {
			art, err = f.RenderEFSM(e)
		}
	} else {
		if f, err = render.New(format); err == nil {
			art, err = f.Render(m)
		}
	}
	if err != nil {
		t.Fatalf("%s: %v", format, err)
	}
	return art.Data
}
