package models

import (
	"bytes"
	"context"
	"testing"

	"asagen/internal/core"
	"asagen/internal/render"
)

// efsmBytes renders an EFSM in both EFSM formats, concatenated.
func efsmBytes(t *testing.T, e *core.EFSM) []byte {
	t.Helper()
	var out []byte
	for _, format := range render.EFSMFormats() {
		r, err := render.NewEFSM(format)
		if err != nil {
			t.Fatal(err)
		}
		art, err := r.RenderEFSM(e)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, art.Data...)
	}
	return out
}

// TestAbstractionsAreSoundOverTheDefaultMachine is the finding that bounds
// where an EFSM may be taken as a view of a cached generation. Every
// abstraction was written against the machine the default options
// generate: over it (annotated or not) and over the unmerged machine the
// generalisation is byte-identical to Entry.EFSM's for every family
// member, while a single-pass-merged or unpruned machine is rejected as
// unsound or coalesces differently for some. The artefact pipeline
// therefore lends its machines to generalisation only under
// core.DefaultBehaviour; should the second half of this test ever stop
// finding a difference, that fallback can go.
func TestAbstractionsAreSoundOverTheDefaultMachine(t *testing.T) {
	ctx := context.Background()
	type optionSet struct {
		name  string
		opts  []core.Option
		sound bool
	}
	sets := []optionSet{
		{"default", nil, true},
		{"without merging", []core.Option{core.WithoutMerging()}, true},
		{"single-pass merge", []core.Option{core.WithSinglePassMerge()}, false},
		{"without pruning", []core.Option{core.WithoutPruning()}, false},
	}
	members, diverged := 0, make([]int, len(sets))
	for _, name := range Names() {
		entry, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, param := range entry.SweepParams {
			members++
			reference, err := entry.EFSM(ctx, param)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, param, err)
			}
			want := efsmBytes(t, reference)
			for i, set := range sets {
				model, err := entry.Build(param)
				if err != nil {
					t.Fatal(err)
				}
				machine, err := core.Generate(ctx, model, set.opts...)
				if err != nil {
					t.Fatalf("%s/%d %s: %v", name, param, set.name, err)
				}
				abs, err := entry.Abstraction(param)
				if err != nil {
					t.Fatal(err)
				}
				view, err := core.GeneralizeEFSM(machine, abs)
				if err != nil || !bytes.Equal(efsmBytes(t, view), want) {
					diverged[i]++
					if set.sound {
						t.Errorf("%s/%d %s: the view is not the reference EFSM (err = %v)", name, param, set.name, err)
					}
				}
			}
		}
	}
	for i, set := range sets {
		t.Logf("%s: %d of %d members rejected or different", set.name, diverged[i], members)
		if !set.sound && diverged[i] == 0 {
			t.Errorf("%s machines generalise like the default for all %d members: the pipeline need not fall back to Entry.EFSM", set.name, members)
		}
	}
}
