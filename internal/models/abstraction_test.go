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
	for _, format := range []string{"efsm", "efsm-dot"} {
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

// TestAbstractionsAreSoundOverTheDefaultMachine is the finding that lets an
// EFSM always be taken as a view of a cached generation: every option set
// a cache can hold — default, unmerged, unannotated, both — generalises
// byte-identically to Entry.EFSM for every family member. The last row is
// the recorded reason the paper's literal enumeration is an entry point of
// its own (core.GenerateEnumerated) and not an Option a cache could be
// built with: its machines keep unreachable states, which the abstractions
// reject as unsound or coalesce differently.
func TestAbstractionsAreSoundOverTheDefaultMachine(t *testing.T) {
	ctx := context.Background()
	type generator = func(context.Context, core.Model, ...core.Option) (*core.StateMachine, error)
	sets := []struct {
		name     string
		generate generator
		opts     []core.Option
		sound    bool
	}{
		{"default", core.Generate, nil, true},
		{"without merging", core.Generate, []core.Option{core.WithoutMerging()}, true},
		{"without descriptions", core.Generate, []core.Option{core.WithoutDescriptions()}, true},
		{"without both", core.Generate, []core.Option{core.WithoutMerging(), core.WithoutDescriptions()}, true},
		{"enumerated", core.GenerateEnumerated, nil, false},
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
				machine, err := set.generate(ctx, model, set.opts...)
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
			t.Errorf("%s machines generalise like the default for all %d members", set.name, members)
		}
	}
}
