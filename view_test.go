package asagen_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"testing"

	"asagen"
	"asagen/internal/core"
	"asagen/internal/models"
	"asagen/internal/render"
	"asagen/internal/spec"
)

// viewSpecs are the three shapes of spec the end-to-end benchmark churns:
// the termination port, the leader-lease lifecycle and a counter grid
// that declares no abstraction.
func viewSpecs(t *testing.T) []*asagen.ModelSpec {
	t.Helper()
	scenario, err := os.ReadFile("examples/fleetsim/leader-lease.json")
	if err != nil {
		t.Fatal(err)
	}
	var lease struct{ Spec json.RawMessage }
	if err := json.Unmarshal(scenario, &lease); err != nil {
		t.Fatal(err)
	}
	grid, err := json.Marshal(regenDoc(3, []string{"->done"}))
	if err != nil {
		t.Fatal(err)
	}
	specs := []*asagen.ModelSpec{terminationSpec("termination-spec")}
	for _, data := range [][]byte{lease.Spec, grid} {
		s, err := asagen.ParseModelSpec(data)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	return specs
}

// TestEFSMViewIsTheArtefactItReplaced: for every registry model and three
// spec families, at every sweep parameter, the efsm and efsm-dot artefacts
// a client serves are byte for byte what rendering the reference
// generator's EFSM gives, under every generation option a client can be
// built with: the EFSM is always a view of the cached machine
// (internal/models pins why that is sound).
func TestEFSMViewIsTheArtefactItReplaced(t *testing.T) {
	ctx := context.Background()
	specs := viewSpecs(t)
	// The references are the generators the EFSM formats were served from
	// before they became views of the cached machine: each generates the
	// family member privately and generalises that.
	references := map[string]func(context.Context, int) (*core.EFSM, error){}
	for _, name := range []string{"commit", "commit-redundant", "consensus", "chord", "storage", "termination"} {
		entry, err := models.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		references[name] = entry.EFSM
	}
	for _, s := range specs {
		data, err := s.JSON()
		if err != nil {
			t.Fatal(err)
		}
		compiled, err := spec.ParseAndCompile(data)
		if err != nil {
			t.Fatal(err)
		}
		references[compiled.Name()] = compiled.Entry().EFSM
	}
	type member struct {
		model  string
		param  int
		format string
	}
	want := map[member][]byte{}

	for name, opts := range map[string][]asagen.GenerateOption{
		"default":              nil,
		"without merging":      {asagen.WithoutMerging()},
		"without descriptions": {asagen.WithoutDescriptions()},
	} {
		t.Run(name, func(t *testing.T) {
			client := asagen.NewClient(asagen.WithIsolatedRegistry(), asagen.WithGenerateOptions(opts...))
			for _, s := range specs {
				if err := client.RegisterModel(s); err != nil {
					t.Fatal(err)
				}
			}
			for name := range references {
				info, err := client.Model(name)
				if err != nil {
					t.Fatal(err)
				}
				for _, param := range append([]int{info.DefaultParam}, info.SweepParams...) {
					for _, format := range []string{"efsm", "efsm-dot"} {
						res, err := client.Render(ctx, asagen.Request{Model: info.Name, Param: param, Format: format})
						if !info.HasEFSM {
							if !errors.Is(err, asagen.ErrNoEFSM) {
								t.Errorf("%s r=%d %s: err = %v, want ErrNoEFSM", info.Name, param, format, err)
							}
							continue
						}
						if err != nil {
							t.Fatalf("%s r=%d %s: %v", info.Name, param, format, err)
						}
						key := member{info.Name, param, format}
						if want[key] == nil {
							efsm, err := references[info.Name](ctx, param)
							if err != nil {
								t.Fatalf("%s r=%d: reference: %v", info.Name, param, err)
							}
							renderer, err := render.NewEFSM(format)
							if err != nil {
								t.Fatal(err)
							}
							art, err := renderer.RenderEFSM(efsm)
							if err != nil {
								t.Fatal(err)
							}
							want[key] = art.Data
						}
						if !bytes.Equal(res.Data, want[key]) {
							t.Errorf("%s r=%d %s: artefact differs from the reference generator's", info.Name, param, format)
						}
					}
				}
			}
		})
	}
}
