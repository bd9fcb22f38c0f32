package artifact

import (
	"context"
	"strings"
	"testing"

	"asagen/internal/models"
	"asagen/internal/spec"
)

func updatableDoc(finishAt int) spec.Doc {
	return spec.Doc{
		Name:         "updatable",
		DefaultParam: 6,
		Components: []spec.Component{
			{Name: "count", Kind: spec.KindInt, Max: spec.ParamValue(0)},
		},
		Messages: []string{"STEP", "DONE"},
		Rules: []spec.Rule{
			{
				Message: "STEP",
				When:    []spec.Cond{{Component: "count", Op: spec.OpLt, Value: spec.ParamValue(0)}},
				Set:     []spec.Assign{{Component: "count", Add: 1}},
			},
			{
				Message: "DONE",
				When:    []spec.Cond{{Component: "count", Op: spec.OpGe, Value: spec.Lit(finishAt)}},
				Actions: []string{"->done"},
				Finish:  true,
			},
		},
		Start: []spec.Value{spec.Lit(0)},
	}
}

// TestUpdateModelRegeneratesIncrementally: replacing a spec-backed model
// through UpdateModel with a rule-level delta reuses the cached machine,
// and the resulting artefact matches a pipeline that never saw the old
// version.
func TestUpdateModelRegeneratesIncrementally(t *testing.T) {
	ctx := context.Background()
	oldCompiled, err := spec.Compile(updatableDoc(3))
	if err != nil {
		t.Fatal(err)
	}
	newCompiled, err := spec.Compile(updatableDoc(5))
	if err != nil {
		t.Fatal(err)
	}

	reg := models.NewRegistry()
	if err := reg.Add(oldCompiled.Entry()); err != nil {
		t.Fatal(err)
	}
	p := New(WithRegistry(reg))
	req := Request{Model: "updatable", Format: "text"}
	if res := p.Render(ctx, req); res.Err != nil {
		t.Fatalf("initial render: %v", res.Err)
	}

	delta := spec.Diff(oldCompiled.Doc(), newCompiled.Doc())
	if delta.IsFull() {
		t.Fatalf("delta = %+v, want rule-level", delta)
	}
	replaced, err := p.UpdateModel(newCompiled.Entry(), delta)
	if err != nil {
		t.Fatalf("UpdateModel: %v", err)
	}
	if !replaced {
		t.Fatal("UpdateModel did not report a replacement")
	}

	res := p.Render(ctx, req)
	if res.Err != nil {
		t.Fatalf("render after update: %v", res.Err)
	}
	st := p.Stats().Machine
	if st.Incremental != 1 {
		t.Errorf("Incremental = %d, want 1 (stats %+v)", st.Incremental, st)
	}

	// A pipeline that only ever knew the new version must agree exactly.
	freshReg := models.NewRegistry()
	if err := freshReg.Add(newCompiled.Entry()); err != nil {
		t.Fatal(err)
	}
	fresh := New(WithRegistry(freshReg))
	want := fresh.Render(ctx, req)
	if want.Err != nil {
		t.Fatalf("fresh render: %v", want.Err)
	}
	if res.Fingerprint != want.Fingerprint {
		t.Errorf("updated fingerprint %s != fresh %s", res.Fingerprint, want.Fingerprint)
	}
	if string(res.Artifact.Data) != string(want.Artifact.Data) {
		t.Error("updated artefact bytes differ from fresh pipeline")
	}
}

// TestUpdateModelFullDeltaRegeneratesFromScratch: a structural edit keeps
// correctness but never takes the incremental path.
func TestUpdateModelFullDeltaRegeneratesFromScratch(t *testing.T) {
	ctx := context.Background()
	oldCompiled, err := spec.Compile(updatableDoc(3))
	if err != nil {
		t.Fatal(err)
	}
	edited := updatableDoc(3)
	edited.Messages = append(edited.Messages, "EXTRA")
	edited.Rules = append(edited.Rules, spec.Rule{Message: "EXTRA", Actions: []string{"->extra"}})
	newCompiled, err := spec.Compile(edited)
	if err != nil {
		t.Fatal(err)
	}

	reg := models.NewRegistry()
	if err := reg.Add(oldCompiled.Entry()); err != nil {
		t.Fatal(err)
	}
	p := New(WithRegistry(reg))
	req := Request{Model: "updatable", Format: "text"}
	if res := p.Render(ctx, req); res.Err != nil {
		t.Fatal(res.Err)
	}

	delta := spec.Diff(oldCompiled.Doc(), newCompiled.Doc())
	if !delta.IsFull() {
		t.Fatalf("delta = %+v, want full", delta)
	}
	if _, err := p.UpdateModel(newCompiled.Entry(), delta); err != nil {
		t.Fatal(err)
	}
	if res := p.Render(ctx, req); res.Err != nil {
		t.Fatal(res.Err)
	}
	if st := p.Stats().Machine; st.Incremental != 0 {
		t.Errorf("Incremental = %d, want 0 for a full delta", st.Incremental)
	}
}

// TestUpdateModelInsertsWhenAbsent: UpdateModel on an unknown name behaves
// as a plain registration.
func TestUpdateModelInsertsWhenAbsent(t *testing.T) {
	compiled, err := spec.Compile(updatableDoc(3))
	if err != nil {
		t.Fatal(err)
	}
	p := New(WithRegistry(models.NewRegistry()))
	replaced, err := p.UpdateModel(compiled.Entry(), spec.Diff(compiled.Doc(), compiled.Doc()))
	if err != nil {
		t.Fatal(err)
	}
	if replaced {
		t.Error("UpdateModel reported a replacement for a new name")
	}
	if res := p.Render(context.Background(), Request{Model: "updatable", Format: "text"}); res.Err != nil {
		t.Fatalf("render after insert: %v", res.Err)
	}
}

// TestUpdateModelDiffsEachMemberItself: the delta UpdateModel is given may
// be stale — read before another write landed — so each member regenerates
// under the delta from its own entry to the new one. Here the second
// replacement's delta is diffed from v0, not from vA, the entry its member
// was built from: it names DONE only, while vA's STEP action must go too.
func TestUpdateModelDiffsEachMemberItself(t *testing.T) {
	ctx := context.Background()
	compile := func(doc spec.Doc) *spec.Compiled {
		t.Helper()
		compiled, err := spec.Compile(doc)
		if err != nil {
			t.Fatal(err)
		}
		return compiled
	}
	v0 := compile(updatableDoc(3))
	docA := updatableDoc(3)
	docA.Rules[0].Actions = []string{"->step-a"}
	vA := compile(docA)
	vB := compile(updatableDoc(5))

	reg := models.NewRegistry()
	if err := reg.Add(v0.Entry()); err != nil {
		t.Fatal(err)
	}
	p := New(WithRegistry(reg))
	req := Request{Model: "updatable", Format: "text"}
	render := func(p *Pipeline) Result {
		t.Helper()
		res := p.Render(ctx, req)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res
	}
	render(p)
	for _, v := range []*spec.Compiled{vA, vB} {
		if _, err := p.UpdateModel(v.Entry(), spec.Diff(v0.Doc(), v.Doc())); err != nil {
			t.Fatal(err)
		}
		render(p)
	}
	got := render(p)

	freshReg := models.NewRegistry()
	if err := freshReg.Add(vB.Entry()); err != nil {
		t.Fatal(err)
	}
	want := render(New(WithRegistry(freshReg)))
	if string(got.Artifact.Data) != string(want.Artifact.Data) {
		t.Errorf("after a stale delta the member renders other bytes than a fresh pipeline (vA's STEP action kept: %t)",
			strings.Contains(string(got.Artifact.Data), "->step-a"))
	}
	if st := p.Stats().Machine; st.Incremental != 2 {
		t.Errorf("Incremental = %d, want 2: both replacements regenerate from the machine before", st.Incremental)
	}
}
