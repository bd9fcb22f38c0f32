package artifact

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"asagen/internal/core"
	"asagen/internal/models"
	"asagen/internal/render"
	"asagen/internal/spec"
)

// countBuilds wraps the entry's Build so every call adds to n.
func countBuilds(entry models.Entry, n *atomic.Int64) models.Entry {
	build := entry.Build
	entry.Build = func(param int) (core.Model, error) {
		n.Add(1)
		return build(param)
	}
	return entry
}

// largestTable walks everything reachable from root — unexported fields
// included — and returns the length of the largest map or slice on the
// way, with the path to it. It does not look inside what a memo entry
// holds: that is payload, as large as its model says, and the tables are
// the bookkeeping.
func largestTable(root any) (int, string) {
	var (
		largest int
		where   string
		seen    = map[unsafe.Pointer]bool{}
		walk    func(v reflect.Value, path string)
	)
	record := func(n int, path string) {
		if n > largest {
			largest, where = n, path
		}
	}
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() || seen[v.UnsafePointer()] {
				return
			}
			seen[v.UnsafePointer()] = true
			walk(v.Elem(), path)
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem(), path)
			}
		case reflect.Struct:
			if v.Type().PkgPath() == "container/list" {
				return // a memo's recency list repeats its map
			}
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Map:
			record(v.Len(), path)
			if elem := v.Type().Elem(); elem.Kind() == reflect.Pointer && elem.Elem().PkgPath() == "asagen/internal/memo" {
				return
			}
			for it := v.MapRange(); it.Next(); {
				walk(it.Value(), fmt.Sprintf("%s[%v]", path, it.Key()))
			}
		case reflect.Slice:
			record(v.Len(), path)
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		}
	}
	walk(reflect.ValueOf(root), reflect.TypeOf(root).String())
	return largest, where
}

// uniqueDoc is updatableDoc with a DONE action no other edit has: every
// edit is a rule-level delta to a document never seen before.
func uniqueDoc(edit int) spec.Doc {
	doc := updatableDoc(3)
	doc.Rules[1].Actions = []string{fmt.Sprintf("->done-%d", edit)}
	return doc
}

// TestUpdateModelCostIsFlat: replacing a model for the 500th time builds
// as many models as replacing it for the first — one per live member —
// and every edit still regenerates each member incrementally, from a
// machine the regeneration spends. Builds are counted, not timed.
func TestUpdateModelCostIsFlat(t *testing.T) {
	ctx := context.Background()
	const edits = 500
	params := []int{4, 5, 6}
	var builds atomic.Int64
	compile := func(edit int) *spec.Compiled {
		t.Helper()
		compiled, err := spec.Compile(uniqueDoc(edit))
		if err != nil {
			t.Fatal(err)
		}
		return compiled
	}
	renderAll := func(p *Pipeline) {
		t.Helper()
		for _, param := range params {
			if res := p.Render(ctx, Request{Model: "updatable", Param: param, Format: "text"}); res.Err != nil {
				t.Fatal(res.Err)
			}
		}
	}

	previous := compile(0)
	reg := models.NewRegistry()
	if err := reg.Add(countBuilds(previous.Entry(), &builds)); err != nil {
		t.Fatal(err)
	}
	p := New(WithRegistry(reg))
	renderAll(p)

	var first, last int64
	for edit := 1; edit <= edits; edit++ {
		next := compile(edit)
		delta := spec.Diff(previous.Doc(), next.Doc())
		if delta.IsFull() {
			t.Fatalf("edit %d: delta = %+v, want rule-level", edit, delta)
		}
		before := builds.Load()
		if _, err := p.UpdateModel(countBuilds(next.Entry(), &builds), delta); err != nil {
			t.Fatal(err)
		}
		last = builds.Load() - before
		if edit == 1 {
			first = last
		}
		renderAll(p)
		previous = next
	}
	if first != int64(len(params)) || last != first {
		t.Errorf("UpdateModel built %d models at the first edit and %d at edit %d, want %d at both: one per live member",
			first, last, edits, len(params))
	}
	st := p.Stats().Machine
	if want := int64(edits * len(params)); st.Incremental != want {
		t.Errorf("Incremental = %d, want %d: every member of every edit", st.Incremental, want)
	}
	if st.Entries != len(params) {
		t.Errorf("the cache holds %d machines after %d edits, want %d: a regeneration spends its source", st.Entries, edits, len(params))
	}
	if n, where := largestTable(p); n > len(params)*len(render.Formats()) {
		t.Errorf("%s holds %d records after %d edits of %d members", where, n, edits, len(params))
	}
}

// paramModel is a four-state chain whose fingerprint, not size, follows the
// parameter.
type paramModel struct {
	slowModel
	param int
}

func (m *paramModel) Parameter() int { return m.param }

// TestNothingOutgrowsTheLimit: under SetLimit a stream of distinct ?r=
// values through Render and Machine leaves nothing reachable from the
// pipeline or its generation cache — tier, side table or list — with more
// records than the limit allows.
func TestNothingOutgrowsTheLimit(t *testing.T) {
	ctx := context.Background()
	reg := models.NewRegistry()
	if err := reg.Add(models.Entry{
		Name:         "stream",
		DefaultParam: 1,
		Build: func(param int) (core.Model, error) {
			return &paramModel{slowModel: slowModel{states: 3}, param: param}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	p := New(WithRegistry(reg))
	const limit, stream = 8, 2000
	p.SetLimit(limit)
	for param := 1; param <= stream; param++ {
		if res := p.Render(ctx, Request{Model: "stream", Param: param, Format: "text"}); res.Err != nil {
			t.Fatal(res.Err)
		}
		if _, _, _, err := p.Machine(ctx, "stream", stream+param); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Stats().Machine.Generations; got != 2*stream {
		t.Fatalf("generations = %d, want %d distinct members", got, 2*stream)
	}
	if n, where := largestTable(p); n > limit*len(render.Formats()) {
		t.Errorf("%s holds %d records after %d distinct parameters under limit %d", where, n, 2*stream, limit)
	}
}

// TestPurgeAfterUpdateLeavesNothing: a model replaced and then removed,
// with no render in between, leaves no record of either version — so a
// later full-delta replacement of the same two versions is a generation
// from scratch, not a regeneration from a link the removal forgot.
func TestPurgeAfterUpdateLeavesNothing(t *testing.T) {
	ctx := context.Background()
	v1, err := spec.Compile(updatableDoc(3))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := spec.Compile(updatableDoc(5))
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Model: "updatable", Format: "text"}
	reg := models.NewRegistry()
	p := New(WithRegistry(reg))
	registerAndRender := func() {
		t.Helper()
		if err := reg.Add(v1.Entry()); err != nil {
			t.Fatal(err)
		}
		if res := p.Render(ctx, req); res.Err != nil {
			t.Fatal(res.Err)
		}
	}

	registerAndRender()
	if _, err := p.UpdateModel(v2.Entry(), spec.Diff(v1.Doc(), v2.Doc())); err != nil {
		t.Fatal(err)
	}
	reg.Remove("updatable")
	if dropped := p.PurgeModel("updatable"); dropped != 1 {
		t.Errorf("PurgeModel dropped %d machines, want the one the replacement was to regenerate from", dropped)
	}
	if n, where := largestTable(p); n != 0 {
		t.Errorf("%s still holds %d records after the model was removed", where, n)
	}

	registerAndRender()
	if _, err := p.UpdateModel(v2.Entry(), core.ModelDelta{Full: true}); err != nil {
		t.Fatal(err)
	}
	if res := p.Render(ctx, req); res.Err != nil {
		t.Fatal(res.Err)
	}
	if st := p.Stats().Machine; st.Incremental != 0 {
		t.Errorf("Incremental = %d after a full-delta replacement, want 0 (stats %+v)", st.Incremental, st)
	}
}

// TestColdSweepBuildsEachMemberOnce: one cold pass over the registry cross
// product (`fsmgen -all`) builds each entry's model once, for all of the
// member's formats, not once per format.
func TestColdSweepBuildsEachMemberOnce(t *testing.T) {
	reg := models.NewRegistry()
	builds := map[string]*atomic.Int64{}
	for _, name := range models.Names() {
		entry, err := models.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		builds[name] = new(atomic.Int64)
		if err := reg.Add(countBuilds(entry, builds[name])); err != nil {
			t.Fatal(err)
		}
	}
	p := New(WithRegistry(reg))
	for _, res := range p.RenderAll(context.Background(), p.AllRequests()) {
		if res.Err != nil {
			t.Fatalf("%v: %v", res.Request, res.Err)
		}
	}
	for name, n := range builds {
		if got := n.Load(); got != 1 {
			t.Errorf("%s: Build ran %d times for one family member, want 1", name, got)
		}
	}
}

// TestRendersAcrossConcurrentUpdates: renders racing a stream of in-place
// replacements each get some version's artefact, and once the stream ends
// every member renders the last version, as a pipeline that never saw the
// others does.
func TestRendersAcrossConcurrentUpdates(t *testing.T) {
	ctx := context.Background()
	const edits = 50
	params := []int{4, 5, 6}
	compiled := make([]*spec.Compiled, edits+1)
	for edit := range compiled {
		var err error
		if compiled[edit], err = spec.Compile(uniqueDoc(edit)); err != nil {
			t.Fatal(err)
		}
	}
	reg := models.NewRegistry()
	if err := reg.Add(compiled[0].Entry()); err != nil {
		t.Fatal(err)
	}
	p := New(WithRegistry(reg))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, param := range params {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if res := p.Render(ctx, Request{Model: "updatable", Param: param, Format: "text"}); res.Err != nil {
					t.Errorf("r=%d: %v", param, res.Err)
					return
				}
			}
		}()
	}
	for edit := 1; edit <= edits; edit++ {
		delta := spec.Diff(compiled[edit-1].Doc(), compiled[edit].Doc())
		if _, err := p.UpdateModel(compiled[edit].Entry(), delta); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	freshReg := models.NewRegistry()
	if err := freshReg.Add(compiled[edits].Entry()); err != nil {
		t.Fatal(err)
	}
	fresh := New(WithRegistry(freshReg))
	for _, param := range params {
		req := Request{Model: "updatable", Param: param, Format: "text"}
		got, want := p.Render(ctx, req), fresh.Render(ctx, req)
		if got.Err != nil || want.Err != nil {
			t.Fatalf("r=%d: %v / %v", param, got.Err, want.Err)
		}
		if got.Fingerprint != want.Fingerprint || got.ETag != want.ETag {
			t.Errorf("r=%d: the member renders a version other than the last", param)
		}
	}
	if n := p.members.Stats().Entries; n != len(params) {
		t.Errorf("the member tier holds %d members of one name at %d parameters", n, len(params))
	}
}
