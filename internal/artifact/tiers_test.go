package artifact

import (
	"bytes"
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"asagen/internal/core"
	"asagen/internal/models"
	"asagen/internal/render"
)

// gate parks the work behind a render — machine generation at its first
// Apply, which every format including the EFSM views waits on, or
// resolution at Build — until release is closed.
type gate struct {
	once    sync.Once
	entered chan struct{} // closed by the first arrival
	release chan struct{}
}

func newGate() *gate {
	return &gate{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gate) wait() {
	g.once.Do(func() { close(g.entered) })
	<-g.release
}

type gatedModel struct {
	core.Model
	g *gate
}

func (m gatedModel) Apply(v core.Vector, mi int, out *core.Effect) bool {
	m.g.wait()
	return m.Model.Apply(v, mi, out)
}

// renamed is a built-in scenario registered under another name.
func renamed(t *testing.T, builtin, name string) models.Entry {
	t.Helper()
	entry, err := models.Get(builtin)
	if err != nil {
		t.Fatal(err)
	}
	entry.Name = name
	return entry
}

// gatedEntry is the built-in termination scenario under another name, with
// its generation parked on g. The decorated model is why Entry.Abstraction
// builds its own: the hook cannot assume what Build returns.
func gatedEntry(t *testing.T, name string, g *gate) models.Entry {
	entry := renamed(t, "termination", name)
	build := entry.Build
	entry.Build = func(param int) (core.Model, error) {
		m, err := build(param)
		return gatedModel{Model: m, g: g}, err
	}
	return entry
}

// TestStragglerNeverRepopulates is the straggler guarantee: a render that
// resolved its model before PurgeModel or UpdateModel and finishes after
// it completes for its own caller but leaves nothing behind — no store
// row and no memo entry, so the next request is a render miss, not a hit
// on the departed model's bytes. Removing the epoch check in
// Pipeline.persist fails the store assertion.
func TestStragglerNeverRepopulates(t *testing.T) {
	invalidations := map[string]func(t *testing.T, p *Pipeline, entry models.Entry){
		"PurgeModel": func(t *testing.T, p *Pipeline, entry models.Entry) {
			p.PurgeModel(entry.Name)
		},
		"UpdateModel": func(t *testing.T, p *Pipeline, entry models.Entry) {
			if _, err := p.UpdateModel(entry, core.ModelDelta{Full: true}); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, invalidate := range invalidations {
		for _, format := range []string{"text", "efsm"} {
			t.Run(name+"/"+format, func(t *testing.T) {
				ctx := context.Background()
				s := openStore(t, t.TempDir())
				defer s.Close()
				g := newGate()
				entry := gatedEntry(t, "straggler", g)
				reg := models.NewRegistry()
				if err := reg.Add(entry); err != nil {
					t.Fatal(err)
				}
				p := New(WithStore(s), WithRegistry(reg))
				req := Request{Model: "straggler", Format: format}

				done := make(chan Result, 1)
				go func() { done <- p.Render(ctx, req) }()
				<-g.entered
				invalidate(t, p, entry)
				close(g.release)

				first := <-done
				if first.Err != nil {
					t.Fatalf("the straggler's own caller: %v", first.Err)
				}
				if n := s.Len(); n != 0 {
					t.Errorf("store holds %d rows for the invalidated model, want 0", n)
				}
				before := p.Stats()
				second := p.Render(ctx, req)
				if second.Err != nil {
					t.Fatal(second.Err)
				}
				after := p.Stats()
				if after.HotHits != before.HotHits || after.RenderMisses != before.RenderMisses+1 {
					t.Errorf("next render: hot hits %d -> %d, render misses %d -> %d; want a render miss",
						before.HotHits, after.HotHits, before.RenderMisses, after.RenderMisses)
				}
				if !bytes.Equal(second.Artifact.Data, first.Artifact.Data) {
					t.Error("re-render of the unchanged model diverged from the straggler's bytes")
				}
			})
		}
	}
}

// TestStragglerAcrossReplacement: a render that resolved the departing
// entry (parked here inside its Build, after the registry read and before
// any render-tier entry exists) creates that entry only after UpdateModel
// swept. The render tier is keyed by fingerprint and the EFSM lives on the
// member the straggler resolved, so what the straggler leaves is addressed
// by the departed model's content and the replacement never finds it: the
// next request renders the new model.
func TestStragglerAcrossReplacement(t *testing.T) {
	for _, format := range []string{"text", "efsm", "efsm-dot"} {
		t.Run(format, func(t *testing.T) {
			ctx := context.Background()
			s := openStore(t, t.TempDir())
			defer s.Close()
			g := newGate()
			old := renamed(t, "termination", "replaced")
			build := old.Build
			old.Build = func(param int) (core.Model, error) {
				g.wait()
				return build(param)
			}
			reg := models.NewRegistry()
			if err := reg.Add(old); err != nil {
				t.Fatal(err)
			}
			p := New(WithStore(s), WithRegistry(reg))
			req := Request{Model: "replaced", Param: 4, Format: format}

			done := make(chan Result, 1)
			go func() { done <- p.Render(ctx, req) }()
			<-g.entered
			if _, err := p.UpdateModel(renamed(t, "chord", "replaced"), core.ModelDelta{Full: true}); err != nil {
				t.Fatal(err)
			}
			close(g.release)

			reference := New()
			straggler := <-done
			if straggler.Err != nil {
				t.Fatalf("the straggler's own caller: %v", straggler.Err)
			}
			if want := reference.Render(ctx, Request{Model: "termination", Param: 4, Format: format}); !bytes.Equal(straggler.Artifact.Data, want.Artifact.Data) {
				t.Error("the straggler did not render the entry it resolved")
			}
			if n := s.Len(); n != 0 {
				t.Errorf("store holds %d rows written across the replacement, want 0", n)
			}
			next := p.Render(ctx, req)
			if next.Err != nil {
				t.Fatal(next.Err)
			}
			if want := reference.Render(ctx, Request{Model: "chord", Param: 4, Format: format}); !bytes.Equal(next.Artifact.Data, want.Artifact.Data) || next.ETag != want.ETag {
				t.Error("the request after the replacement did not render the new entry")
			}
			if next.Fingerprint == straggler.Fingerprint {
				t.Error("the replacement shares the departed model's fingerprint")
			}
		})
	}
}

// TestProbeNeitherWaitsNorGenerates: while a render of the key is in
// flight Probe answers "not warm" at once, and on a cold key it leaves no
// trace: nothing generated, nothing retained, a later Render unaffected.
func TestProbeNeitherWaitsNorGenerates(t *testing.T) {
	g := newGate()
	reg := models.NewRegistry()
	if err := reg.Add(gatedEntry(t, "parked", g)); err != nil {
		t.Fatal(err)
	}
	p := New(WithRegistry(reg))
	req := Request{Model: "parked", Format: "text"}

	if _, ok := p.Probe(req); ok {
		t.Fatal("Probe reported a never-rendered key warm")
	}
	if st := p.Stats().Machine; st.Misses != 0 || st.Cancellations != 0 {
		t.Fatalf("cold Probe reached the generation cache: %+v", st)
	}
	if renders := p.renders.Stats().Entries; renders != 0 {
		t.Fatalf("cold Probe retained %d renders", renders)
	}

	done := make(chan Result, 1)
	go func() { done <- p.Render(context.Background(), req) }()
	<-g.entered
	probed := make(chan bool, 1)
	go func() {
		_, ok := p.Probe(req)
		probed <- ok
	}()
	select {
	case ok := <-probed:
		if ok {
			t.Error("Probe reported an in-flight render warm")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Probe waited on an in-flight render")
	}
	close(g.release)
	rendered := <-done
	if rendered.Err != nil {
		t.Fatal(rendered.Err)
	}
	res, ok := p.Probe(req)
	if !ok || &res.Artifact.Data[0] != &rendered.Artifact.Data[0] {
		t.Error("Probe after the render did not serve its shared bytes")
	}
	if st := p.Stats().Machine; st.Generations != 1 || st.Cancellations != 0 {
		t.Errorf("machine stats = %+v, want the one real generation only", st)
	}
}

// TestProbeRetainsStoreHits: a replica's Probe of a store-warm,
// memory-cold key reads and verifies the blob once; the second Probe is
// answered from memory. Probe still never generates.
func TestProbeRetainsStoreHits(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s1 := openStore(t, dir)
	reqs := []Request{{Model: "commit", Format: "text"}, {Model: "commit", Format: "efsm"}}
	want := make([]Result, len(reqs))
	for i, req := range reqs {
		if want[i] = New(WithStore(s1)).Render(ctx, req); want[i].Err != nil {
			t.Fatal(want[i].Err)
		}
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir)
	defer s2.Close()
	p := New(WithStore(s2))
	for i, req := range reqs {
		before := s2.Stats().Hits
		for round := 0; round < 2; round++ {
			res, ok := p.Probe(req)
			if !ok {
				t.Fatalf("%v round %d: Probe missed a store-warm key", req, round)
			}
			if !bytes.Equal(res.Artifact.Data, want[i].Artifact.Data) || res.ETag != want[i].ETag || res.Request != want[i].Request {
				t.Errorf("%v round %d: Probe diverged from the rendered result", req, round)
			}
		}
		if got := s2.Stats().Hits - before; got != 1 {
			t.Errorf("%v: two Probes read the store %d times, want 1", req, got)
		}
	}
	if st := p.Stats(); st.Machine.Misses != 0 || st.HotHits != int64(len(reqs)) {
		t.Errorf("stats = %+v, want no machine lookups and one hot hit per key", st)
	}
}

// chainAbstraction coalesces slowModel's chain into one counting state: each
// member holds a view of its own machine.
type chainAbstraction struct{}

func (chainAbstraction) StateLabel(core.Vector) string { return "COUNTING" }
func (chainAbstraction) GuardComponent(string) int     { return 0 }
func (chainAbstraction) VarOps(string) []core.VarOp {
	return []core.VarOp{{Variable: "i", Delta: 1}}
}
func (chainAbstraction) Symbol(int, int) string { return "" }

// TestSetLimitBoundsEveryTier: under SetLimit a hostile parameter sweep —
// distinct ?r= values, and distinct non-positive raw values that all mean
// the default — cannot grow any tier past its derived bound, and an
// evicted artefact comes back byte-identical.
func TestSetLimitBoundsEveryTier(t *testing.T) {
	ctx := context.Background()
	reg := models.NewRegistry()
	if err := reg.Add(models.Entry{
		Name:         "chain",
		DefaultParam: 8,
		Build:        func(states int) (core.Model, error) { return &slowModel{states: states}, nil },
		Abstraction:  func(int) (core.EFSMAbstraction, error) { return chainAbstraction{}, nil },
	}); err != nil {
		t.Fatal(err)
	}
	p := New(WithRegistry(reg))
	const limit, sweep = 4, 200
	p.SetLimit(limit)
	artefacts := limit * len(render.Formats())

	checkBounds := func(when string) {
		t.Helper()
		for _, tier := range []struct {
			name    string
			entries int
			bound   int
		}{
			{"machines", p.cache.Stats().Entries, limit},
			{"members", p.members.Stats().Entries, limit},
			{"renders", p.renders.Stats().Entries, artefacts},
		} {
			if tier.entries > tier.bound {
				t.Errorf("%s: %s tier holds %d entries, bound %d", when, tier.name, tier.entries, tier.bound)
			}
		}
	}
	serve := func(req Request) Result {
		t.Helper()
		if _, _, err := p.RouteKey(req); err != nil {
			t.Fatalf("%v: %v", req, err)
		}
		res := p.Render(ctx, req)
		if res.Err != nil {
			t.Fatalf("%v: %v", req, res.Err)
		}
		return res
	}

	first := make(map[string]Result)
	for param := 1; param <= sweep; param++ {
		for _, format := range []string{"text", "efsm"} {
			res := serve(Request{Model: "chain", Param: param, Format: format})
			if param == 1 {
				first[format] = res
			}
		}
	}
	checkBounds("after the ?r= sweep")
	if st := p.Stats().Machine; st.Evictions == 0 {
		t.Error("the sweep evicted no machine")
	}
	for raw := 0; raw > -sweep; raw-- {
		if res := serve(Request{Model: "chain", Param: raw, Format: "text"}); res.Request.Param != 8 {
			t.Fatalf("raw parameter %d resolved to %d, want the default 8", raw, res.Request.Param)
		}
	}
	checkBounds("after the raw-parameter sweep")
	// The ?r= sweep evicted the default's machine long ago; all the raw
	// forms together regenerate it once.
	if got := p.Stats().Machine.Generations; got != sweep+1 {
		t.Errorf("generations = %d, want %d: every raw form is the one default artefact", got, sweep+1)
	}

	for format, want := range first {
		before := p.Stats().RenderMisses
		res := serve(Request{Model: "chain", Param: 1, Format: format})
		if p.Stats().RenderMisses != before+1 {
			t.Errorf("%s: parameter 1 survived a %d-value sweep under limit %d", format, sweep, limit)
		}
		if !bytes.Equal(res.Artifact.Data, want.Artifact.Data) || res.ETag != want.ETag {
			t.Errorf("%s: evicted artefact came back different", format)
		}
	}
	checkBounds("after re-requesting evicted keys")
}

// TestEFSMFormatsShareOneMember: concurrent first renders of both EFSM
// formats of one member fill its EFSM from several goroutines at once,
// generate its machine once, and agree with renders made one at a time.
func TestEFSMFormatsShareOneMember(t *testing.T) {
	ctx := context.Background()
	p := New()
	formats := slices.DeleteFunc(render.Formats(), func(f string) bool { return !render.IsEFSMFormat(f) })
	results := make([]Result, 8*len(formats))
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = p.Render(ctx, Request{Model: "commit", Param: 7, Format: formats[i%len(formats)]})
		}()
	}
	wg.Wait()
	reference := New()
	for i, res := range results {
		want := reference.Render(ctx, Request{Model: "commit", Param: 7, Format: formats[i%len(formats)]})
		if res.Err != nil || !bytes.Equal(res.Artifact.Data, want.Artifact.Data) {
			t.Errorf("%s: err %v, or bytes diverge from a render made alone", formats[i%len(formats)], res.Err)
		}
	}
	if st := p.Stats().Machine; st.Generations != 1 {
		t.Errorf("generations = %d, want the member's one", st.Generations)
	}
}
