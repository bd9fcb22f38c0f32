package artifact

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"

	"asagen/internal/core"
	"asagen/internal/models"
	"asagen/internal/render"
	"asagen/internal/spec"
)

// TestCrossProductRenders is the registry cross-product golden test:
// every registered model must render in every registered format without
// error, and the machine must be generated exactly once per model.
func TestCrossProductRenders(t *testing.T) {
	reqs := AllRequests()
	wantLen := 0
	for _, name := range models.Names() {
		entry, err := models.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, format := range render.Formats() {
			if entry.Abstraction != nil || !render.IsEFSMFormat(format) {
				wantLen++
			}
		}
	}
	if len(reqs) != wantLen {
		t.Fatalf("AllRequests() = %d requests, want %d", len(reqs), wantLen)
	}

	p := New()
	results := p.RenderAll(context.Background(), reqs)
	if len(results) != len(reqs) {
		t.Fatalf("RenderAll returned %d results for %d requests", len(results), len(reqs))
	}
	for _, res := range results {
		if res.Err != nil {
			t.Errorf("%s/%s: %v", res.Request.Model, res.Request.Format, res.Err)
			continue
		}
		if len(res.Artifact.Data) == 0 {
			t.Errorf("%s/%s: empty artefact", res.Request.Model, res.Request.Format)
		}
		if res.Request.Param <= 0 {
			t.Errorf("%s/%s: parameter not resolved", res.Request.Model, res.Request.Format)
		}
		if !render.IsEFSMFormat(res.Request.Format) && res.Fingerprint.IsZero() {
			t.Errorf("%s/%s: missing fingerprint", res.Request.Model, res.Request.Format)
		}
		if !strings.Contains(res.FileName(), res.Request.Model) ||
			!strings.HasSuffix(res.FileName(), res.Artifact.Ext) {
			t.Errorf("malformed content-addressed name %q", res.FileName())
		}
	}
	st := p.Stats()
	if want := int64(len(models.Names())); st.Machine.Generations != want {
		t.Errorf("generations = %d, want %d (one per model)", st.Machine.Generations, want)
	}
	if st.RenderHits != 0 || st.RenderMisses != int64(len(reqs)) {
		t.Errorf("render hits/misses = %d/%d, want 0/%d", st.RenderHits, st.RenderMisses, len(reqs))
	}
}

// TestResultCarriesWireMetadata: every format's Content-Type and
// extension, as served, stored and put into file names, is pinned here;
// a slip in the format table changes them without any byte of an
// artefact moving.
func TestResultCarriesWireMetadata(t *testing.T) {
	p := New()
	for _, w := range []struct{ format, mediaType, ext string }{
		{"doc", "text/markdown; charset=utf-8", ".md"},
		{"dot", "text/vnd.graphviz; charset=utf-8", ".dot"},
		{"efsm", "text/plain; charset=utf-8", ".txt"},
		{"efsm-dot", "text/vnd.graphviz; charset=utf-8", ".dot"},
		{"go", "text/x-go; charset=utf-8", ".go"},
		{"text", "text/plain; charset=utf-8", ".txt"},
		{"xml", "application/xml; charset=utf-8", ".xml"},
	} {
		res := p.Render(context.Background(), Request{Model: "commit", Param: 4, Format: w.format})
		if res.Err != nil {
			t.Fatalf("%s: %v", w.format, res.Err)
		}
		a := res.Artifact
		if a.Format != w.format || a.MediaType != w.mediaType || a.Ext != w.ext || !strings.HasSuffix(res.FileName(), w.ext) {
			t.Errorf("%s: %q %q %q, file %s; want %q %q", w.format, a.Format, a.MediaType, a.Ext, res.FileName(), w.mediaType, w.ext)
		}
	}
	if got := len(render.Formats()); got != 7 {
		t.Errorf("%d formats, want the seven pinned here", got)
	}
}

// TestDeterminism: fingerprints and rendered bytes are identical across
// pipeline runs and worker-pool sizes.
func TestDeterminism(t *testing.T) {
	reqs := AllRequests()
	configs := []struct {
		name string
		opts []Option
	}{
		{"serial", nil},
		{"jobs-1", []Option{WithJobs(1)}},
		{"jobs-8", []Option{WithJobs(8)}},
	}
	var base []Result
	for _, cfg := range configs {
		results := New(cfg.opts...).RenderAll(context.Background(), reqs)
		if base == nil {
			base = results
			// A second run of an identical fresh pipeline must agree too.
			results = New(cfg.opts...).RenderAll(context.Background(), reqs)
		}
		for i, res := range results {
			if res.Err != nil {
				t.Fatalf("%s: %s/%s: %v", cfg.name, res.Request.Model, res.Request.Format, res.Err)
			}
			if res.Fingerprint != base[i].Fingerprint {
				t.Errorf("%s: %s/%s: fingerprint diverged", cfg.name, res.Request.Model, res.Request.Format)
			}
			if res.Sum != base[i].Sum || !bytes.Equal(res.Artifact.Data, base[i].Artifact.Data) {
				t.Errorf("%s: %s/%s: rendered bytes diverged", cfg.name, res.Request.Model, res.Request.Format)
			}
		}
	}
}

// TestConcurrentSingleFlight: many concurrent requests across formats of
// one model cost exactly one generation.
func TestConcurrentSingleFlight(t *testing.T) {
	p := New()
	var wg sync.WaitGroup
	formats := slices.DeleteFunc(render.Formats(), render.IsEFSMFormat)
	for i := 0; i < 8; i++ {
		for _, format := range formats {
			wg.Add(1)
			go func(format string) {
				defer wg.Done()
				if res := p.Render(context.Background(), Request{Model: "commit", Format: format}); res.Err != nil {
					t.Errorf("%s: %v", format, res.Err)
				}
			}(format)
		}
	}
	wg.Wait()
	st := p.Stats()
	if st.Machine.Generations != 1 {
		t.Errorf("generations = %d, want 1 for one distinct fingerprint", st.Machine.Generations)
	}
	if st.RenderMisses != int64(len(formats)) {
		t.Errorf("render misses = %d, want %d (one per format)", st.RenderMisses, len(formats))
	}
}

func TestStreamDeliversAll(t *testing.T) {
	reqs := AllRequests()
	p := New(WithJobs(4))
	seen := map[Request]bool{}
	for res := range p.Stream(context.Background(), reqs) {
		if res.Err != nil {
			t.Errorf("%s/%s: %v", res.Request.Model, res.Request.Format, res.Err)
		}
		seen[res.Request] = true
	}
	if len(seen) != len(reqs) {
		t.Errorf("stream delivered %d distinct results, want %d", len(seen), len(reqs))
	}
}

func TestRequestErrors(t *testing.T) {
	p := New()
	if res := p.Render(context.Background(), Request{Model: "nonsense", Format: "text"}); !errors.Is(res.Err, ErrUnknownModel) {
		t.Errorf("unknown model: %v", res.Err)
	}
	if res := p.Render(context.Background(), Request{Model: "commit", Format: "nonsense"}); !errors.Is(res.Err, ErrUnknownFormat) {
		t.Errorf("unknown format: %v", res.Err)
	}
	if res := p.Render(context.Background(), Request{Model: "commit", Param: 3, Format: "text"}); res.Err == nil {
		t.Error("invalid parameter accepted")
	}
}

// collidingModel is an adapter — no spec.Compile stood in its way — with
// two messages the go format would give one method name.
type collidingModel struct{ slowModel }

func (m *collidingModel) Name() string       { return "pipeline-colliding" }
func (m *collidingModel) Messages() []string { return []string{"next", "a b", "a_b"} }

// TestGoSourceGateIsErrRender: what the Go renderer's gate refuses reaches
// the caller under the ErrRender sentinel, and only the go format fails.
func TestGoSourceGateIsErrRender(t *testing.T) {
	reg := models.Default().Clone()
	err := reg.Add(models.Entry{
		Name: "pipeline-colliding", ParamName: "chain length", DefaultParam: 2,
		Build: func(states int) (core.Model, error) {
			return &collidingModel{slowModel{states: states}}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := New(WithRegistry(reg))
	res := p.Render(context.Background(), Request{Model: "pipeline-colliding", Format: "go"})
	if !errors.Is(res.Err, ErrRender) || !strings.Contains(res.Err.Error(), "Machine.ReceiveAB") {
		t.Errorf("go format: err = %v, want ErrRender naming Machine.ReceiveAB", res.Err)
	}
	if res := p.Render(context.Background(), Request{Model: "pipeline-colliding", Format: "text"}); res.Err != nil {
		t.Errorf("text format: %v", res.Err)
	}
}

// TestUnsoundAbstractionIsErrRender: a spec whose two states share the
// label L and send x,y on M — one as the single action "x,y", the other as
// "x" then "y" — has no sound EFSM view. Both EFSM formats fail under
// ErrRender; the machine formats render.
func TestUnsoundAbstractionIsErrRender(t *testing.T) {
	c, err := spec.ParseAndCompile([]byte(`{
  "name": "split-lists",
  "components": [{"name": "b", "kind": "bool"}],
  "messages": ["M"],
  "rules": [
    {"message": "M", "when": [{"component": "b", "op": "==", "value": {}}], "set": [{"component": "b", "set": {"offset": 1}}], "actions": ["x,y"]},
    {"message": "M", "actions": ["x", "y"]}
  ],
  "abstraction": {"labels": [{"label": "L"}]}
}`))
	if err != nil {
		t.Fatal(err)
	}
	reg := models.NewRegistry()
	if err := reg.Add(c.Entry()); err != nil {
		t.Fatal(err)
	}
	p := New(WithRegistry(reg))
	for _, format := range []string{"efsm", "efsm-dot"} {
		res := p.Render(context.Background(), Request{Model: "split-lists", Format: format})
		if !errors.Is(res.Err, ErrRender) || !strings.Contains(res.Err.Error(), "abstraction unsound") {
			t.Errorf("%s: err = %v, want ErrRender naming the unsound abstraction", format, res.Err)
		}
	}
	for _, format := range []string{"text", "go"} {
		if res := p.Render(context.Background(), Request{Model: "split-lists", Format: format}); res.Err != nil {
			t.Errorf("%s: %v", format, res.Err)
		}
	}
}

// TestPurgeForcesRegeneration: after Purge the same request regenerates.
func TestPurgeForcesRegeneration(t *testing.T) {
	p := New()
	req := Request{Model: "termination", Format: "dot"}
	if res := p.Render(context.Background(), req); res.Err != nil {
		t.Fatal(res.Err)
	}
	p.Purge()
	if res := p.Render(context.Background(), req); res.Err != nil {
		t.Fatal(res.Err)
	}
	if st := p.Stats(); st.Machine.Generations != 2 {
		t.Errorf("generations = %d after purge, want 2", st.Machine.Generations)
	}
}
