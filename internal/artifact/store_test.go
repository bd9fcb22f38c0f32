package artifact

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"asagen/internal/core"
	"asagen/internal/models"
	"asagen/internal/store"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRestartWarmth is the persistence acceptance check: a pipeline
// reopened over the store directory of a previous pipeline serves every
// previously rendered artefact from disk — byte-identical, observable as
// store hits, and without generating a single machine.
func TestRestartWarmth(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	reqs := []Request{
		{Model: "commit", Format: "text"},
		{Model: "commit", Format: "dot"},
		{Model: "termination", Format: "text"},
		{Model: "termination", Format: "efsm"},
		{Model: "commit", Param: 7, Format: "efsm"},
		{Model: "commit", Param: 7, Format: "efsm-dot"},
	}

	s1 := openStore(t, dir)
	p1 := New(WithStore(s1))
	before := make(map[Request]Result, len(reqs))
	for _, req := range reqs {
		res := p1.Render(ctx, req)
		if res.Err != nil {
			t.Fatalf("%v: %v", req, res.Err)
		}
		before[req] = res
	}
	if gens := p1.Stats().Machine.Generations; gens == 0 {
		t.Fatal("cold pipeline generated nothing; test is vacuous")
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh pipeline and generation cache over the same dir.
	s2 := openStore(t, dir)
	defer s2.Close()
	p2 := New(WithStore(s2))
	for _, req := range reqs {
		res := p2.Render(ctx, req)
		if res.Err != nil {
			t.Fatalf("restarted %v: %v", req, res.Err)
		}
		want := before[req]
		if !bytes.Equal(res.Artifact.Data, want.Artifact.Data) {
			t.Errorf("%v: bytes diverged across restart", req)
		}
		if res.Sum != want.Sum || res.ETag != want.ETag {
			t.Errorf("%v: validators diverged across restart (%s vs %s)", req, res.ETag, want.ETag)
		}
		if res.Artifact.MediaType != want.Artifact.MediaType || res.Artifact.Ext != want.Artifact.Ext {
			t.Errorf("%v: artefact metadata diverged across restart", req)
		}
	}
	st := p2.Stats()
	if st.Machine.Generations != 0 {
		t.Errorf("generations after restart = %d, want 0 (all served from disk)", st.Machine.Generations)
	}
	if st.Store == nil || st.Store.Hits != int64(len(reqs)) {
		t.Errorf("store stats after restart = %+v, want %d hits", st.Store, len(reqs))
	}
}

// TestFingerprintlessRowsAreNeverHit: before the EFSM formats became views
// of the member's machine their rows were keyed by (model, param) with no
// fingerprint. A directory an older binary wrote may still hold such rows;
// it opens, and the row is never served: every lookup is by fingerprint.
func TestFingerprintlessRowsAreNeverHit(t *testing.T) {
	dir := t.TempDir()
	stale := []byte("an older binary's EFSM artefact")
	sum := fmt.Sprintf("%x", sha256.Sum256(stale))
	if err := os.MkdirAll(filepath.Join(dir, "blobs", sum[:2]), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "blobs", sum[:2], sum[2:]), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	row := fmt.Sprintf(`{"op":"put","model":"termination","param":4,"format":"efsm","sum":"%s","media":"text/plain","ext":".txt","size":%d}`+"\n", sum, len(stale))
	if err := os.WriteFile(filepath.Join(dir, "index.log"), []byte(row), 0o644); err != nil {
		t.Fatal(err)
	}

	s := openStore(t, dir)
	defer s.Close()
	p := New(WithStore(s))
	res := p.Render(context.Background(), Request{Model: "termination", Format: "efsm"})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if bytes.Equal(res.Artifact.Data, stale) || p.Stats().Machine.Generations != 1 {
		t.Errorf("the fingerprint-less row was served: generations = %d", p.Stats().Machine.Generations)
	}
	if n := s.Len(); n != 1 {
		t.Fatalf("store rows = %d, want the new row only", n)
	}
}

// TestPurgeModelEvictsStore: unregistering a model's cached work drops
// its on-disk artefact files too — including machine rows, which carry no
// model name in their key — and the eviction survives a store reopen. The
// other model's rows stay serveable.
func TestPurgeModelEvictsStore(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s := openStore(t, dir)
	p := New(WithStore(s))
	for _, req := range []Request{
		{Model: "termination", Format: "text"},
		{Model: "termination", Format: "efsm"},
		{Model: "commit", Format: "text"},
	} {
		if res := p.Render(ctx, req); res.Err != nil {
			t.Fatalf("%v: %v", req, res.Err)
		}
	}
	if n := s.Len(); n != 3 {
		t.Fatalf("store rows before purge = %d, want 3", n)
	}

	if dropped := p.PurgeModel("termination"); dropped != 1 {
		t.Errorf("PurgeModel dropped %d generations, want 1", dropped)
	}
	if n := s.Len(); n != 1 {
		t.Errorf("store rows after purge = %d, want 1 (commit only)", n)
	}
	// The artefacts directory holds exactly the surviving artefact's file.
	files, err := os.ReadDir(filepath.Join(dir, "artefacts"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Errorf("artefact files after purge = %d, want 1", len(files))
	}

	commit := p.Render(ctx, Request{Model: "commit", Format: "text"})
	if commit.Err != nil {
		t.Fatal(commit.Err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the eviction is durable, and commit is still disk-warm.
	s2 := openStore(t, dir)
	defer s2.Close()
	p2 := New(WithStore(s2))
	if n := s2.Len(); n != 1 {
		t.Errorf("store rows after reopen = %d, want 1", n)
	}
	res := p2.Render(ctx, Request{Model: "termination", Format: "text"})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if got := p2.Stats().Machine.Generations; got != 1 {
		t.Errorf("purged model served without regeneration (generations = %d, want 1)", got)
	}
	res2 := p2.Render(ctx, Request{Model: "commit", Format: "text"})
	if res2.Err != nil {
		t.Fatal(res2.Err)
	}
	if !bytes.Equal(res2.Artifact.Data, commit.Artifact.Data) {
		t.Error("surviving model's bytes diverged across reopen")
	}
}

// TestUpdateModelEvictsStore: replacing a registry entry in place drops
// the previous entry's on-disk artefacts, so a warm store can never serve
// bytes rendered from a superseded model.
func TestUpdateModelEvictsStore(t *testing.T) {
	ctx := context.Background()
	s := openStore(t, t.TempDir())
	defer s.Close()
	reg := models.Default().Clone()
	p := New(WithStore(s), WithRegistry(reg))

	if res := p.Render(ctx, Request{Model: "commit", Format: "text"}); res.Err != nil {
		t.Fatal(res.Err)
	}
	if n := s.Len(); n != 1 {
		t.Fatalf("store rows = %d, want 1", n)
	}
	entry, err := reg.Get("commit")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.UpdateModel(entry, core.ModelDelta{Full: true}); err != nil {
		t.Fatal(err)
	}
	if n := s.Len(); n != 0 {
		t.Errorf("store rows after update = %d, want 0", n)
	}
}

// TestPurgePurgesStore: the blanket Purge empties the attached store too.
func TestPurgePurgesStore(t *testing.T) {
	ctx := context.Background()
	s := openStore(t, t.TempDir())
	defer s.Close()
	p := New(WithStore(s))
	if res := p.Render(ctx, Request{Model: "commit", Format: "text"}); res.Err != nil {
		t.Fatal(res.Err)
	}
	if s.Len() == 0 {
		t.Fatal("nothing persisted; test is vacuous")
	}
	p.Purge()
	if n := s.Len(); n != 0 {
		t.Errorf("store rows after Purge = %d, want 0", n)
	}
}

// TestHotMemoServesRepeatRequests: a repeat request is answered from the
// render tier — same shared bytes, precomputed ETag, and a HotHits tick —
// for both the raw (param 0) and resolved forms of the request.
func TestHotMemoServesRepeatRequests(t *testing.T) {
	ctx := context.Background()
	p := New()
	first := p.Render(ctx, Request{Model: "commit", Format: "text"})
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	if first.ETag == "" || first.ETag != etagFor(first.Sum) {
		t.Fatalf("ETag = %q, want quoted content hash", first.ETag)
	}
	for _, req := range []Request{
		{Model: "commit", Format: "text"},                             // raw
		{Model: "commit", Param: first.Request.Param, Format: "text"}, // resolved
	} {
		before := p.Stats().HotHits
		res := p.Render(ctx, req)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if &res.Artifact.Data[0] != &first.Artifact.Data[0] {
			t.Errorf("%v: repeat request copied the artefact bytes", req)
		}
		if res.ETag != first.ETag {
			t.Errorf("%v: ETag diverged on repeat (%q vs %q)", req, res.ETag, first.ETag)
		}
		if after := p.Stats().HotHits; after != before+1 {
			t.Errorf("%v: HotHits %d -> %d, want +1", req, before, after)
		}
	}
}

// TestConcurrentMissesCoalesce: many concurrent requests for one raw
// request cost one render-memo miss — the flight leader computes, the
// rest share its Result.
func TestConcurrentMissesCoalesce(t *testing.T) {
	p := New()
	const n = 16
	var wg sync.WaitGroup
	results := make([]Result, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = p.Render(context.Background(), Request{Model: "commit", Format: "text"})
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
		if &res.Artifact.Data[0] != &results[0].Artifact.Data[0] {
			t.Errorf("request %d: bytes not shared with the flight leader", i)
		}
	}
	st := p.Stats()
	if st.RenderMisses != 1 {
		t.Errorf("render misses = %d, want 1 for one coalesced request", st.RenderMisses)
	}
	if st.Machine.Generations != 1 {
		t.Errorf("generations = %d, want 1", st.Machine.Generations)
	}
}

// TestPurgeModelDropsHotMemo: after PurgeModel the purged model's hot
// results are gone — a re-registration under the same name can never be
// answered with the departed model's bytes.
func TestPurgeModelDropsHotMemo(t *testing.T) {
	ctx := context.Background()
	p := New()
	if res := p.Render(ctx, Request{Model: "commit", Format: "text"}); res.Err != nil {
		t.Fatal(res.Err)
	}
	if res := p.Render(ctx, Request{Model: "commit", Format: "text"}); res.Err != nil || p.Stats().HotHits != 1 {
		t.Fatalf("warm-up failed: err=%v hotHits=%d", res.Err, p.Stats().HotHits)
	}
	p.PurgeModel("commit")
	if res := p.Render(ctx, Request{Model: "commit", Format: "text"}); res.Err != nil {
		t.Fatal(res.Err)
	}
	if got := p.Stats().HotHits; got != 1 {
		t.Errorf("HotHits after purge = %d, want 1 (request must not hit the stale memo)", got)
	}
}
