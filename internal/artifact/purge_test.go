package artifact

import (
	"context"
	"testing"

	"asagen/internal/models"
)

// TestPurgeModelEvictsOnlyThatModel: PurgeModel drops the named model's
// generations, EFSMs and rendered artefacts while other models' cached
// work survives.
func TestPurgeModelEvictsOnlyThatModel(t *testing.T) {
	reg := models.Default().Clone()
	p := New(WithRegistry(reg))
	ctx := context.Background()

	for _, req := range []Request{
		{Model: "termination", Format: "text"},
		{Model: "termination", Format: "efsm"},
		{Model: "commit", Format: "text"},
	} {
		if res := p.Render(ctx, req); res.Err != nil {
			t.Fatalf("%v: %v", req, res.Err)
		}
	}
	if got := p.Cache().Stats().Entries; got != 2 {
		t.Fatalf("cached machines = %d, want 2", got)
	}

	if dropped := p.PurgeModel("termination"); dropped != 1 {
		t.Errorf("PurgeModel dropped %d generations, want 1", dropped)
	}
	if got := p.Cache().Stats().Entries; got != 1 {
		t.Errorf("cached machines after purge = %d, want 1 (commit)", got)
	}

	// The surviving model still answers from its memo; the purged one
	// re-renders from scratch.
	st := p.Stats()
	if res := p.Render(ctx, Request{Model: "commit", Format: "text"}); res.Err != nil {
		t.Fatal(res.Err)
	}
	if after := p.Stats(); after.RenderHits != st.RenderHits+1 {
		t.Errorf("commit render was not a memo hit (%d -> %d)", st.RenderHits, after.RenderHits)
	}
	if res := p.Render(ctx, Request{Model: "termination", Format: "text"}); res.Err != nil {
		t.Fatal(res.Err)
	}
	if after := p.Stats(); after.RenderMisses != st.RenderMisses+1 {
		t.Errorf("termination render after purge was not a miss (%d -> %d)", st.RenderMisses, after.RenderMisses)
	}

	// Purging an unknown name is a no-op.
	if dropped := p.PurgeModel("never-rendered"); dropped != 0 {
		t.Errorf("PurgeModel(unknown) dropped %d", dropped)
	}
}

// TestPipelineAllRequestsFollowsRegistry: the per-pipeline cross product
// reflects dynamic registrations and removals on its registry.
func TestPipelineAllRequestsFollowsRegistry(t *testing.T) {
	reg := models.Default().Clone()
	p := New(WithRegistry(reg))

	base := len(p.AllRequests())
	if base == 0 {
		t.Fatal("empty cross product")
	}
	entry, err := reg.Get("termination")
	if err != nil {
		t.Fatal(err)
	}
	entry.Name = "termination-copy"
	if err := reg.Add(entry); err != nil {
		t.Fatal(err)
	}
	if got := len(p.AllRequests()); got != base+7 {
		t.Errorf("cross product after registration = %d, want %d", got, base+7)
	}
	reg.Remove("termination-copy")
	if got := len(p.AllRequests()); got != base {
		t.Errorf("cross product after removal = %d, want %d", got, base)
	}
	// A pipeline on the default registry never saw the clone's entries.
	if got := len(New().AllRequests()); got != base {
		t.Errorf("default-registry cross product = %d, want %d", got, base)
	}
}
