package artifact

import (
	"context"
	"errors"
	"testing"
	"time"

	"asagen/internal/core"
	"asagen/internal/models"
)

// slowModel is a linear chain whose Apply sleeps, so a pipeline
// generation is reliably in flight when a test cancels it.
type slowModel struct {
	states int
	delay  time.Duration
}

func (m *slowModel) Name() string   { return "pipeline-slow" }
func (m *slowModel) Parameter() int { return m.states }
func (m *slowModel) Components() []core.StateComponent {
	return []core.StateComponent{core.NewIntComponent("i", m.states)}
}
func (m *slowModel) Messages() []string { return []string{"next"} }
func (m *slowModel) Start() core.Vector { return core.Vector{0} }

func (m *slowModel) Apply(v core.Vector, mi int, out *core.Effect) bool {
	if mi != 0 { // only "next", also under collidingModel's messages
		return false
	}
	if m.delay > 0 {
		time.Sleep(m.delay)
	}
	if v[0] == m.states {
		*out = core.Effect{Finished: true}
		return true
	}
	*out = core.Effect{Target: core.Vector{v[0] + 1}}
	return true
}

func (m *slowModel) DescribeState(core.Vector, *core.Text) {}

func init() {
	// The pipeline resolves models through the global registry; register
	// the synthetic slow scenario for this test binary. The parameter is
	// the chain length; delay is fixed so large parameters generate slowly.
	models.Register(models.Entry{
		Name:         "pipeline-slow",
		Description:  "synthetic slow-generation model for cancellation tests",
		ParamName:    "chain length",
		DefaultParam: 8,
		Build: func(states int) (core.Model, error) {
			return &slowModel{states: states, delay: 100 * time.Microsecond}, nil
		},
	})
}

// TestRenderCancellation: cancelling the request context aborts the
// in-flight generation promptly, records a cancellation (not a
// generation) in the stats, leaves no poisoned cache entry, and the next
// request for the same artefact succeeds.
func TestRenderCancellation(t *testing.T) {
	p := New(WithGenerateOptions(core.WithoutMerging(), core.WithoutDescriptions()))
	req := Request{Model: "pipeline-slow", Param: 5000, Format: "text"}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan Result, 1)
	go func() { done <- p.Render(ctx, req) }()

	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Machine.Misses < 1 {
		if time.Now().After(deadline) {
			t.Fatal("generation did not start within 5s")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()

	select {
	case res := <-done:
		if !errors.Is(res.Err, context.Canceled) {
			t.Fatalf("Render error = %v, want context.Canceled", res.Err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("cancelled Render did not return promptly")
	}

	st := p.Stats()
	if st.Machine.Cancellations != 1 || st.Machine.Generations != 0 {
		t.Errorf("stats = %+v, want 1 cancellation and 0 generations", st.Machine)
	}
	if st.Machine.Entries != 0 {
		t.Errorf("cache kept %d entries after cancellation (poisoned entry)", st.Machine.Entries)
	}

	// A fresh context regenerates the artefact successfully. The chain is
	// long, so allow the real generation its time.
	res := p.Render(context.Background(), req)
	if res.Err != nil {
		t.Fatalf("re-render after cancellation: %v", res.Err)
	}
	if len(res.Artifact.Data) == 0 {
		t.Fatal("re-render produced no artefact")
	}
	if st := p.Stats(); st.Machine.Generations != 1 {
		t.Errorf("generations after re-render = %d, want 1", st.Machine.Generations)
	}
}

// TestRenderAllCancellation: a cancelled context fails the whole batch
// with context errors rather than hanging the worker pool.
func TestRenderAllCancellation(t *testing.T) {
	p := New(WithGenerateOptions(core.WithoutMerging(), core.WithoutDescriptions()))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := p.RenderAll(ctx, []Request{
		{Model: "pipeline-slow", Param: 5000, Format: "text"},
		{Model: "pipeline-slow", Param: 5001, Format: "dot"},
	})
	for i, res := range results {
		if !errors.Is(res.Err, context.Canceled) {
			t.Errorf("result %d error = %v, want context.Canceled", i, res.Err)
		}
	}
}
