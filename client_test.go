package asagen_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"asagen"
	"asagen/internal/core"
	"asagen/internal/models"
)

// sdkSlowModel backs the facade-level cancellation test: a linear chain
// whose Apply sleeps, registered once for this test binary.
type sdkSlowModel struct {
	states int
}

func (m *sdkSlowModel) Name() string   { return "sdk-slow" }
func (m *sdkSlowModel) Parameter() int { return m.states }
func (m *sdkSlowModel) Components() []core.StateComponent {
	return []core.StateComponent{core.NewIntComponent("i", m.states)}
}
func (m *sdkSlowModel) Messages() []string { return []string{"next"} }
func (m *sdkSlowModel) Start() core.Vector { return core.Vector{0} }

func (m *sdkSlowModel) Apply(v core.Vector, mi int, out *core.Effect) bool {
	msg := m.Messages()[mi]
	if msg != "next" {
		return false
	}
	time.Sleep(100 * time.Microsecond)
	if v[0] == m.states {
		*out = core.Effect{Finished: true}
		return true
	}
	*out = core.Effect{Target: core.Vector{v[0] + 1}}
	return true
}

func (m *sdkSlowModel) DescribeState(core.Vector, *core.Text) {}

var registerSlow = sync.OnceFunc(func() {
	models.Register(models.Entry{
		Name:         "sdk-slow",
		Description:  "synthetic slow-generation model for facade cancellation tests",
		ParamName:    "chain length",
		DefaultParam: 8,
		Build:        func(states int) (core.Model, error) { return &sdkSlowModel{states: states}, nil },
	})
})

func TestClientModels(t *testing.T) {
	client := asagen.NewClient()
	infos := client.Models()
	if len(infos) < 4 {
		t.Fatalf("Models() returned %d entries, want at least the 4 built-ins", len(infos))
	}
	byName := make(map[string]asagen.ModelInfo, len(infos))
	for _, m := range infos {
		byName[m.Name] = m
	}
	commit, ok := byName["commit"]
	if !ok {
		t.Fatal("commit model missing")
	}
	if commit.ParamName != "replication factor" || commit.DefaultParam != 4 || !commit.HasEFSM {
		t.Errorf("commit info = %+v", commit)
	}
	if commit.Vocabulary != asagen.VocabularyCommit {
		t.Errorf("commit vocabulary = %q", commit.Vocabulary)
	}
	if len(commit.SweepParams) == 0 {
		t.Error("commit sweep params empty")
	}

	if _, err := client.Model("nonsense"); !errors.Is(err, asagen.ErrUnknownModel) {
		t.Errorf("Model(nonsense) error = %v, want ErrUnknownModel", err)
	} else if !strings.Contains(err.Error(), "known:") {
		t.Errorf("unknown-model error %q does not name the registry", err)
	}
}

func TestClientGenerate(t *testing.T) {
	client := asagen.NewClient()
	ctx := context.Background()
	machine, err := client.Generate(ctx, "commit", asagen.WithParam(4))
	if err != nil {
		t.Fatal(err)
	}
	if machine.ModelName() != "commit" || machine.Parameter() != 4 {
		t.Errorf("machine identity = %s/%d", machine.ModelName(), machine.Parameter())
	}
	st := machine.Stats()
	if st.InitialStates != 512 || st.FinalStates != 33 {
		t.Errorf("stats = %+v, want the paper's 512 -> 33", st)
	}
	if f, ok := machine.FaultTolerance(); !ok || f != 1 {
		t.Errorf("fault tolerance = %d,%v, want 1,true", f, ok)
	}
	if len(machine.Fingerprint()) != 64 {
		t.Errorf("fingerprint %q is not 64 hex chars", machine.Fingerprint())
	}
	if machine.StartState() == "" || len(machine.StateNames()) != 33 {
		t.Errorf("state inventory: start %q, %d names", machine.StartState(), len(machine.StateNames()))
	}

	// Default parameter resolution and memoisation.
	again, err := client.Generate(ctx, "commit")
	if err != nil {
		t.Fatal(err)
	}
	if again.Parameter() != 4 {
		t.Errorf("default parameter = %d, want 4", again.Parameter())
	}
	if st := client.Stats(); st.Generations != 1 {
		t.Errorf("generations = %d, want 1 (memoised)", st.Generations)
	}

	if _, err := client.Generate(ctx, "nonsense"); !errors.Is(err, asagen.ErrUnknownModel) {
		t.Errorf("Generate(nonsense) error = %v, want ErrUnknownModel", err)
	}
	if _, err := client.Generate(ctx, "commit", asagen.WithParam(3)); err == nil {
		t.Error("replication factor 3 accepted")
	}
}

func TestClientGenerateWithoutCache(t *testing.T) {
	client := asagen.NewClient()
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := client.Generate(ctx, "termination", asagen.WithoutCache()); err != nil {
			t.Fatal(err)
		}
	}
	if st := client.Stats(); st.Generations != 0 || st.CachedMachines != 0 {
		t.Errorf("stats = %+v, want uncached generations unrecorded and nothing memoised", st)
	}
}

func TestClientGeneratePerCallOptions(t *testing.T) {
	client := asagen.NewClient(asagen.WithIsolatedRegistry())
	ctx := context.Background()
	// The redundant commit reading has pre-merge redundancy, so merging
	// visibly shrinks the machine.
	merged, err := client.Generate(ctx, "commit-redundant")
	if err != nil {
		t.Fatal(err)
	}
	unmerged, err := client.Generate(ctx, "commit-redundant", asagen.WithoutMerging())
	if err != nil {
		t.Fatal(err)
	}
	if merged.Stats().FinalStates >= unmerged.Stats().FinalStates {
		t.Errorf("merged %d states, unmerged %d: merging had no effect",
			merged.Stats().FinalStates, unmerged.Stats().FinalStates)
	}
	if merged.Fingerprint() == unmerged.Fingerprint() {
		t.Error("different generation options produced equal fingerprints")
	}
	// Each behaviour set memoises separately.
	if _, err := client.Generate(ctx, "commit-redundant", asagen.WithoutMerging()); err != nil {
		t.Fatal(err)
	}
	if st := client.Stats(); st.Generations != 2 || st.CachedMachines != 2 {
		t.Errorf("stats = %+v, want 2 generations and 2 cached machines (one per option set)", st)
	}

	// Every option set lives in the client's one cache: unregistering the
	// model purges all of them, and one limit bounds all of them.
	if err := client.UnregisterModel("commit-redundant"); err != nil {
		t.Fatal(err)
	}
	if st := client.Stats(); st.CachedMachines != 0 {
		t.Errorf("cached machines after UnregisterModel = %d, want 0", st.CachedMachines)
	}
	limited := asagen.NewClient(asagen.WithCacheLimit(1))
	for _, opts := range [][]asagen.GenerateOption{nil, {asagen.WithoutMerging()}} {
		if _, err := limited.Generate(ctx, "commit-redundant", opts...); err != nil {
			t.Fatal(err)
		}
		if st := limited.Stats(); st.CachedMachines > 1 {
			t.Errorf("cached machines = %d under WithCacheLimit(1)", st.CachedMachines)
		}
	}
}

func TestClientRender(t *testing.T) {
	client := asagen.NewClient()
	ctx := context.Background()
	res, err := client.Render(ctx, asagen.Request{Model: "commit", Format: "dot"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Param != 4 {
		t.Errorf("param resolved to %d, want the default 4", res.Param)
	}
	if !strings.HasPrefix(string(res.Data), "digraph") {
		t.Errorf("dot artefact starts %q", string(res.Data[:min(20, len(res.Data))]))
	}
	if res.MediaType == "" || res.Ext == "" || len(res.ContentHash) != 64 || res.Fingerprint == "" {
		t.Errorf("result metadata incomplete: %+v", res)
	}
	if !strings.HasPrefix(res.FileName(), "commit-r4.dot.") {
		t.Errorf("FileName = %q", res.FileName())
	}

	// The cached pipeline path and the direct Machine path render
	// identical bytes.
	machine, err := client.Generate(ctx, "commit")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := machine.Render("dot")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.Data, res.Data) {
		t.Error("Machine.Render differs from Client.Render")
	}

	if _, err := client.Render(ctx, asagen.Request{Model: "commit", Format: "nonsense"}); !errors.Is(err, asagen.ErrUnknownFormat) {
		t.Errorf("unknown format error = %v, want ErrUnknownFormat", err)
	} else if !strings.Contains(err.Error(), "known:") {
		t.Errorf("unknown-format error %q does not name the registry", err)
	}
	if _, err := client.Render(ctx, asagen.Request{Model: "nonsense", Format: "text"}); !errors.Is(err, asagen.ErrUnknownModel) {
		t.Errorf("unknown model error = %v, want ErrUnknownModel", err)
	}

	// EFSM artefacts flow through the same surface.
	efsm, err := client.Render(ctx, asagen.Request{Model: "termination", Format: "efsm"})
	if err != nil {
		t.Fatal(err)
	}
	machine, err = client.Generate(ctx, "termination")
	if err != nil {
		t.Fatal(err)
	}
	if efsm.Fingerprint != machine.Fingerprint() {
		t.Errorf("EFSM artefact fingerprint %q is not its machine's %q", efsm.Fingerprint, machine.Fingerprint())
	}
	if len(efsm.Data) == 0 {
		t.Error("empty EFSM artefact")
	}
}

func TestClientRenderGoPackage(t *testing.T) {
	client := asagen.NewClient()
	machine, err := client.Generate(context.Background(), "commit")
	if err != nil {
		t.Fatal(err)
	}
	res, err := machine.Render("go", asagen.WithGoPackage("demo"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(res.Data), "package demo") {
		t.Error("WithGoPackage did not set the package clause")
	}
	// A clause that is no identifier, or one nothing could import, fails
	// the render; no artefact is written with it.
	for _, pkg := range []string{"two words", "_", "func", "a\x00"} {
		if res, err := machine.Render("go", asagen.WithGoPackage(pkg)); !errors.Is(err, asagen.ErrRender) || len(res.Data) != 0 {
			t.Errorf("WithGoPackage(%q): err = %v, %d bytes; want ErrRender and none", pkg, err, len(res.Data))
		}
	}
	// An EFSM format is the family's, not one member's: the error is the
	// unknown-format sentinel and points at the public call that serves
	// it, not at an internal one.
	for _, format := range []string{"efsm", "efsm-dot"} {
		_, err := machine.Render(format)
		if !errors.Is(err, asagen.ErrUnknownFormat) || !strings.Contains(err.Error(), "Client.Render") ||
			strings.Contains(err.Error(), "NewEFSM") || strings.Contains(err.Error(), "render:") {
			t.Errorf("Machine.Render(%q): err = %v; want ErrUnknownFormat naming Client.Render", format, err)
		}
	}
	if _, err := machine.Render("nonsense"); !errors.Is(err, asagen.ErrUnknownFormat) {
		t.Errorf("Machine.Render(nonsense): err = %v; want ErrUnknownFormat", err)
	}
}

func TestClientRenderAllAndStream(t *testing.T) {
	client := asagen.NewClient()
	ctx := context.Background()
	reqs := client.AllRequests()
	if len(reqs) == 0 {
		t.Fatal("empty cross product")
	}

	ordered := make([]asagen.Result, 0, len(reqs))
	for i, res := range client.RenderAll(ctx, reqs) {
		if res.Err != nil {
			t.Fatalf("request %d (%s/%s): %v", i, res.Model, res.Format, res.Err)
		}
		if res.Model != reqs[i].Model || res.Format != reqs[i].Format {
			t.Fatalf("result %d out of order: %s/%s", i, res.Model, res.Format)
		}
		ordered = append(ordered, res)
	}
	if len(ordered) != len(reqs) {
		t.Fatalf("RenderAll yielded %d results for %d requests", len(ordered), len(reqs))
	}

	streamed := 0
	for res := range client.Stream(ctx, reqs) {
		if res.Err != nil {
			t.Fatalf("stream %s/%s: %v", res.Model, res.Format, res.Err)
		}
		streamed++
	}
	if streamed != len(reqs) {
		t.Errorf("Stream yielded %d results, want %d", streamed, len(reqs))
	}

	// Early break must not deadlock or leak (buffered delivery).
	for range client.Stream(ctx, reqs) {
		break
	}

	// One generation per distinct model despite many formats and passes.
	if st, want := client.Stats(), len(client.Models()); int(st.Generations) != want {
		t.Errorf("generations = %d, want one per registered built-in model (%d)", st.Generations, want)
	}
}

func TestClientCancellation(t *testing.T) {
	registerSlow()
	client := asagen.NewClient(asagen.WithGenerateOptions(asagen.WithoutMerging(), asagen.WithoutDescriptions()))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := client.Generate(ctx, "sdk-slow", asagen.WithParam(5000))
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for client.Stats().CacheMisses < 1 {
		if time.Now().After(deadline) {
			t.Fatal("generation did not start within 5s")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Generate error = %v, want context.Canceled", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("cancelled Generate did not return promptly")
	}
	st := client.Stats()
	if st.CancelledGenerations != 1 || st.Generations != 0 || st.CachedMachines != 0 {
		t.Errorf("stats = %+v, want one cancellation, nothing completed or cached", st)
	}

	// A fresh context succeeds against the same (uncached) fingerprint.
	if _, err := client.Generate(context.Background(), "sdk-slow", asagen.WithParam(5000)); err != nil {
		t.Fatalf("regeneration after cancellation: %v", err)
	}
}

func TestClientConcurrentSingleGeneration(t *testing.T) {
	client := asagen.NewClient()
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := client.Generate(ctx, "consensus", asagen.WithParam(5)); err != nil {
				t.Errorf("concurrent generate: %v", err)
			}
		}()
	}
	wg.Wait()
	if st := client.Stats(); st.Generations != 1 {
		t.Errorf("generations = %d, want 1 under concurrency", st.Generations)
	}
}

func TestClientCacheLimit(t *testing.T) {
	client := asagen.NewClient(asagen.WithCacheLimit(1))
	ctx := context.Background()
	for _, param := range []int{1, 2, 4} {
		if _, err := client.Generate(ctx, "termination", asagen.WithParam(param)); err != nil {
			t.Fatal(err)
		}
	}
	st := client.Stats()
	if st.CachedMachines != 1 {
		t.Errorf("cached machines = %d, want the limit of 1", st.CachedMachines)
	}
	if st.CacheEvictions != 2 {
		t.Errorf("evictions = %d, want 2", st.CacheEvictions)
	}
}

func TestClientPurge(t *testing.T) {
	client := asagen.NewClient()
	ctx := context.Background()
	if _, err := client.Generate(ctx, "commit"); err != nil {
		t.Fatal(err)
	}
	client.Purge()
	if st := client.Stats(); st.CachedMachines != 0 {
		t.Errorf("cached machines after purge = %d", st.CachedMachines)
	}
}

func TestInstanceExecution(t *testing.T) {
	client := asagen.NewClient()
	machine, err := client.Generate(context.Background(), "commit", asagen.WithParam(4))
	if err != nil {
		t.Fatal(err)
	}
	var actions []string
	inst, err := machine.NewInstance(func(a string) { actions = append(actions, a) })
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range []string{"FREE", "UPDATE", "VOTE", "VOTE", "COMMIT", "COMMIT"} {
		if _, err := inst.Deliver(msg); err != nil {
			t.Fatalf("deliver %s: %v", msg, err)
		}
	}
	if !inst.Finished() {
		t.Error("round did not finish")
	}
	if len(actions) == 0 {
		t.Error("no actions dispatched")
	}
	inst.Reset()
	if inst.Finished() {
		t.Error("reset instance still finished")
	}
	if inst.StateName() != machine.StartState() {
		t.Errorf("reset state %q != start %q", inst.StateName(), machine.StartState())
	}
}

// TestScenarioModelsFirstClass pins the scenario expansion: the registry
// serves at least six models, the chord and storage scenarios generate
// through the facade with parameterized redundancy, expose their fault
// tolerance, render in every registered format, and execute through the
// interpreter.
func TestScenarioModelsFirstClass(t *testing.T) {
	client := asagen.NewClient()
	ctx := context.Background()

	infos := client.Models()
	if len(infos) < 6 {
		t.Fatalf("Models() lists %d scenarios, want >= 6", len(infos))
	}
	names := map[string]asagen.ModelInfo{}
	for _, m := range infos {
		names[m.Name] = m
	}
	for _, want := range []string{"chord", "storage"} {
		if _, ok := names[want]; !ok {
			t.Fatalf("Models() missing %q (got %v)", want, infos)
		}
		if !names[want].HasEFSM {
			t.Errorf("model %q declares no EFSM generalisation", want)
		}
	}

	// Redundancy parameter → fault tolerance, per scenario semantics.
	cases := []struct {
		model string
		param int
		wantF int
	}{
		{"chord", 4, 3}, // successor-list length s tolerates s-1 failures
		{"chord", 8, 7},
		{"storage", 4, 1}, // replication factor r tolerates f = (r-1)/3
		{"storage", 13, 4},
	}
	for _, c := range cases {
		machine, err := client.Generate(ctx, c.model, asagen.WithParam(c.param))
		if err != nil {
			t.Fatalf("Generate(%s, %d): %v", c.model, c.param, err)
		}
		f, ok := machine.FaultTolerance()
		if !ok || f != c.wantF {
			t.Errorf("%s r=%d: FaultTolerance() = %d,%v, want %d", c.model, c.param, f, ok, c.wantF)
		}
		if st := machine.Stats(); st.FinalStates == 0 || st.Transitions == 0 {
			t.Errorf("%s r=%d: empty machine (%+v)", c.model, c.param, st)
		}
	}

	// Every registered format renders both scenarios, deterministically.
	for _, model := range []string{"chord", "storage"} {
		for _, format := range client.Formats() {
			first, err := client.Render(ctx, asagen.Request{Model: model, Format: format})
			if err != nil {
				t.Fatalf("Render(%s, %s): %v", model, format, err)
			}
			if len(first.Data) == 0 || first.ContentHash == "" {
				t.Fatalf("Render(%s, %s): empty artefact", model, format)
			}
			again, err := asagen.NewClient().Render(ctx, asagen.Request{Model: model, Format: format})
			if err != nil {
				t.Fatal(err)
			}
			if again.ContentHash != first.ContentHash {
				t.Errorf("Render(%s, %s) not byte-stable across clients", model, format)
			}
		}
	}

	// The generated machines execute through the interpreter: one chord
	// join/stabilize/leave lifecycle, one storage store/fetch round trip.
	chordMachine, err := client.Generate(ctx, "chord", asagen.WithParam(2))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := chordMachine.NewInstance(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range []string{"JOIN", "STABILIZE", "NOTIFY", "SUCC_FAIL", "LEAVE"} {
		if _, err := inst.Deliver(msg); err != nil {
			t.Fatalf("chord deliver %s: %v", msg, err)
		}
	}
	if !inst.Finished() {
		t.Error("chord lifecycle did not finish")
	}

	storageMachine, err := client.Generate(ctx, "storage", asagen.WithParam(4))
	if err != nil {
		t.Fatal(err)
	}
	inst, err = storageMachine.NewInstance(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range []string{"STORE", "STORE_ACK", "STORE_ACK", "STORE_ACK", "FETCH", "FETCH_MISS", "FETCH_OK"} {
		if _, err := inst.Deliver(msg); err != nil {
			t.Fatalf("storage deliver %s: %v", msg, err)
		}
	}
	if !inst.Finished() {
		t.Error("storage round trip did not finish")
	}
}
