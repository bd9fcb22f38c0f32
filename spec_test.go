package asagen_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"

	"asagen"
)

// terminationSpec ports the hand-written internal/termination adapter to
// the public authoring API, rule for rule and note for note. The artefact
// equivalence test below is the proof that the declarative surface loses
// nothing against a hand-written adapter.
func terminationSpec(name string) *asagen.ModelSpec {
	s := asagen.NewModelSpec(name).
		ModelName("termination-detection").
		Description("declarative port of the termination-detection scenario").
		Parameter("fan-out bound", 4, 1, 2, 4, 8).
		Bool("active").
		Int("outstanding", asagen.Param()).
		Messages("TASK", "SPAWN", "CHILD_DONE", "IDLE")

	s.Rule("TASK").
		When("active", "==", asagen.Lit(0)).
		Set("active", asagen.Lit(1)).
		Note("Activated by an incoming task.")
	s.Rule("SPAWN").
		When("active", "==", asagen.Lit(1)).
		When("outstanding", "<", asagen.Param()).
		Add("outstanding", 1).
		Do("->task").
		Note("Delegate a child task and count it outstanding.")
	s.Rule("CHILD_DONE").
		When("outstanding", "==", asagen.Lit(1)).
		When("active", "==", asagen.Lit(0)).
		Add("outstanding", -1).
		Do("->done").
		Note("One delegated task completed.",
			"Idle with no outstanding children: report completion.").
		Finish()
	s.Rule("CHILD_DONE").
		When("outstanding", ">=", asagen.Lit(1)).
		Add("outstanding", -1).
		Note("One delegated task completed.")
	s.Rule("IDLE").
		When("active", "==", asagen.Lit(1)).
		When("outstanding", "==", asagen.Lit(0)).
		Set("active", asagen.Lit(0)).
		Do("->done").
		Note("Local work finished.",
			"No outstanding children: report completion.").
		Finish()
	s.Rule("IDLE").
		When("active", "==", asagen.Lit(1)).
		Set("active", asagen.Lit(0)).
		Note("Local work finished.")

	s.DescribeWhen("Process is active.", asagen.When("active", "==", asagen.Lit(1))).
		DescribeWhen("Process is idle.", asagen.When("active", "==", asagen.Lit(0))).
		DescribeWhen("{outstanding} delegated tasks outstanding (bound {param}).").
		EFSMLabel("ACTIVE", asagen.When("active", "==", asagen.Lit(1))).
		EFSMLabel("IDLE_WAITING").
		EFSMGuard("outstanding", "SPAWN", "CHILD_DONE", "IDLE").
		EFSMCounter("SPAWN", "outstanding", 1).
		EFSMCounter("CHILD_DONE", "outstanding", -1).
		EFSMSymbol(asagen.Lit(0), "0").
		EFSMSymbol(asagen.Lit(1), "1").
		EFSMSymbol(asagen.Param(), "k").
		EFSMSymbol(asagen.Param().Plus(-1), "k-1")
	return s
}

// TestSpecPortByteIdenticalArtifacts is the tentpole acceptance proof: a
// spec-defined port of the termination scenario renders byte-identical
// artefacts to its hand-written adapter across every registered format,
// including the EFSM generalisation, at several parameter values.
func TestSpecPortByteIdenticalArtifacts(t *testing.T) {
	client := asagen.NewClient(asagen.WithIsolatedRegistry())
	if err := client.RegisterModel(terminationSpec("termination-spec")); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	formats := client.Formats()
	if len(formats) != 7 {
		t.Fatalf("format registry has %d formats, want 7: %v", len(formats), formats)
	}
	for _, format := range formats {
		for _, param := range []int{2, 4, 8} {
			hand, err := client.Render(ctx, asagen.Request{Model: "termination", Param: param, Format: format})
			if err != nil {
				t.Fatalf("%s r=%d: adapter render: %v", format, param, err)
			}
			ported, err := client.Render(ctx, asagen.Request{Model: "termination-spec", Param: param, Format: format})
			if err != nil {
				t.Fatalf("%s r=%d: spec render: %v", format, param, err)
			}
			if !bytes.Equal(hand.Data, ported.Data) {
				t.Errorf("%s r=%d: spec artefact differs from the hand-written adapter's (%d vs %d bytes)",
					format, param, len(ported.Data), len(hand.Data))
			}
			if hand.ContentHash != ported.ContentHash {
				t.Errorf("%s r=%d: content hashes differ", format, param)
			}
		}
	}
}

// TestSpecJSONRoundTrip: the builder's JSON form re-parses into a spec
// that renders the same bytes — the wire and file formats are lossless.
func TestSpecJSONRoundTrip(t *testing.T) {
	data, err := terminationSpec("termination-spec").JSON()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := asagen.ParseModelSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Name() != "termination-spec" {
		t.Fatalf("parsed name = %q", parsed.Name())
	}

	a := asagen.NewClient(asagen.WithIsolatedRegistry())
	b := asagen.NewClient(asagen.WithIsolatedRegistry())
	if err := a.RegisterModel(terminationSpec("termination-spec")); err != nil {
		t.Fatal(err)
	}
	if err := b.RegisterModel(parsed); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := asagen.Request{Model: "termination-spec", Format: "text"}
	ra, err := a.Render(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Render(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ra.Data, rb.Data) {
		t.Error("JSON round-trip changed the rendered artefact")
	}
}

// TestRegisterModelErrors: the typed sentinels round-trip through
// errors.Is, and SpecError carries the diagnostics.
func TestRegisterModelErrors(t *testing.T) {
	client := asagen.NewClient(asagen.WithIsolatedRegistry())

	if err := client.RegisterModel(terminationSpec("dup")); err != nil {
		t.Fatal(err)
	}
	err := client.RegisterModel(terminationSpec("dup"))
	if !errors.Is(err, asagen.ErrModelExists) {
		t.Errorf("duplicate registration error = %v, want ErrModelExists", err)
	}
	if err := client.RegisterModel(terminationSpec("commit")); !errors.Is(err, asagen.ErrModelExists) {
		t.Errorf("built-in shadowing error = %v, want ErrModelExists", err)
	}

	bad := asagen.NewModelSpec("bad")
	bad.Bool("on")
	bad.Rule("MISSING").When("nowhere", "~", asagen.Lit(1))
	err = bad.Compile()
	if !errors.Is(err, asagen.ErrInvalidSpec) {
		t.Fatalf("Compile error = %v, want ErrInvalidSpec", err)
	}
	var serr *asagen.SpecError
	if !errors.As(err, &serr) {
		t.Fatalf("Compile error %T does not carry *SpecError", err)
	}
	paths := map[string]bool{}
	for _, d := range serr.Diagnostics {
		paths[d.Path] = true
	}
	for _, want := range []string{"messages", "rules[0].message", "rules[0].when[0].component", "rules[0].when[0].op"} {
		if !paths[want] {
			t.Errorf("missing diagnostic %q in %v", want, serr.Diagnostics)
		}
	}
	if err := client.RegisterModel(bad); !errors.Is(err, asagen.ErrInvalidSpec) {
		t.Errorf("RegisterModel(bad) = %v, want ErrInvalidSpec", err)
	}
	if _, err := client.Model("bad"); !errors.Is(err, asagen.ErrUnknownModel) {
		t.Error("failed registration left a registry entry")
	}

	if err := client.UnregisterModel("never-registered"); !errors.Is(err, asagen.ErrUnknownModel) {
		t.Errorf("UnregisterModel(unknown) = %v, want ErrUnknownModel", err)
	}
}

// TestRegistryIsolationBetweenClients: isolated clients never share
// dynamic registrations; the default registry is untouched.
func TestRegistryIsolationBetweenClients(t *testing.T) {
	a := asagen.NewClient(asagen.WithIsolatedRegistry())
	b := asagen.NewClient(asagen.WithIsolatedRegistry())
	if err := a.RegisterModel(terminationSpec("iso")); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Model("iso"); err != nil {
		t.Errorf("registering client cannot see its model: %v", err)
	}
	if _, err := b.Model("iso"); !errors.Is(err, asagen.ErrUnknownModel) {
		t.Error("registration leaked into a sibling isolated client")
	}
	if _, err := asagen.NewClient().Model("iso"); !errors.Is(err, asagen.ErrUnknownModel) {
		t.Error("registration leaked into the shared default registry")
	}
}

// TestUnregisterPurgesCachesAndRefreshesFingerprints is the cache
// interaction contract: unregistering purges the removed model's
// generations, and re-registering a changed spec under the same name
// regenerates under a new fingerprint — no stale cache hits.
func TestUnregisterPurgesCachesAndRefreshesFingerprints(t *testing.T) {
	client := asagen.NewClient(asagen.WithIsolatedRegistry())
	ctx := context.Background()
	if err := client.RegisterModel(terminationSpec("evolving")); err != nil {
		t.Fatal(err)
	}

	m1, err := client.Generate(ctx, "evolving")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Render(ctx, asagen.Request{Model: "evolving", Format: "text"}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Render(ctx, asagen.Request{Model: "evolving", Format: "efsm"}); err != nil {
		t.Fatal(err)
	}
	before := client.Stats()
	if before.CachedMachines == 0 {
		t.Fatal("no machines cached after generate+render")
	}

	if err := client.UnregisterModel("evolving"); err != nil {
		t.Fatal(err)
	}
	after := client.Stats()
	if after.CachedMachines >= before.CachedMachines {
		t.Errorf("unregister purged nothing: %d cached before, %d after",
			before.CachedMachines, after.CachedMachines)
	}
	if _, err := client.Generate(ctx, "evolving"); !errors.Is(err, asagen.ErrUnknownModel) {
		t.Errorf("Generate after unregister = %v, want ErrUnknownModel", err)
	}

	// Re-register a behaviourally different spec under the same name: the
	// fingerprint must change and the machine must be regenerated, never
	// served from the departed model's cache.
	changed := terminationSpec("evolving")
	changed.Rule("TASK").
		When("active", "==", asagen.Lit(1)).
		Set("active", asagen.Lit(1)).
		Note("A second task while active is absorbed.")
	if err := client.RegisterModel(changed); err != nil {
		t.Fatal(err)
	}
	genBefore := client.Stats().Generations
	m2, err := client.Generate(ctx, "evolving")
	if err != nil {
		t.Fatal(err)
	}
	if m1.Fingerprint() == m2.Fingerprint() {
		t.Error("changed spec under the same name kept the old fingerprint")
	}
	if got := client.Stats().Generations; got != genBefore+1 {
		t.Errorf("changed spec did not regenerate: generations %d -> %d", genBefore, got)
	}
	// The changed machine really differs (the extra TASK self-loop).
	if strings.Contains(strings.Join(m1.StateNames(), ","), "missing") {
		t.Fatal("unreachable")
	}

	// Identical re-registration after another unregister is also a fresh
	// generation: the purge removed the cached machine.
	if err := client.UnregisterModel("evolving"); err != nil {
		t.Fatal(err)
	}
	if err := client.RegisterModel(changed); err != nil {
		t.Fatal(err)
	}
	genBefore = client.Stats().Generations
	if _, err := client.Generate(ctx, "evolving"); err != nil {
		t.Fatal(err)
	}
	if got := client.Stats().Generations; got != genBefore+1 {
		t.Errorf("identical spec after purge did not regenerate: generations %d -> %d", genBefore, got)
	}
}

// TestSpecModelFullSDKSurface: a registered spec model flows through the
// whole facade — listing, metadata, batch cross product, streaming and
// the interpreter runtime.
func TestSpecModelFullSDKSurface(t *testing.T) {
	client := asagen.NewClient(asagen.WithIsolatedRegistry())
	if err := client.RegisterModel(terminationSpec("ported")); err != nil {
		t.Fatal(err)
	}
	info, err := client.Model("ported")
	if err != nil {
		t.Fatal(err)
	}
	if !info.HasEFSM || info.ParamName != "fan-out bound" || info.DefaultParam != 4 {
		t.Errorf("spec model info = %+v", info)
	}

	reqs := client.AllRequests()
	ported := 0
	for _, r := range reqs {
		if r.Model == "ported" {
			ported++
		}
	}
	if ported != 7 {
		t.Errorf("cross product contains %d ported requests, want 7 (all formats)", ported)
	}

	ctx := context.Background()
	for res := range client.Stream(ctx, []asagen.Request{{Model: "ported", Format: "dot"}}) {
		if res.Err != nil {
			t.Errorf("stream render: %v", res.Err)
		}
	}

	machine, err := client.Generate(ctx, "ported", asagen.WithParam(2))
	if err != nil {
		t.Fatal(err)
	}
	var actions []string
	inst, err := machine.NewInstance(func(a string) { actions = append(actions, a) })
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range []string{"TASK", "SPAWN", "IDLE", "CHILD_DONE"} {
		if _, err := inst.Deliver(msg); err != nil {
			t.Fatalf("deliver %s: %v", msg, err)
		}
	}
	if !inst.Finished() {
		t.Error("interpreter did not reach the finish state")
	}
	if strings.Join(actions, ",") != "->task,->done" {
		t.Errorf("actions = %v", actions)
	}
}

// TestUpdateModelIncrementalRegeneration is the public-facade contract
// for in-place replacement: a rule-level edit applied through UpdateModel
// regenerates the cached machine incrementally, and the result is
// indistinguishable from a client that only ever saw the new spec.
func TestUpdateModelIncrementalRegeneration(t *testing.T) {
	ctx := context.Background()
	client := asagen.NewClient(asagen.WithIsolatedRegistry())
	if err := client.RegisterModel(terminationSpec("evolving")); err != nil {
		t.Fatal(err)
	}
	m1, err := client.Generate(ctx, "evolving")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Generate(ctx, "evolving", asagen.WithoutMerging()); err != nil {
		t.Fatal(err)
	}

	// Rule-level edit: absorb a second TASK while active.
	edited := func() *asagen.ModelSpec {
		s := terminationSpec("evolving")
		s.Rule("TASK").
			When("active", "==", asagen.Lit(1)).
			Set("active", asagen.Lit(1)).
			Note("A second task while active is absorbed.")
		return s
	}
	if err := client.UpdateModel(edited()); err != nil {
		t.Fatal(err)
	}

	m2, err := client.Generate(ctx, "evolving")
	if err != nil {
		t.Fatal(err)
	}
	if m1.Fingerprint() == m2.Fingerprint() {
		t.Error("edited spec kept the old fingerprint")
	}
	// A generation under per-call options is linked like any other.
	if _, err := client.Generate(ctx, "evolving", asagen.WithoutMerging()); err != nil {
		t.Fatal(err)
	}
	if got := client.Stats().IncrementalGenerations; got != 2 {
		t.Errorf("IncrementalGenerations = %d, want 2 (one per option set)", got)
	}

	// A client that only ever knew the edited spec must agree exactly.
	fresh := asagen.NewClient(asagen.WithIsolatedRegistry())
	if err := fresh.RegisterModel(edited()); err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Generate(ctx, "evolving")
	if err != nil {
		t.Fatal(err)
	}
	if m2.Fingerprint() != want.Fingerprint() {
		t.Errorf("incremental fingerprint %s != fresh client %s", m2.Fingerprint(), want.Fingerprint())
	}
	got, err := client.Render(ctx, asagen.Request{Model: "evolving", Format: "text"})
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := fresh.Render(ctx, asagen.Request{Model: "evolving", Format: "text"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, wantRes.Data) {
		t.Error("rendered artefact differs from a fresh client's")
	}
	if fresh.Stats().IncrementalGenerations != 0 {
		t.Error("fresh client unexpectedly regenerated incrementally")
	}
}

// TestUpdateModelRegistersWhenAbsent: UpdateModel on an unknown name is a
// plain registration.
func TestUpdateModelRegistersWhenAbsent(t *testing.T) {
	client := asagen.NewClient(asagen.WithIsolatedRegistry())
	if err := client.UpdateModel(terminationSpec("brand-new")); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Model("brand-new"); err != nil {
		t.Errorf("model absent after UpdateModel: %v", err)
	}
	if err := client.UpdateModel(&asagen.ModelSpec{}); err == nil {
		t.Error("UpdateModel accepted an empty spec")
	}
}

// TestUpdateModelEditsABuiltInIncrementally: the built-in families other
// than commit are spec documents, so the SDK's UpdateModel with a built-in
// document whose one rule is edited regenerates the rendered member
// incrementally, as for any spec.
func TestUpdateModelEditsABuiltInIncrementally(t *testing.T) {
	data, err := os.ReadFile("internal/models/chord.json")
	if err != nil {
		t.Fatal(err)
	}
	edited := bytes.Replace(data, []byte(`"actions": ["->transfer-keys"]`), []byte(`"actions": ["->transfer-keys", "->farewell"]`), 1)
	s, err := asagen.ParseModelSpec(edited)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	client := asagen.NewClient(asagen.WithIsolatedRegistry())
	req := asagen.Request{Model: "chord", Format: "text"}
	if _, err := client.Render(ctx, req); err != nil {
		t.Fatal(err)
	}
	if err := client.UpdateModel(s); err != nil {
		t.Fatal(err)
	}
	res, err := client.Render(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(res.Data, []byte("->farewell")) {
		t.Error("the edited action is missing from the artefact")
	}
	if got := client.Stats().IncrementalGenerations; got != 1 {
		t.Errorf("IncrementalGenerations = %d, want 1", got)
	}
}

// TestShippedSpecsKeepTheirIdentity pins the canonical JSON and the
// default member's fingerprint of the spec documents the repository
// ships outside the registry: the language grew derived values, target
// placeholders and a declared fault tolerance, and a document that uses
// none of them must not move (examples/customspec pins its own).
func TestShippedSpecsKeepTheirIdentity(t *testing.T) {
	scenario, err := os.ReadFile("examples/fleetsim/leader-lease.json")
	if err != nil {
		t.Fatal(err)
	}
	var lease struct{ Spec json.RawMessage }
	if err := json.Unmarshal(scenario, &lease); err != nil {
		t.Fatal(err)
	}
	leaseSpec, err := asagen.ParseModelSpec(lease.Spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		spec              *asagen.ModelSpec
		json, fingerprint string
	}{
		{terminationSpec("termination-spec"),
			"1b546d774ed4f3e52d733927b7501b5d0feb233ceace9caf85853bacc4982e4c",
			"c6960fe30b86dc1394ee18b160a8728ceac437593166619cc8626f443c05983f"},
		{leaseSpec,
			"eb30a313758e3c761de160179f15f2c617c3b0ad8662c92dc74b5404ceda323a",
			"696bbe917eac70ac2ee60c87d67682ad87ff5525e52de28eab2d64caa2a120ff"},
	} {
		data, err := c.spec.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != c.json {
			t.Errorf("%s: canonical JSON sha256 %x, pinned %s", c.spec.Name(), sum, c.json)
		}
		client := asagen.NewClient(asagen.WithIsolatedRegistry())
		if err := client.RegisterModel(c.spec); err != nil {
			t.Fatal(err)
		}
		m, err := client.Generate(context.Background(), c.spec.Name())
		if err != nil {
			t.Fatal(err)
		}
		if m.Fingerprint() != c.fingerprint {
			t.Errorf("%s: fingerprint %s, pinned %s", c.spec.Name(), m.Fingerprint(), c.fingerprint)
		}
		if _, ok := m.FaultTolerance(); ok {
			t.Errorf("%s: declares no fault tolerance, yet reports one", c.spec.Name())
		}
	}
}
