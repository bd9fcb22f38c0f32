package api

import (
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"

	"asagen/internal/artifact"
	"asagen/internal/core"
	"asagen/internal/models"
	"asagen/internal/render"
)

// exploredModel counts explorations of the model it wraps: an exploration
// applies each message to the start state exactly once, and nothing else
// (fingerprinting, the EFSM abstraction) applies anything.
type exploredModel struct {
	core.Model
	explorations *atomic.Int64
}

func (m exploredModel) Apply(v core.Vector, mi int, out *core.Effect) bool {
	if mi == 0 && v.Equal(m.Start()) {
		m.explorations.Add(1)
	}
	return m.Model.Apply(v, mi, out)
}

// TestEachFamilyMemberIsExploredOnce: all seven formats of one family
// member are renderings of one generated machine. Whichever kind is asked
// for first, and whatever generation options the pipeline was built with,
// the member's state space is explored once, every response names the same
// machine, and the cluster shards all seven on one key — so the EFSM
// formats land on the node that already holds the machine.
func TestEachFamilyMemberIsExploredOnce(t *testing.T) {
	efsm := slices.DeleteFunc(render.Formats(), func(f string) bool { return !render.IsEFSMFormat(f) })
	machine := slices.DeleteFunc(render.Formats(), render.IsEFSMFormat)
	orders := map[string][]string{
		"efsm first":    append(slices.Clone(efsm), machine...),
		"machine first": append(slices.Clone(machine), efsm...),
	}
	optionSets := map[string][]core.Option{
		"default":              nil,
		"without descriptions": {core.WithoutDescriptions()},
	}
	for name, formats := range orders {
		t.Run(name, func(t *testing.T) {
			if len(formats) != len(render.Formats()) {
				t.Fatalf("%d formats in the order, %d registered", len(formats), len(render.Formats()))
			}
			for name, opts := range optionSets {
				t.Run(name, func(t *testing.T) { exploredOnce(t, formats, opts) })
			}
		})
	}
}

func exploredOnce(t *testing.T, formats []string, opts []core.Option) {
	entry, err := models.Get("commit")
	if err != nil {
		t.Fatal(err)
	}
	var explorations atomic.Int64
	build := entry.Build
	entry.Build = func(r int) (core.Model, error) {
		m, err := build(r)
		return exploredModel{Model: m, explorations: &explorations}, err
	}
	reg := models.NewRegistry()
	if err := reg.Add(entry); err != nil {
		t.Fatal(err)
	}
	p := artifact.New(artifact.WithRegistry(reg), artifact.WithGenerateOptions(opts...))
	ts := httptest.NewServer(NewHandler(p))
	defer ts.Close()

	var fingerprint, route string
	for _, format := range formats {
		resp, _ := get(t, ts, "/v1/models/commit/artifacts/"+format+"?r=7", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %s", format, resp.Status)
		}
		fp := resp.Header.Get("X-Machine-Fingerprint")
		key, _, err := p.RouteKey(artifact.Request{Model: "commit", Param: 7, Format: format})
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint == "" {
			fingerprint, route = fp, key
		}
		if fp == "" || fp != fingerprint {
			t.Errorf("%s: X-Machine-Fingerprint %q, the first format's was %q", format, fp, fingerprint)
		}
		if key != route {
			t.Errorf("%s: route key %q, the first format's was %q", format, key, route)
		}
	}
	if n := explorations.Load(); n != 1 {
		t.Errorf("the member was explored %d times, want 1", n)
	}
	if st := p.Stats().Machine; st.Generations != 1 {
		t.Errorf("machine stats = %+v, want one generation", st)
	}
}
