package api

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"asagen/internal/artifact"
	"asagen/internal/models"
	"asagen/internal/spec"
)

// TestConcurrentPutsServeTheRegisteredDocument: two PUTs of one name race,
// round after round, against members generated from the document before
// them. Afterwards every member serves what a fresh server renders for the
// document GET /v1/models/{model} reports — not the losing document's
// member, and not a machine patched under the delta from a document that
// was no longer registered when the write landed.
func TestConcurrentPutsServeTheRegisteredDocument(t *testing.T) {
	const rounds = 300
	params := []int{2, 3, 5}
	docs := map[string]spec.Doc{}
	variant := func(description string, edit func(*spec.Doc)) []byte {
		doc := countDoc("steps")
		doc.Description = description
		doc.Rules = append([]spec.Rule(nil), doc.Rules...)
		edit(&doc)
		docs[description] = doc
		return specJSON(t, doc)
	}
	base := variant("v0", func(*spec.Doc) {})
	edits := [2][]byte{
		variant("vA", func(d *spec.Doc) { d.Rules[1].Actions = []string{"->done", "->a"} }),
		variant("vB", func(d *spec.Doc) { d.Rules[2].Actions = []string{"->b"} }),
	}
	// want holds a fresh render of each edited document at each parameter.
	want := map[string]string{}
	for _, description := range []string{"vA", "vB"} {
		compiled, err := spec.Compile(docs[description])
		if err != nil {
			t.Fatal(err)
		}
		reg := models.NewRegistry()
		if err := reg.Add(compiled.Entry()); err != nil {
			t.Fatal(err)
		}
		fresh := artifact.New(artifact.WithRegistry(reg))
		for _, param := range params {
			res := fresh.Render(context.Background(), artifact.Request{Model: "steps", Param: param, Format: "text"})
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			want[fmt.Sprint(description, param)] = string(res.Artifact.Data)
		}
	}

	ts, _ := isolatedServer(t)
	put := func(body []byte) error {
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/models/steps", strings.NewReader(string(body)))
		if err != nil {
			return err
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
			return fmt.Errorf("PUT = %s", resp.Status)
		}
		return nil
	}
	render := func(param int) string {
		t.Helper()
		resp, body := do(t, ts, http.MethodGet, fmt.Sprintf("/v1/models/steps/artifacts/text?r=%d", param), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET r=%d = %d %s", param, resp.StatusCode, body)
		}
		return body
	}

	bad := 0
	for round := 0; round < rounds; round++ {
		if err := put(base); err != nil {
			t.Fatal(err)
		}
		for _, param := range params {
			render(param)
		}
		var (
			wg   sync.WaitGroup
			errs [2]error
		)
		start := make(chan struct{})
		for i, body := range edits {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				errs[i] = put(body)
			}()
		}
		close(start)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}

		resp, body := do(t, ts, http.MethodGet, "/v1/models/steps", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/models/steps = %d %s", resp.StatusCode, body)
		}
		var info modelInfo
		if err := json.Unmarshal([]byte(body), &info); err != nil {
			t.Fatal(err)
		}
		for _, param := range params {
			expected, ok := want[fmt.Sprint(info.Description, param)]
			if !ok {
				t.Fatalf("round %d: the registry reports %q, neither PUT's document", round, info.Description)
			}
			if got := render(param); got != expected {
				bad++
				t.Errorf("round %d, r=%d: the server does not serve %s, the registered document (vA's action %t, vB's %t)",
					round, param, info.Description, strings.Contains(got, "->a"), strings.Contains(got, "->b"))
			}
		}
		if bad > 5 {
			t.Fatalf("stopping after %d bad members", bad)
		}
	}
}
