package api

// Tests for PUT /v1/models/{model}: create-or-replace semantics, the
// name-match contract, and incremental regeneration of cached machines
// after a compatible edit.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"asagen/internal/spec"
)

// TestUpdateModelCreatesThenReplaces: PUT on an unknown name registers
// (201), a second PUT replaces in place (200), and the replacement is
// what renders afterwards.
func TestUpdateModelCreatesThenReplaces(t *testing.T) {
	ts, _ := isolatedServer(t)

	resp, body := do(t, ts, http.MethodPut, "/v1/models/steps", specJSON(t, countDoc("steps")))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first PUT = %d %s", resp.StatusCode, body)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/models/steps" {
		t.Errorf("Location = %q", loc)
	}

	// Warm the cache so the replacement has something to regenerate from.
	resp, before := do(t, ts, http.MethodGet, "/v1/models/steps/artifacts/text", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm render = %d", resp.StatusCode)
	}

	// Rule-level edit: the STEP finish rule now emits an extra action.
	edited := countDoc("steps")
	edited.Rules[1].Actions = append(edited.Rules[1].Actions, "->notify")
	resp, body = do(t, ts, http.MethodPut, "/v1/models/steps", specJSON(t, edited))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replacing PUT = %d %s", resp.StatusCode, body)
	}

	resp, after := do(t, ts, http.MethodGet, "/v1/models/steps/artifacts/text", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("render after replace = %d", resp.StatusCode)
	}
	if after == before {
		t.Error("artefact unchanged after replacing the model")
	}
	if !strings.Contains(after, "->notify") {
		t.Errorf("replacement's action missing from the artefact:\n%.300s", after)
	}

	// The compatible edit regenerated incrementally, visible in stats.
	if got := incremental(t, ts); got != 1 {
		t.Errorf("Machine.Incremental = %d, want 1", got)
	}
}

// incremental reads /v1/stats' count of incremental regenerations.
func incremental(t *testing.T, ts *httptest.Server) int64 {
	t.Helper()
	resp, body := do(t, ts, http.MethodGet, "/v1/stats", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/stats = %d", resp.StatusCode)
	}
	var stats struct {
		Machine struct {
			Incremental int64
		}
	}
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatalf("stats body: %v\n%s", err, body)
	}
	return stats.Machine.Incremental
}

// TestUpdateModelEditsABuiltInIncrementally: a built-in family is a spec
// document, so a PUT of that document with one rule edited keeps what a
// render generated and regenerates it incrementally, like any spec's edit.
func TestUpdateModelEditsABuiltInIncrementally(t *testing.T) {
	ts, _ := isolatedServer(t)
	data, err := os.ReadFile("../models/chord.json")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := spec.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if resp, body := do(t, ts, http.MethodGet, "/v1/models/chord/artifacts/text", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("render = %d %s", resp.StatusCode, body)
	}
	leave := &doc.Rules[len(doc.Rules)-1]
	leave.Actions = append(leave.Actions, "->farewell")
	if resp, body := do(t, ts, http.MethodPut, "/v1/models/chord", specJSON(t, doc)); resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT = %d %s", resp.StatusCode, body)
	}
	resp, after := do(t, ts, http.MethodGet, "/v1/models/chord/artifacts/text", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(after, "->farewell") {
		t.Fatalf("render after the edit = %d, the edited action missing:\n%.300s", resp.StatusCode, after)
	}
	if got := incremental(t, ts); got != 1 {
		t.Errorf("Machine.Incremental = %d, want 1", got)
	}
}

// TestUpdateModelNameMismatch: the spec name must match the path segment.
func TestUpdateModelNameMismatch(t *testing.T) {
	ts, _ := isolatedServer(t)
	resp, body := do(t, ts, http.MethodPut, "/v1/models/other", specJSON(t, countDoc("steps")))
	if resp.StatusCode != http.StatusBadRequest || envelope(t, body).Code != CodeInvalidSpec {
		t.Fatalf("mismatched PUT = %d %s", resp.StatusCode, body)
	}
	if msg := envelope(t, body).Message; !strings.Contains(msg, "does not match") {
		t.Errorf("mismatch message: %s", msg)
	}
}

// TestUpdateModelInvalidSpec: validation failures are reported like POST.
func TestUpdateModelInvalidSpec(t *testing.T) {
	ts, _ := isolatedServer(t)
	bad := countDoc("bad")
	bad.Rules[0].When[0].Component = "no-such-component"
	resp, body := do(t, ts, http.MethodPut, "/v1/models/bad", specJSON(t, bad))
	if resp.StatusCode != http.StatusBadRequest || envelope(t, body).Code != CodeInvalidSpec {
		t.Fatalf("invalid PUT = %d %s", resp.StatusCode, body)
	}
	resp, body = do(t, ts, http.MethodPut, "/v1/models/x", []byte(`{"name": "x", not json`))
	if resp.StatusCode != http.StatusBadRequest || envelope(t, body).Code != CodeInvalidSpec {
		t.Errorf("malformed PUT = %d %s", resp.StatusCode, body)
	}
}

// TestUpdateModelReplacesBuiltIn: unlike POST (409 on an existing name),
// PUT may replace a built-in registration on this server instance.
func TestUpdateModelReplacesBuiltIn(t *testing.T) {
	ts, _ := isolatedServer(t)
	resp, body := do(t, ts, http.MethodPut, "/v1/models/commit", specJSON(t, countDoc("commit")))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT over built-in = %d %s", resp.StatusCode, body)
	}
	resp, body = do(t, ts, http.MethodGet, "/v1/models/commit/artifacts/text", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "STEP") {
		t.Errorf("replaced built-in render = %d\n%.200s", resp.StatusCode, body)
	}
}
