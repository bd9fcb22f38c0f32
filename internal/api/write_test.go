package api

// Tests for the writable model collection: POST /v1/models and
// DELETE /v1/models/{model}. Every handler here is constructed over its
// own registry clone — exactly as `fsmgen serve` does — so the tests also
// pin the per-server isolation property.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"asagen/internal/artifact"
	"asagen/internal/models"
	"asagen/internal/spec"
)

// countDoc is a minimal spec with an EFSM abstraction: count steps up to
// the parameter, then finish.
func countDoc(name string) spec.Doc {
	zero := spec.Lit(0)
	return spec.Doc{
		Name:         name,
		Description:  "synthetic step counter for writable-API tests",
		ParamName:    "steps",
		DefaultParam: 3,
		MinParam:     2,
		SweepParams:  []int{2, 3, 5},
		Components: []spec.Component{
			{Name: "count", Kind: spec.KindInt, Max: spec.ParamValue(0)},
		},
		Messages: []string{"STEP", "RESET"},
		Rules: []spec.Rule{
			{
				Message: "STEP",
				When:    []spec.Cond{{Component: "count", Op: spec.OpLt, Value: spec.ParamValue(0)}},
				Set:     []spec.Assign{{Component: "count", Add: 1}},
			},
			{
				Message: "STEP",
				When:    []spec.Cond{{Component: "count", Op: spec.OpEq, Value: spec.ParamValue(0)}},
				Actions: []string{"->done"},
				Finish:  true,
			},
			{
				Message: "RESET",
				When:    []spec.Cond{{Component: "count", Op: spec.OpGt, Value: spec.Lit(0)}},
				Set:     []spec.Assign{{Component: "count", Set: &zero}},
			},
		},
		Describe: []spec.DescribeRule{{Text: "{count} of {param} steps taken."}},
		Abstraction: &spec.Abstraction{
			Labels: []spec.LabelRule{{Label: "COUNTING"}},
			Guards: []spec.GuardRule{
				{Message: "STEP", Component: "count"},
				{Message: "RESET", Component: "count"},
			},
			Ops:     []spec.VarOpRule{{Message: "STEP", Component: "count", Delta: 1}},
			Symbols: []spec.SymbolRule{{Value: spec.ParamValue(0), Text: "n"}},
		},
	}
}

func specJSON(t *testing.T, doc spec.Doc) []byte {
	t.Helper()
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// isolatedServer returns a test server over its own registry clone, plus
// the clone for direct inspection.
func isolatedServer(t *testing.T) (*httptest.Server, *models.Registry) {
	t.Helper()
	reg := models.Default().Clone()
	ts := httptest.NewServer(NewHandler(artifact.New(artifact.WithRegistry(reg))))
	t.Cleanup(ts.Close)
	return ts, reg
}

func do(t *testing.T, ts *httptest.Server, method, path string, body []byte) (*http.Response, string) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = strings.NewReader(string(body))
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(data)
}

// TestRegisterGenerateRenderUnregister walks the full lifecycle: a model
// registered over the wire is immediately listable, generatable and
// renderable with full caching-header hygiene, and unregistering removes
// it and its artefacts.
func TestRegisterGenerateRenderUnregister(t *testing.T) {
	ts, _ := isolatedServer(t)

	resp, body := do(t, ts, http.MethodPost, "/v1/models", specJSON(t, countDoc("steps")))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /v1/models = %d, body %s", resp.StatusCode, body)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/models/steps" {
		t.Errorf("Location = %q", loc)
	}
	var info struct {
		Name    string `json:"name"`
		HasEFSM bool   `json:"has_efsm"`
	}
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatalf("201 body is not model info: %v\n%s", err, body)
	}
	if info.Name != "steps" || !info.HasEFSM {
		t.Errorf("registered info = %+v", info)
	}

	// Immediately listable and describable.
	resp, body = do(t, ts, http.MethodGet, "/v1/models/steps", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/models/steps = %d", resp.StatusCode)
	}
	resp, body = do(t, ts, http.MethodGet, "/v1/models", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"steps"`) {
		t.Errorf("model listing does not include the registration: %d\n%s", resp.StatusCode, body)
	}

	// Immediately renderable, in machine and EFSM formats, with ETag
	// revalidation.
	for _, format := range []string{"text", "go", "efsm"} {
		path := "/v1/models/steps/artifacts/" + format
		resp, body = do(t, ts, http.MethodGet, path, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d, body %s", path, resp.StatusCode, body)
		}
		if len(body) == 0 {
			t.Fatalf("GET %s returned an empty artefact", path)
		}
		etag := resp.Header.Get("ETag")
		if etag == "" || resp.Header.Get("Vary") != "Accept-Encoding" {
			t.Errorf("GET %s hygiene: ETag %q, Vary %q", path, etag, resp.Header.Get("Vary"))
		}
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("If-None-Match", etag)
		revalidated, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		revalidated.Body.Close()
		if revalidated.StatusCode != http.StatusNotModified {
			t.Errorf("GET %s with If-None-Match = %d, want 304", path, revalidated.StatusCode)
		}
	}

	// The artefact honours ?r= with the usual parameter handling.
	resp, body = do(t, ts, http.MethodGet, "/v1/models/steps/artifacts/text?r=5", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "parameter: 5") {
		t.Errorf("parameterised render = %d\n%.200s", resp.StatusCode, body)
	}
	resp, body = do(t, ts, http.MethodGet, "/v1/models/steps/artifacts/text?r=1", nil)
	if resp.StatusCode != http.StatusBadRequest || envelope(t, body).Code != CodeBadParameter {
		t.Errorf("r=1 (below min_param) = %d, want 400, body %.200s", resp.StatusCode, body)
	}

	// Unregister: gone from the collection, artefact requests 404.
	resp, _ = do(t, ts, http.MethodDelete, "/v1/models/steps", nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE /v1/models/steps = %d", resp.StatusCode)
	}
	resp, body = do(t, ts, http.MethodGet, "/v1/models/steps/artifacts/text", nil)
	if resp.StatusCode != http.StatusNotFound || envelope(t, body).Code != CodeUnknownModel {
		t.Errorf("render after DELETE = %d %s", resp.StatusCode, body)
	}
	resp, body = do(t, ts, http.MethodDelete, "/v1/models/steps", nil)
	if resp.StatusCode != http.StatusNotFound || envelope(t, body).Code != CodeUnknownModel {
		t.Errorf("second DELETE = %d %s", resp.StatusCode, body)
	}
}

// TestRegisterErrors: duplicate names conflict (409, model_exists),
// invalid specs are caller mistakes (400, invalid_spec) with the
// diagnostics' document paths in the message, and malformed JSON is
// rejected the same way.
func TestRegisterErrors(t *testing.T) {
	ts, _ := isolatedServer(t)

	if resp, body := do(t, ts, http.MethodPost, "/v1/models", specJSON(t, countDoc("dup"))); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first POST = %d %s", resp.StatusCode, body)
	}
	resp, body := do(t, ts, http.MethodPost, "/v1/models", specJSON(t, countDoc("dup")))
	if resp.StatusCode != http.StatusConflict || envelope(t, body).Code != CodeModelExists {
		t.Errorf("duplicate POST = %d %s", resp.StatusCode, body)
	}

	// A built-in name conflicts too.
	resp, body = do(t, ts, http.MethodPost, "/v1/models", specJSON(t, countDoc("commit")))
	if resp.StatusCode != http.StatusConflict || envelope(t, body).Code != CodeModelExists {
		t.Errorf("built-in shadowing POST = %d %s", resp.StatusCode, body)
	}

	bad := countDoc("bad")
	bad.Rules[0].When[0].Component = "no-such-component"
	resp, body = do(t, ts, http.MethodPost, "/v1/models", specJSON(t, bad))
	if resp.StatusCode != http.StatusBadRequest || envelope(t, body).Code != CodeInvalidSpec {
		t.Fatalf("invalid spec POST = %d %s", resp.StatusCode, body)
	}
	if msg := envelope(t, body).Message; !strings.Contains(msg, "rules[0].when[0].component") {
		t.Errorf("invalid_spec message lacks the document path: %s", msg)
	}

	// Free text that would leave the Go comment it is rendered into.
	hostile := countDoc("hostile")
	hostile.Describe = append(hostile.Describe, spec.DescribeRule{Text: "ok\nStateInjected"})
	resp, body = do(t, ts, http.MethodPost, "/v1/models", specJSON(t, hostile))
	if resp.StatusCode != http.StatusBadRequest || envelope(t, body).Code != CodeInvalidSpec {
		t.Fatalf("control-character spec POST = %d %s", resp.StatusCode, body)
	}
	if msg := envelope(t, body).Message; !strings.Contains(msg, "describe[") || !strings.Contains(msg, "control characters") {
		t.Errorf("invalid_spec message lacks the path diagnostic: %s", msg)
	}

	// Two messages the go format would give one method name: refused
	// here, not as render_failed on a later GET.
	colliding := countDoc("colliding")
	colliding.Messages = append(colliding.Messages, "a b", "a_b")
	resp, body = do(t, ts, http.MethodPost, "/v1/models", specJSON(t, colliding))
	if resp.StatusCode != http.StatusBadRequest || envelope(t, body).Code != CodeInvalidSpec {
		t.Fatalf("colliding-names spec POST = %d %s", resp.StatusCode, body)
	}
	if msg := envelope(t, body).Message; !strings.Contains(msg, "messages[") || !strings.Contains(msg, "Machine.ReceiveAB") {
		t.Errorf("invalid_spec message lacks the Go-name diagnostic: %s", msg)
	}

	resp, body = do(t, ts, http.MethodPost, "/v1/models", []byte(`{"name": "x", not json`))
	if resp.StatusCode != http.StatusBadRequest || envelope(t, body).Code != CodeInvalidSpec {
		t.Errorf("malformed JSON POST = %d %s", resp.StatusCode, body)
	}
	resp, body = do(t, ts, http.MethodPost, "/v1/models", []byte(`{"name":"x","bogus_key":1}`))
	if resp.StatusCode != http.StatusBadRequest || envelope(t, body).Code != CodeInvalidSpec {
		t.Errorf("unknown-field POST = %d %s", resp.StatusCode, body)
	}

	// A body is held to the strict reading. This one used to register as
	// model "y" whose rule "b" finished and sent "->x": the second "rules"
	// was decoded over the first, and "NAME" matched "name".
	resp, body = do(t, ts, http.MethodPost, "/v1/models", []byte(
		`{"name":"x","rules":[{"message":"a","finish":true,"actions":["->x"]}],"rules":[{"message":"b"}],"NAME":"y"}`))
	if resp.StatusCode != http.StatusBadRequest || envelope(t, body).Code != CodeInvalidSpec ||
		!strings.Contains(body, `duplicate key \"rules\"`) {
		t.Errorf("duplicate-key POST = %d %s", resp.StatusCode, body)
	}

	// So is a PUT's: a spec that says it is "x" and smuggles "NAME":"y"
	// after it replaces neither. At /v1/models/y it used to replace y.
	if resp, body := do(t, ts, http.MethodPost, "/v1/models", specJSON(t, countDoc("y"))); resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST y = %d %s", resp.StatusCode, body)
	}
	_, before := do(t, ts, http.MethodGet, "/v1/models/y", nil)
	smuggled := specJSON(t, countDoc("x"))
	smuggled = append(smuggled[:len(smuggled)-1], `,"NAME":"y","description":"not what y was"}`...)
	for _, path := range []string{"/v1/models/x", "/v1/models/y"} {
		resp, body = do(t, ts, http.MethodPut, path, smuggled)
		if resp.StatusCode != http.StatusBadRequest || envelope(t, body).Code != CodeInvalidSpec {
			t.Errorf("PUT %s with a smuggled NAME = %d %s", path, resp.StatusCode, body)
		}
	}
	if _, after := do(t, ts, http.MethodGet, "/v1/models/y", nil); after != before {
		t.Errorf("model y after the refused PUTs:\n%s\nbefore:\n%s", after, before)
	}
	if resp, _ := do(t, ts, http.MethodGet, "/v1/models/x", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/models/x = %d after the refused PUTs, want 404", resp.StatusCode)
	}
}

// TestSpecBodyIsReadIntoOneBoundedBuffer: the buffer a spec body is read
// into is sized from Content-Length, which the client chooses. A length
// that overstates, understates or withholds the size of a body over the
// limit changes neither the answer nor what the read may allocate, and an
// honest length is allocated once.
func TestSpecBodyIsReadIntoOneBoundedBuffer(t *testing.T) {
	h := NewHandler(artifact.New(artifact.WithRegistry(models.Default().Clone())))
	serve := func(method, path string, body []byte, contentLength int64) (rec *httptest.ResponseRecorder, allocated uint64) {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		req.ContentLength = contentLength
		rec = httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		return rec, after.TotalAlloc - before.TotalAlloc
	}

	// Valid JSON all the way: only its length is wrong with it.
	tooLong := append(specJSON(t, countDoc("padded")), bytes.Repeat([]byte(" "), maxSpecBytes)...)
	for _, claimed := range []int64{int64(len(tooLong)), 1 << 40, 10, -1} {
		for _, target := range [][2]string{{http.MethodPost, "/v1/models"}, {http.MethodPut, "/v1/models/padded"}} {
			rec, allocated := serve(target[0], target[1], tooLong, claimed)
			if rec.Code != http.StatusBadRequest || envelope(t, rec.Body.String()).Code != CodeInvalidSpec ||
				!strings.Contains(rec.Body.String(), "read spec body") {
				t.Errorf("%s of %d bytes claiming %d = %d %s", target[0], len(tooLong), claimed, rec.Code, rec.Body)
			}
			// Growing from nothing doubles its way to the limit — some
			// 4 MiB in all, twice that under the race detector; no claim
			// may cost more than that.
			if allocated > 16*maxSpecBytes {
				t.Errorf("%s claiming %d bytes allocated %d, want at most %d", target[0], claimed, allocated, 16*maxSpecBytes)
			}
		}
	}

	// An honest length: the body lands in one buffer of its own size.
	padded := append(specJSON(t, countDoc("padded")), bytes.Repeat([]byte(" "), maxSpecBytes/2)...)
	rec, allocated := serve(http.MethodPost, "/v1/models", padded, int64(len(padded)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("POST of %d bytes = %d %s", len(padded), rec.Code, rec.Body)
	}
	if allocated > uint64(len(padded))*3 { // io.ReadAll's growth took nine times the body
		t.Errorf("POST of %d bytes allocated %d: the body was not read into one buffer of its size", len(padded), allocated)
	}
}

// TestSpecBodyBufferIsNotKept: the buffer a spec body is read into goes
// back to a pool when the write is answered, and the next write of a body
// the same length reads into it. A registered model keeps nothing of it:
// after a second POST of a document as long as the first but different in
// every name, the first model's description and its text artefact are
// what a server that never saw the second document serves.
func TestSpecBodyBufferIsNotKept(t *testing.T) {
	first := specJSON(t, countDoc("reuse-a"))
	second := []byte(strings.NewReplacer("reuse-a", "reuse-b", "count", "tally", "STEP", "PUSH",
		"RESET", "CLEAR", "synthetic", "SYNTHETIC").Replace(string(first)))
	if len(second) != len(first) || bytes.Equal(second, first) {
		t.Fatalf("the second document must differ from the first at the same length (%d, %d bytes)", len(second), len(first))
	}
	serve := func(h *Handler, method, path string, body []byte, want int) string {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		if rec.Code != want {
			t.Fatalf("%s %s = %d %s, want %d", method, path, rec.Code, rec.Body, want)
		}
		return rec.Body.String()
	}
	newHandler := func() *Handler { return NewHandler(artifact.New(artifact.WithRegistry(models.Default().Clone()))) }

	alone := newHandler()
	serve(alone, http.MethodPost, "/v1/models", bytes.Clone(first), http.StatusCreated)
	wantInfo := serve(alone, http.MethodGet, "/v1/models/reuse-a", nil, http.StatusOK)
	wantText := serve(alone, http.MethodGet, "/v1/models/reuse-a/artifacts/text", nil, http.StatusOK)

	h := newHandler()
	serve(h, http.MethodPost, "/v1/models", first, http.StatusCreated)
	serve(h, http.MethodPost, "/v1/models", second, http.StatusCreated)
	if got := serve(h, http.MethodGet, "/v1/models/reuse-a", nil, http.StatusOK); got != wantInfo {
		t.Errorf("GET /v1/models/reuse-a after a second POST:\n%s\nwant\n%s", got, wantInfo)
	}
	if got := serve(h, http.MethodGet, "/v1/models/reuse-a/artifacts/text", nil, http.StatusOK); got != wantText {
		t.Errorf("text artefact of reuse-a after a second POST:\n%s\nwant\n%s", got, wantText)
	}
	if got := serve(h, http.MethodGet, "/v1/models/reuse-b", nil, http.StatusOK); !strings.Contains(got, "SYNTHETIC") {
		t.Errorf("GET /v1/models/reuse-b = %s, want the second document's description", got)
	}
}

// TestServerRegistryIsolation: registrations on one server are invisible
// to a concurrently running server and to the process-wide default
// registry.
func TestServerRegistryIsolation(t *testing.T) {
	tsA, _ := isolatedServer(t)
	tsB, _ := isolatedServer(t)

	if resp, body := do(t, tsA, http.MethodPost, "/v1/models", specJSON(t, countDoc("only-a"))); resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST on A = %d %s", resp.StatusCode, body)
	}
	if resp, _ := do(t, tsA, http.MethodGet, "/v1/models/only-a", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("GET on A = %d, want 200", resp.StatusCode)
	}
	if resp, _ := do(t, tsB, http.MethodGet, "/v1/models/only-a", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET on B = %d, want 404", resp.StatusCode)
	}
	if _, err := models.Get("only-a"); err == nil {
		t.Error("registration leaked into the process-wide default registry")
	}

	// Deleting a built-in on A is A's business alone.
	if resp, _ := do(t, tsA, http.MethodDelete, "/v1/models/chord", nil); resp.StatusCode != http.StatusNoContent {
		t.Errorf("DELETE built-in on A = %d, want 204", resp.StatusCode)
	}
	if resp, _ := do(t, tsB, http.MethodGet, "/v1/models/chord", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("GET chord on B after A's delete = %d, want 200", resp.StatusCode)
	}
	if _, err := models.Get("chord"); err != nil {
		t.Errorf("built-in vanished from the default registry: %v", err)
	}
}

// TestConcurrentRegisterAndRender exercises the writable surface under
// the race detector: distinct models register and render concurrently
// while the listing endpoint reads the registry.
func TestConcurrentRegisterAndRender(t *testing.T) {
	ts, _ := isolatedServer(t)
	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n*2)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("conc-%d", i)
			doc := countDoc(name)
			doc.DefaultParam = 2 + i
			resp, body := do(t, ts, http.MethodPost, "/v1/models", specJSON(t, doc))
			if resp.StatusCode != http.StatusCreated {
				errs <- fmt.Errorf("POST %s = %d %s", name, resp.StatusCode, body)
				return
			}
			resp, body = do(t, ts, http.MethodGet, "/v1/models/"+name+"/artifacts/text", nil)
			if resp.StatusCode != http.StatusOK || len(body) == 0 {
				errs <- fmt.Errorf("render %s = %d", name, resp.StatusCode)
			}
		}(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := do(t, ts, http.MethodGet, "/v1/models", nil)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("concurrent listing = %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
