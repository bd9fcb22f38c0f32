package api

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"asagen/internal/artifact"
	"asagen/internal/core"
	"asagen/internal/models"
)

// slowModel is a linear chain whose Apply sleeps, so an HTTP-triggered
// generation is reliably in flight when a test disconnects the client.
type slowModel struct {
	states int
	delay  time.Duration
}

func (m *slowModel) Name() string   { return "api-slow" }
func (m *slowModel) Parameter() int { return m.states }
func (m *slowModel) Components() []core.StateComponent {
	return []core.StateComponent{core.NewIntComponent("i", m.states)}
}
func (m *slowModel) Messages() []string { return []string{"next"} }
func (m *slowModel) Start() core.Vector { return core.Vector{0} }

func (m *slowModel) Apply(v core.Vector, mi int, out *core.Effect) bool {
	msg := m.Messages()[mi]
	if msg != "next" {
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
	models.Register(models.Entry{
		Name:         "api-slow",
		Description:  "synthetic slow-generation model for disconnect tests",
		ParamName:    "chain length",
		DefaultParam: 8,
		Build: func(states int) (core.Model, error) {
			return &slowModel{states: states, delay: 100 * time.Microsecond}, nil
		},
	})
}

func get(t *testing.T, ts *httptest.Server, path string, header http.Header) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

// envelope decodes the JSON error envelope of a failure response.
func envelope(t *testing.T, body string) errorBody {
	t.Helper()
	var env errorEnvelope
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatalf("response is not an error envelope: %v (%q)", err, body)
	}
	return env.Error
}

func TestV1ArtifactEndpoint(t *testing.T) {
	p := artifact.New()
	ts := httptest.NewServer(NewHandler(p))
	defer ts.Close()

	resp, body := get(t, ts, "/v1/models/commit/artifacts/dot?r=4", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if !strings.HasPrefix(body, "digraph") {
		t.Errorf("body is not a DOT document: %.40s", body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "graphviz") {
		t.Errorf("Content-Type = %q", ct)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" || resp.Header.Get("X-Machine-Fingerprint") == "" {
		t.Error("missing ETag or fingerprint header")
	}
	if cc := resp.Header.Get("Cache-Control"); !strings.Contains(cc, "max-age") {
		t.Errorf("Cache-Control = %q", cc)
	}
	if vary := resp.Header.Get("Vary"); vary != "Accept-Encoding" {
		t.Errorf("Vary = %q, want Accept-Encoding on cacheable responses", vary)
	}

	// Conditional revalidation answers 304 from the fingerprint-derived
	// validator without a body.
	resp2, body2 := get(t, ts, "/v1/models/commit/artifacts/dot?r=4",
		http.Header{"If-None-Match": []string{etag}})
	if resp2.StatusCode != http.StatusNotModified {
		t.Errorf("revalidation status = %d, want 304", resp2.StatusCode)
	}
	if body2 != "" {
		t.Errorf("304 carried a body (%d bytes)", len(body2))
	}
}

func TestV1ModelEndpoints(t *testing.T) {
	ts := httptest.NewServer(NewHandler(artifact.New()))
	defer ts.Close()

	resp, body := get(t, ts, "/v1/models", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("models status = %d", resp.StatusCode)
	}
	for _, want := range []string{"chord", "commit", "consensus", "storage", "termination",
		"replication factor", "successor-list length", "sweep_params"} {
		if !strings.Contains(body, want) {
			t.Errorf("/v1/models missing %q", want)
		}
	}
	var listed []modelInfo
	if err := json.Unmarshal([]byte(body), &listed); err != nil {
		t.Fatalf("models JSON: %v", err)
	}
	if len(listed) < 6 {
		t.Errorf("/v1/models lists %d models, want >= 6", len(listed))
	}

	// The scenario models serve artefacts with parameterized redundancy.
	for _, path := range []string{
		"/v1/models/chord/artifacts/text?r=3",
		"/v1/models/chord/artifacts/efsm",
		"/v1/models/storage/artifacts/dot?r=7",
		"/v1/models/storage/artifacts/efsm-dot",
	} {
		resp, body := get(t, ts, path, nil)
		if resp.StatusCode != http.StatusOK || body == "" {
			t.Errorf("GET %s = %d (%d bytes), want 200 with content", path, resp.StatusCode, len(body))
		}
	}

	resp, body = get(t, ts, "/v1/models/termination", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("model status = %d", resp.StatusCode)
	}
	var info modelInfo
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatalf("model JSON: %v", err)
	}
	if info.Name != "termination" || info.ParamName != "fan-out bound" || !info.HasEFSM {
		t.Errorf("model info = %+v", info)
	}

	resp, body = get(t, ts, "/v1/formats", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("formats status = %d", resp.StatusCode)
	}
	var formats []string
	if err := json.Unmarshal([]byte(body), &formats); err != nil {
		t.Fatalf("formats JSON: %v", err)
	}
	if len(formats) != 7 {
		t.Errorf("formats = %v, want 7 entries", formats)
	}
}

func TestErrorEnvelope(t *testing.T) {
	ts := httptest.NewServer(NewHandler(artifact.New()))
	defer ts.Close()
	tests := []struct {
		path     string
		want     int
		wantCode string
	}{
		{"/v1/models/nonsense", http.StatusNotFound, CodeUnknownModel},
		{"/v1/models/nonsense/artifacts/text", http.StatusNotFound, CodeUnknownModel},
		{"/v1/models/commit/artifacts/nonsense", http.StatusNotFound, CodeUnknownFormat},
		{"/v1/models/commit/artifacts/text?r=notanumber", http.StatusBadRequest, CodeBadParameter},
		{"/v1/models/commit/artifacts/text?r=3", http.StatusBadRequest, CodeBadParameter},
		// An explicit value is never served as the default member.
		{"/v1/models/commit/artifacts/text?r=-7", http.StatusBadRequest, CodeBadParameter},
		{"/v1/models/commit/artifacts/text?r=0", http.StatusBadRequest, CodeBadParameter},
		{"/nonsense", http.StatusNotFound, CodeNotFound},
		// The pre-/v1 paths are gone, not redirected.
		{"/machine/commit", http.StatusNotFound, CodeNotFound},
		{"/models", http.StatusNotFound, CodeNotFound},
		{"/formats", http.StatusNotFound, CodeNotFound},
		{"/stats", http.StatusNotFound, CodeNotFound},
	}
	for _, tt := range tests {
		resp, body := get(t, ts, tt.path, nil)
		if resp.StatusCode != tt.want {
			t.Errorf("GET %s = %d, want %d", tt.path, resp.StatusCode, tt.want)
			continue
		}
		if code := envelope(t, body).Code; code != tt.wantCode {
			t.Errorf("GET %s code = %q, want %q", tt.path, code, tt.wantCode)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts := httptest.NewServer(NewHandler(artifact.New()))
	defer ts.Close()
	tests := []struct {
		path      string
		wantAllow string
	}{
		{"/v1/models/commit/artifacts/text", "GET, HEAD"},
		{"/v1/stats", "GET, HEAD"},
		{"/v1/formats", "GET, HEAD"},
	}
	for _, tt := range tests {
		req, err := http.NewRequest(http.MethodPost, ts.URL+tt.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d, want 405", tt.path, resp.StatusCode)
			continue
		}
		if allow := resp.Header.Get("Allow"); allow != tt.wantAllow {
			t.Errorf("POST %s Allow = %q, want %q", tt.path, allow, tt.wantAllow)
		}
		if code := envelope(t, string(body)).Code; code != CodeMethodNotAllowed {
			t.Errorf("POST %s code = %q", tt.path, code)
		}
	}

	// Multi-method patterns advertise every served method.
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/models", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("PUT /v1/models = %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != "GET, HEAD, POST" {
		t.Errorf("PUT /v1/models Allow = %q, want \"GET, HEAD, POST\"", allow)
	}
}

// TestConcurrentSingleGeneration is the serve-mode acceptance check:
// concurrent requests across formats and repeats of one model cost at most
// one generation per distinct model fingerprint, observed via /v1/stats.
func TestConcurrentSingleGeneration(t *testing.T) {
	p := artifact.New()
	ts := httptest.NewServer(NewHandler(p))
	defer ts.Close()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		for _, format := range []string{"text", "dot", "xml", "go", "doc"} {
			wg.Add(1)
			go func(format string) {
				defer wg.Done()
				resp, body := get(t, ts, "/v1/models/consensus/artifacts/"+format+"?r=5", nil)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s: status %d: %s", format, resp.StatusCode, body)
				}
			}(format)
		}
	}
	wg.Wait()

	resp, body := get(t, ts, "/v1/stats", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status = %d", resp.StatusCode)
	}
	var got artifact.Stats
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("stats JSON: %v", err)
	}
	if got.Machine.Generations != 1 {
		t.Errorf("reported generations = %d, want 1 for one distinct fingerprint", got.Machine.Generations)
	}
}

// TestEquivalentParamsShareOneGeneration: distinct requests that resolve
// to the same fingerprint (the default parameter given explicitly and
// implicitly) share one cache entry.
func TestEquivalentParamsShareOneGeneration(t *testing.T) {
	p := artifact.New()
	ts := httptest.NewServer(NewHandler(p))
	defer ts.Close()
	for _, path := range []string{
		"/v1/models/termination/artifacts/text",
		"/v1/models/termination/artifacts/text?r=4",
	} {
		if resp, body := get(t, ts, path, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", path, resp.StatusCode, body)
		}
	}
	if st := p.Stats(); st.Machine.Generations != 1 {
		t.Errorf("generations = %d, want 1", st.Machine.Generations)
	}
}

// TestClientDisconnectAbortsGeneration is the /v1 cancellation acceptance
// check: a client that disconnects mid-generation aborts the generation
// server-side — /v1/stats reports a cancellation and no completed
// generation, and the cache holds no entry for the aborted fingerprint.
func TestClientDisconnectAbortsGeneration(t *testing.T) {
	p := artifact.New(artifact.WithGenerateOptions(core.WithoutMerging(), core.WithoutDescriptions()))
	ts := httptest.NewServer(NewHandler(p))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		ts.URL+"/v1/models/api-slow/artifacts/text?r=5000", nil)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := ts.Client().Do(req)
		errc <- err
	}()

	// Wait until the generation is in flight, then drop the client.
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Machine.Misses < 1 {
		if time.Now().After(deadline) {
			t.Fatal("generation did not start within 5s")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("disconnected request reported no error")
	}

	// The server-side abort is observable in the stats shortly after.
	deadline = time.Now().Add(5 * time.Second)
	for p.Stats().Machine.Cancellations < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("no cancellation recorded; stats = %+v", p.Stats().Machine)
		}
		time.Sleep(time.Millisecond)
	}
	st := p.Stats().Machine
	if st.Generations != 0 {
		t.Errorf("generations = %d, want 0 (aborted run must not count)", st.Generations)
	}
	if st.Entries != 0 {
		t.Errorf("cache entries = %d, want 0 after the aborted generation", st.Entries)
	}
}

func TestStatsEndpointReportsCancellationsField(t *testing.T) {
	ts := httptest.NewServer(NewHandler(artifact.New()))
	defer ts.Close()
	resp, body := get(t, ts, "/v1/stats", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status = %d", resp.StatusCode)
	}
	if !strings.Contains(body, "Cancellations") {
		t.Errorf("/v1/stats missing the Cancellations counter: %s", body)
	}
}

// TestHugeParameterLeavesTheServerUp: a GET whose ?r= is 2^40 must cost the
// server no more than the client waits for. Building the family member
// once sized a bitset over each guarded component's domain — 2^34 words
// here — and the server died with "runtime: out of memory" before
// generation ever looked at the request's context. Now the member costs
// what its guards cost, the client gives up once generation is under way,
// the generation is cancelled, and the server goes on serving.
func TestHugeParameterLeavesTheServerUp(t *testing.T) {
	p := artifact.New()
	ts := httptest.NewServer(NewHandler(p))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		ts.URL+"/v1/models/termination/artifacts/text?r=1099511627776", nil)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	for p.Stats().Machine.Misses < 1 {
		if ctx.Err() != nil {
			t.Fatalf("generation did not start before the client's deadline; stats = %+v", p.Stats().Machine)
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("GET ?r=2^40 was answered; want the client's cancellation to end it")
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Machine.Cancellations < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("the abandoned generation was not cancelled; stats = %+v", p.Stats().Machine)
		}
		time.Sleep(time.Millisecond)
	}
	resp, body := get(t, ts, "/v1/models/termination/artifacts/text?r=4", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "termination") {
		t.Fatalf("GET ?r=4 after the huge request = %d:\n%s", resp.StatusCode, body)
	}
}
