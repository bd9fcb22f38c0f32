package api

import (
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"asagen/internal/artifact"
)

// routePath fills a route pattern's wildcards with a built-in model and
// format, so every pattern names a path the handler serves.
func routePath(pattern string) string {
	return strings.NewReplacer("{model}", "commit", "{format}", "text").Replace(pattern)
}

// allowedByPath lists each pattern's methods in route order, HEAD after
// GET: the Allow header a method the path lacks is answered with.
func allowedByPath(routes []Route) (patterns []string, allowed map[string][]string) {
	allowed = map[string][]string{}
	for _, route := range routes {
		if _, seen := allowed[route.Pattern]; !seen {
			patterns = append(patterns, route.Pattern)
		}
		allowed[route.Pattern] = append(allowed[route.Pattern], route.Method)
		if route.Method == http.MethodGet {
			allowed[route.Pattern] = append(allowed[route.Pattern], http.MethodHead)
		}
	}
	return patterns, allowed
}

// TestHeadAnswersEveryGetRoute: every GET route answers HEAD with the
// GET's status line and headers (Date aside) and writes no body.
func TestHeadAnswersEveryGetRoute(t *testing.T) {
	h := NewHandler(artifact.New())
	ts := httptest.NewServer(h)
	defer ts.Close()
	addr := ts.Listener.Addr().String()
	for _, route := range h.routes {
		if route.Method != http.MethodGet {
			continue
		}
		path := routePath(route.Pattern)
		// HTTP/1.0: the server closes the connection after the response.
		getStatus, getHeader, getBody := rawExchange(t, addr, http.MethodGet, "HTTP/1.0", path, "")
		headStatus, headHeader, headBody := rawExchange(t, addr, http.MethodHead, "HTTP/1.0", path, "")
		if !strings.HasSuffix(getStatus, " 200 OK") || getBody == "" {
			t.Errorf("GET %s: %q with %d body bytes, want a 200 with a body", path, getStatus, len(getBody))
		}
		if headStatus != getStatus {
			t.Errorf("HEAD %s: %q, GET %q", path, headStatus, getStatus)
		}
		getHeader.Del("Date")
		headHeader.Del("Date")
		for k, v := range getHeader {
			if got := headHeader[k]; !slices.Equal(got, v) {
				t.Errorf("HEAD %s: %s = %q, GET %q", path, k, got, v)
			}
		}
		for k, v := range headHeader {
			if _, ok := getHeader[k]; !ok {
				t.Errorf("HEAD %s: %s = %q, absent from GET", path, k, v)
			}
		}
		if headBody != "" {
			t.Errorf("HEAD %s: body %q, want none", path, headBody)
		}
	}
}

// TestEveryPathRefusesTheMethodsItLacks: on every path of the route table,
// standalone and clustered, each method the path lacks is answered 405
// with the JSON envelope and Allow listing the path's methods in route
// order, HEAD after GET.
func TestEveryPathRefusesTheMethodsItLacks(t *testing.T) {
	standalone := NewHandler(artifact.New())
	tsStandalone := httptest.NewServer(standalone)
	defer tsStandalone.Close()
	tsClustered, node := startClusterNode(t, "node-a", nil)
	clustered := NewHandler(artifact.New(), WithCluster(node))

	for _, c := range []struct {
		name  string
		ts    *httptest.Server
		table []Route
	}{
		{"standalone", tsStandalone, standalone.routes},
		{"clustered", tsClustered, clustered.routes},
	} {
		patterns, allowed := allowedByPath(c.table)
		for _, pattern := range patterns {
			path := routePath(pattern)
			allow := strings.Join(allowed[pattern], ", ")
			for _, method := range []string{
				http.MethodGet, http.MethodHead, http.MethodPost, http.MethodPut,
				http.MethodPatch, http.MethodDelete, http.MethodOptions,
			} {
				if slices.Contains(allowed[pattern], method) {
					continue
				}
				resp, body := do(t, c.ts, method, path, nil)
				if resp.StatusCode != http.StatusMethodNotAllowed {
					t.Errorf("%s: %s %s = %d, want 405", c.name, method, path, resp.StatusCode)
					continue
				}
				if got := resp.Header.Get("Allow"); got != allow {
					t.Errorf("%s: %s %s Allow = %q, want %q", c.name, method, path, got, allow)
				}
				if method == http.MethodHead {
					continue // no body to hold the envelope
				}
				if code := envelope(t, body).Code; code != CodeMethodNotAllowed {
					t.Errorf("%s: %s %s code = %q", c.name, method, path, code)
				}
			}
		}
	}
}
