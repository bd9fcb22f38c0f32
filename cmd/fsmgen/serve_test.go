package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"asagen/internal/api"
	"asagen/internal/artifact"
)

// TestProfilesStayOffThePublicListener: the binary links net/http/pprof,
// and still the public /v1 handler answers 404 for its paths; the
// profiles are on the debug handler, which -debug-addr serves on a
// listener of its own.
func TestProfilesStayOffThePublicListener(t *testing.T) {
	get := func(h http.Handler, path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}
	public := api.NewHandler(artifact.New())
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/profile?seconds=1", "/debug/pprof/heap"} {
		if rec := get(public, path); rec.Code != http.StatusNotFound {
			t.Errorf("public GET %s = %d, want 404", path, rec.Code)
		}
	}
	rec := get(debugHandler(), "/debug/pprof/")
	if body, _ := io.ReadAll(rec.Body); rec.Code != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Errorf("debug GET /debug/pprof/ = %d\n%.200s", rec.Code, body)
	}
	if rec := get(debugHandler(), "/debug/pprof/heap?debug=1"); rec.Code != http.StatusOK {
		t.Errorf("debug GET /debug/pprof/heap = %d", rec.Code)
	}
}

// TestServeRefusesAnUnusableDebugAddress: a -debug-addr that cannot be
// listened on fails the command before it serves anything.
func TestServeRefusesAnUnusableDebugAddress(t *testing.T) {
	err := runServe([]string{"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:-1"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "debug listener") {
		t.Fatalf("err = %v, want a debug listener error", err)
	}
}
