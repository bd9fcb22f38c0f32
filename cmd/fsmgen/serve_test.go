package main

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"asagen/internal/api"
	"asagen/internal/artifact"
)

// TestProfilesStayOffThePublicListener: the binary links net/http/pprof,
// and still the public /v1 handler answers 404 for its paths; the
// profiles are on http.DefaultServeMux, which -debug-addr serves on a
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
	rec := get(http.DefaultServeMux, "/debug/pprof/")
	if body, _ := io.ReadAll(rec.Body); rec.Code != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Errorf("debug GET /debug/pprof/ = %d\n%.200s", rec.Code, body)
	}
	if rec := get(http.DefaultServeMux, "/debug/pprof/heap?debug=1"); rec.Code != http.StatusOK {
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

// TestServePrintsTheAddressItBound: serve binds before it prints, so with
// -addr 127.0.0.1:0 its banner names the port the kernel chose, and the
// API answers there. The server runs until the test binary exits.
func TestServePrintsTheAddressItBound(t *testing.T) {
	r, w := io.Pipe()
	failed := make(chan error, 1)
	go func() {
		err := runServe([]string{"-addr", "127.0.0.1:0"}, w)
		w.CloseWithError(err) // ends the banner reader below
		failed <- err
	}()
	const banner = "fsmgen serve: listening on "
	bound := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), banner); ok {
				addr, _, _ := strings.Cut(rest, " ")
				bound <- addr
				return
			}
		}
	}()
	var addr string
	select {
	case addr = <-bound:
	case err := <-failed:
		t.Fatalf("serve returned before its banner: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("no banner within 10s")
	}
	resp, err := http.Get("http://" + addr + "/v1/formats")
	if err != nil {
		t.Fatalf("GET /v1/formats at the printed address %s: %v", addr, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /v1/formats at %s = %d, want 200", addr, resp.StatusCode)
	}
}

// TestAdvertisedURLNamesTheBoundPort: the default -advertise URL keeps
// -addr's host, localhost when it names none, and takes the port bound.
func TestAdvertisedURLNamesTheBoundPort(t *testing.T) {
	bound := &net.TCPAddr{IP: net.IPv4zero, Port: 40123}
	for addr, want := range map[string]string{
		":0":             "http://localhost:40123",
		":8091":          "http://localhost:40123",
		"127.0.0.1:0":    "http://127.0.0.1:40123",
		"localhost:8091": "http://localhost:40123",
		"[::1]:0":        "http://[::1]:40123",
	} {
		if got := advertised(addr, bound); got != want {
			t.Errorf("advertised(%q) = %s, want %s", addr, got, want)
		}
	}
}
