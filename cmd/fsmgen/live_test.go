package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/textproto"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// runMainEnv, when set, makes the test binary run fsmgen's main with its
// arguments instead of the tests: the tests below start the command as a
// child process of its own, the way a user or a script runs it.
const runMainEnv = "FSMGEN_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// fsmgen returns the command `fsmgen args...`, run by this test binary.
func fsmgen(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	return cmd
}

// served is a `fsmgen serve` child process started by startServe.
type served struct {
	url  string // base URL, http://<bound address>
	cmd  *exec.Cmd
	stop func() // kills and reaps the child; safe to call again
}

// startServe starts `fsmgen serve -addr 127.0.0.1:0 args...` as a child
// process, reads the address it bound from its banner, and waits for a 200
// from /v1/formats there. The test's cleanup stops it.
func startServe(t *testing.T, args ...string) *served {
	t.Helper()
	cmd := fsmgen(append([]string{"serve", "-addr", "127.0.0.1:0"}, args...)...)
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = w, &stderr
	err = cmd.Start()
	w.Close()
	if err != nil {
		r.Close()
		t.Fatal(err)
	}
	const banner = "fsmgen serve: listening on "
	bound := make(chan string, 1)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		defer r.Close()
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), banner); ok {
				addr, _, _ := strings.Cut(rest, " ")
				bound <- "http://" + addr
			}
		}
	}()
	s := &served{cmd: cmd, stop: sync.OnceFunc(func() {
		cmd.Process.Kill()
		cmd.Wait()
		<-drained
	})}
	t.Cleanup(s.stop)

	select {
	case s.url = <-bound:
	case <-drained:
		s.stop()
		t.Fatalf("serve exited before its banner: %s", stderr.Bytes())
	case <-time.After(10 * time.Second):
		t.Fatal("no banner within 10s")
	}
	// The banner follows the bind, so the first request is answered.
	get(t, s.url+"/v1/formats")
	return s
}

// peakRSS returns the running child's peak resident set size in bytes,
// the VmHWM line of /proc/<pid>/status. Where there is no /proc, the test
// is skipped: call it after every other check.
func (s *served) peakRSS(t *testing.T) int64 {
	t.Helper()
	if _, err := os.Stat("/proc/self/status"); err != nil {
		t.Skipf("peak RSS not read: this system has no /proc (%v)", err)
	}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kB int64
			if _, err := fmt.Sscanf(rest, "%d kB", &kB); err != nil {
				t.Fatalf("VmHWM line %q: %v", line, err)
			}
			return kB << 10
		}
	}
	t.Fatalf("no VmHWM line in /proc/%d/status", s.cmd.Process.Pid)
	return 0
}

// get returns the body of a 200 answer to GET url.
func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, body)
	}
	return body
}

// TestServeRestartsWarm boots the real server over a store directory,
// renders one artefact, kills it, and boots it again on the same store:
// the end-to-end form of the restart-warmth tests. The store is seeded
// with what a crash or the layouts before one file per artefact leave (an
// index log, a blob and its temporary file, a key file, a temporary file
// in artefacts/); the first boot removes them all, and one GET leaves
// exactly one artefact file. After the restart the first GET is a
// render-tier miss answered from disk, the second a render-tier hit, and
// nothing is generated.
func TestServeRestartsWarm(t *testing.T) {
	dir := t.TempDir()
	orphanSum := sha256.Sum256([]byte("nobody names me"))
	orphan := hex.EncodeToString(orphanSum[:])
	leftovers := map[string]string{
		filepath.Join("blobs", orphan[:2], orphan[2:]):   "nobody names me",
		filepath.Join("blobs", orphan[:2], ".tmp-crash"): "partial",
		filepath.Join("keys", "aa.text"):                 `{"model":"commit","param":4,"sum":"` + orphan + `","size":15,"seq":1}`,
		"index.log":                                      `{"op":"put","model":"commit","param":4,"format":"text","fp":"aa","sum":"` + orphan + `","size":15}` + "\n",
		filepath.Join("artefacts", ".tmp-crash"):         "partial",
	}
	for name, content := range leftovers {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	const artefact = "/v1/models/commit/artifacts/text"

	srv := startServe(t, "-store", dir)
	first := get(t, srv.url+artefact)
	srv.stop()
	for name := range leftovers {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s survived the first boot: %v", name, err)
		}
	}
	if files, err := os.ReadDir(filepath.Join(dir, "artefacts")); err != nil || len(files) != 1 {
		t.Fatalf("artefacts/ after one GET: %v, %v; want one file", files, err)
	}

	srv = startServe(t, "-store", dir)
	for _, round := range []string{"after the restart", "again"} {
		if again := get(t, srv.url+artefact); !bytes.Equal(again, first) {
			t.Errorf("GET %s: the bytes differ from the first boot's", round)
		}
	}
	var stats struct {
		Machine      struct{ Generations int64 }
		RenderMisses int64
		HotHits      int64
	}
	if err := json.Unmarshal(get(t, srv.url+"/v1/stats"), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Machine.Generations != 0 || stats.RenderMisses != 1 || stats.HotHits != 1 {
		t.Errorf("stats after the restart = %+v, want Generations 0, RenderMisses 1, HotHits 1", stats)
	}
	t.Logf("peak RSS of the restarted server: %.1f MiB", float64(srv.peakRSS(t))/(1<<20))
}

// TestCheckExitCodesAsAProcess: `fsmgen check` exits 0 on a conforming
// trace (JSONL and regex-decoded), 1 on a violating one and 2 on a
// malformed one, as the process's own exit status.
func TestCheckExitCodesAsAProcess(t *testing.T) {
	malformed := filepath.Join(t.TempDir(), "malformed.jsonl")
	if err := os.WriteFile(malformed, []byte("\"UPDATE\"\n{broken\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	const traces = "../../examples/traces/"
	for _, c := range []struct {
		args []string
		want int
	}{
		{[]string{"-trace", traces + "commit-conforming.jsonl"}, 0},
		{[]string{"-format", "regex", "-trace", traces + "commit-conforming.log"}, 0},
		{[]string{"-trace", traces + "commit-violating.jsonl"}, 1},
		{[]string{"-trace", malformed}, 2},
	} {
		args := append([]string{"check", "-model", "commit", "-r", "4"}, c.args...)
		out, err := fsmgen(args...).CombinedOutput()
		code := 0
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatalf("fsmgen %v: %v", args, err)
		}
		if code != c.want {
			t.Errorf("fsmgen %v exited %d, want %d\n%s", args, code, c.want, out)
		}
	}
}

// checkStream POSTs trace to the server's commit check route at r=4 (and
// query) as a proto request on a connection of its own, and returns the
// response's header block and its body, the close-delimited event stream,
// read to EOF. It may run on any goroutine.
func checkStream(srv *served, proto, query string, trace []byte) (http.Header, []byte, error) {
	conn, err := net.Dial("tcp", strings.TrimPrefix(srv.url, "http://"))
	if err != nil {
		return nil, nil, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	// The server answers while the trace arrives, so the request is
	// written while the response is read.
	go fmt.Fprintf(conn, "POST /v1/models/commit/check?r=4%s %s\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s",
		query, proto, len(trace), trace)
	raw, err := io.ReadAll(conn)
	if err != nil {
		return nil, nil, err
	}
	head, body, ok := bytes.Cut(raw, []byte("\r\n\r\n"))
	if !ok {
		return nil, nil, fmt.Errorf("%s: no header block in %q", proto, raw)
	}
	status, fields, _ := bytes.Cut(head, []byte("\r\n"))
	if !bytes.HasSuffix(status, []byte(" 200 OK")) {
		return nil, nil, fmt.Errorf("%s: status line %q", proto, status)
	}
	header, err := textproto.NewReader(bufio.NewReader(io.MultiReader(bytes.NewReader(fields),
		strings.NewReader("\r\n\r\n")))).ReadMIMEHeader()
	return http.Header(header), body, err
}

// sseData returns an event stream's data payloads, one a line.
func sseData(stream []byte) []byte {
	var out []byte
	for _, line := range bytes.SplitAfter(stream, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("data: ")); ok {
			out = append(out, rest...)
		}
	}
	return out
}

// checkJSON returns the standard output of `fsmgen check -model commit
// -r 4 -json -trace file flags...`, which exits 1 on a violating trace.
func checkJSON(t *testing.T, file string, flags ...string) []byte {
	t.Helper()
	args := append([]string{"check", "-model", "commit", "-r", "4", "-json", "-trace", file}, flags...)
	out, err := fsmgen(args...).Output()
	var exit *exec.ExitError
	if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
		t.Fatalf("fsmgen %v: %v", args, err)
	}
	return out
}

// writeTrace writes a trace to a file of the test's and returns its path.
func writeTrace(t *testing.T, name string, trace []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, trace, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// alternating is a trace of n FREE, NOT_FREE pairs: it fires each of its
// transitions many times.
func alternating(n int) []byte {
	return bytes.Repeat([]byte("{\"msg\":\"FREE\"}\n{\"msg\":\"NOT_FREE\"}\n"), n)
}

// TestServeCheckStreamMatchesTheCLI: the example traces through the real
// server's check route. The conforming stream ends in a summary event
// with zero violations; it is close-delimited, not chunked, and HTTP/1.0
// gets the same bytes. The violating stream carries a violation event.
// The SSE data payloads equal `fsmgen check -json`'s output byte for
// byte, for the conforming example and for a trace that fires each of
// its transitions a thousand times.
func TestServeCheckStreamMatchesTheCLI(t *testing.T) {
	srv := startServe(t)
	const traces = "../../examples/traces/"
	conformingFile := traces + "commit-conforming.jsonl"
	conforming, err := os.ReadFile(conformingFile)
	if err != nil {
		t.Fatal(err)
	}
	header, stream, err := checkStream(srv, "HTTP/1.1", "", conforming)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(stream, []byte("\nevent: summary\n")) || !bytes.Contains(stream, []byte(`"violations":0`)) {
		t.Errorf("conforming stream ends without a summary of 0 violations:\n%s", stream)
	}
	if c := header.Get("Connection"); c != "close" {
		t.Errorf("Connection %q, want close", c)
	}
	if te := header.Values("Transfer-Encoding"); len(te) != 0 {
		t.Errorf("Transfer-Encoding %q: the check stream is chunked", te)
	}
	if _, http10, err := checkStream(srv, "HTTP/1.0", "", conforming); err != nil {
		t.Fatal(err)
	} else if !bytes.Equal(http10, stream) {
		t.Errorf("HTTP/1.0 stream differs from HTTP/1.1's:\n%s\n---\n%s", http10, stream)
	}
	if got, want := sseData(stream), checkJSON(t, conformingFile); !bytes.Equal(got, want) {
		t.Errorf("conforming SSE data differs from the CLI's JSON:\n%s\n---\n%s", got, want)
	}

	violating, err := os.ReadFile(traces + "commit-violating.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if _, stream, err := checkStream(srv, "HTTP/1.1", "", violating); err != nil {
		t.Fatal(err)
	} else if !bytes.Contains(stream, []byte("\nevent: violation\n")) {
		t.Errorf("violating stream carries no violation event:\n%s", stream)
	}

	trace := alternating(1000)
	_, stream, err = checkStream(srv, "HTTP/1.1", "", trace)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sseData(stream), checkJSON(t, writeTrace(t, "alternating.jsonl", trace)); !bytes.Equal(got, want) {
		t.Errorf("alternating trace: SSE data (%d bytes) differs from the CLI's JSON (%d bytes)", len(got), len(want))
	}
}

// TestServeConcurrentCheckStreams: four streams at once on one server, so
// each works in line and event buffers another stream returned to the
// pools: a conforming trace, one stopped by a violation, a regex-decoded
// log and one absorbed by tolerance=2. Each stream's data payloads equal
// the CLI's JSON for the same trace and options.
func TestServeConcurrentCheckStreams(t *testing.T) {
	srv := startServe(t)
	long := alternating(3000)
	nope := []byte("\"NOPE\"\n")
	half := len(long) / 2
	streams := []struct {
		name, query string
		trace       []byte
		flags       []string
		has         string // a verdict kind the stream must carry
	}{
		{name: "conforming", trace: long},
		{name: "violating", trace: slices.Concat(long, nope, long), has: `"kind":"violation"`},
		{name: "regex", query: "&format=regex", flags: []string{"-format", "regex"},
			trace: regexp.MustCompile(`\{"msg":"(.*)"\}`).ReplaceAll(long, []byte("12:00:00 member-0 recv $1 from member-1"))},
		{name: "tolerance", query: "&tolerance=2", flags: []string{"-tolerance", "2"},
			trace: slices.Concat(long[:half], nope, nope, long[half:]), has: `"kind":"ignored"`},
	}
	want := make([][]byte, len(streams))
	for i, s := range streams {
		want[i] = checkJSON(t, writeTrace(t, s.name, s.trace), s.flags...)
	}
	got := make([][]byte, len(streams))
	var wg sync.WaitGroup
	for i, s := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, stream, err := checkStream(srv, "HTTP/1.1", s.query, s.trace)
			if err != nil {
				t.Errorf("%s: %v", s.name, err)
			}
			got[i] = sseData(stream)
		}()
	}
	wg.Wait()
	for i, s := range streams {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("%s: SSE data (%d bytes) differs from the CLI's JSON (%d bytes)", s.name, len(got[i]), len(want[i]))
		}
		if s.has != "" && !bytes.Contains(got[i], []byte(s.has)) {
			t.Errorf("%s: no %s verdict", s.name, s.has)
		}
	}
}
