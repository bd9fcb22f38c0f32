package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
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

// startServe starts `fsmgen serve -addr 127.0.0.1:0 args...` as a child
// process, reads the address it bound from its banner, waits for a 200
// from /v1/formats there, and returns the base URL and a stop function
// that kills and reaps the child. The test's cleanup stops it too.
func startServe(t *testing.T, args ...string) (url string, stop func()) {
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
	stop = sync.OnceFunc(func() {
		cmd.Process.Kill()
		cmd.Wait()
		<-drained
	})
	t.Cleanup(stop)

	select {
	case url = <-bound:
	case <-drained:
		stop()
		t.Fatalf("serve exited before its banner: %s", stderr.Bytes())
	case <-time.After(10 * time.Second):
		t.Fatal("no banner within 10s")
	}
	// The banner follows the bind, so the first request is answered.
	get(t, url+"/v1/formats")
	return url, stop
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

	url, stop := startServe(t, "-store", dir)
	first := get(t, url+artefact)
	stop()
	for name := range leftovers {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s survived the first boot: %v", name, err)
		}
	}
	if files, err := os.ReadDir(filepath.Join(dir, "artefacts")); err != nil || len(files) != 1 {
		t.Fatalf("artefacts/ after one GET: %v, %v; want one file", files, err)
	}

	url, _ = startServe(t, "-store", dir)
	for _, round := range []string{"after the restart", "again"} {
		if again := get(t, url+artefact); !bytes.Equal(again, first) {
			t.Errorf("GET %s: the bytes differ from the first boot's", round)
		}
	}
	var stats struct {
		Machine      struct{ Generations int64 }
		RenderMisses int64
		HotHits      int64
	}
	if err := json.Unmarshal(get(t, url+"/v1/stats"), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Machine.Generations != 0 || stats.RenderMisses != 1 || stats.HotHits != 1 {
		t.Errorf("stats after the restart = %+v, want Generations 0, RenderMisses 1, HotHits 1", stats)
	}
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
