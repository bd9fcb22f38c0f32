package store

import (
	"crypto/sha256"
	"errors"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// tempFiles lists the .tmp-* files under dir's artefacts/.
func tempFiles(t *testing.T, dir string) []string {
	t.Helper()
	var found []string
	err := filepath.WalkDir(filepath.Join(dir, "artefacts"), func(path string, d fs.DirEntry, err error) error {
		if err == nil && strings.HasPrefix(d.Name(), ".tmp-") {
			found = append(found, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return found
}

// failedPutDir names the store a child process of
// TestPutLeavesNoTempFile writes into.
const failedPutDir = "STORE_TEST_FAILED_PUT_DIR"

// TestPutLeavesNoTempFile: an artefact is written to a .tmp-* file and
// renamed into place, and neither a Put that succeeds nor one whose write
// fails leaves that file behind. The write fails under a file-size limit
// (RLIMIT_FSIZE): a Go program ignores the SIGXFSZ, so write(2) returns
// EFBIG. The limit binds every file of a process, the test log and
// profiles of a test binary included, so that Put runs in a child
// process of its own.
func TestPutLeavesNoTempFile(t *testing.T) {
	if dir := os.Getenv(failedPutDir); dir != "" {
		putPastFileSizeLimit(t, dir)
		return
	}
	dir := t.TempDir()
	s := mustOpen(t, dir)
	key := machineKey("commit", "aa", "text")
	put(t, s, key, "an artefact")
	info, err := os.Stat(s.path(key.name()))
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm() != 0o644 {
		t.Errorf("artefact file mode = %v, want -rw-r--r--", info.Mode().Perm())
	}
	if tmp := tempFiles(t, dir); len(tmp) > 0 {
		t.Fatalf("a Put left %q", tmp)
	}

	child := exec.Command(os.Args[0], "-test.run=^TestPutLeavesNoTempFile$", "-test.v")
	child.Env = append(os.Environ(), failedPutDir+"="+dir)
	out, err := child.CombinedOutput()
	switch {
	case err != nil:
		t.Fatalf("the failing Put: %v\n%s", err, out)
	case strings.Contains(string(out), "--- SKIP"):
		t.Skipf("the failing Put:\n%s", out)
	}
	if tmp := tempFiles(t, dir); len(tmp) > 0 {
		t.Fatalf("a Put whose write failed left %q", tmp)
	}
}

// putPastFileSizeLimit puts a 2 KiB artefact into the store at dir under a
// 1 KiB file-size limit and requires the write to fail with EFBIG.
func putPastFileSizeLimit(t *testing.T, dir string) {
	var limit syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &limit); err != nil {
		t.Fatal(err)
	}
	const small = 1 << 10
	if limit.Cur < 2*small {
		t.Skipf("file-size limit is already %d bytes", limit.Cur)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	data := []byte(strings.Repeat("x", 2*small))
	sum := sha256.Sum256(data)
	lowered := limit
	lowered.Cur = small
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lowered); err != nil {
		t.Skipf("cannot lower the file-size limit: %v", err)
	}
	key := machineKey("commit", "bb", "text")
	err = s.Put(key, data, sum, "text/plain", ".txt")
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &limit); err != nil {
		t.Fatalf("restoring the file-size limit: %v", err)
	}
	if !errors.Is(err, syscall.EFBIG) {
		t.Fatalf("Put past the file-size limit: err = %v, want EFBIG", err)
	}
	if _, err := os.Stat(s.path(key.name())); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("a failed write left its artefact file: %v", err)
	}
}
