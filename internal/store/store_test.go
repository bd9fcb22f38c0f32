package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func put(t *testing.T, s *Store, key Key, content string) [sha256.Size]byte {
	t.Helper()
	sum := sha256.Sum256([]byte(content))
	if err := s.Put(key, []byte(content), sum, "text/plain", ".txt"); err != nil {
		t.Fatal(err)
	}
	return sum
}

func machineKey(model, fp, format string) Key {
	return Key{Model: model, Param: 4, Format: format, Fingerprint: fp}
}

// artefactPath is the file the store at dir keeps the key's artefact in.
func artefactPath(dir string, key Key) string {
	return filepath.Join(dir, "artefacts", key.Fingerprint+"."+key.Format)
}

// artefactFiles counts the files under dir's artefacts/.
func artefactFiles(t *testing.T, dir string) int {
	t.Helper()
	files, err := os.ReadDir(filepath.Join(dir, "artefacts"))
	if err != nil {
		t.Fatal(err)
	}
	return len(files)
}

func TestPutGetRoundTrip(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	key := machineKey("commit", "aabb", "text")
	sum := put(t, s, key, "machine artefact")

	data, gotSum, media, ext, ok := s.Get(key)
	if !ok {
		t.Fatal("Get missed a just-written key")
	}
	if string(data) != "machine artefact" || gotSum != sum || media != "text/plain" || ext != ".txt" {
		t.Fatalf("Get = %q/%x/%s/%s", data, gotSum, media, ext)
	}
	if _, _, _, _, ok := s.Get(machineKey("commit", "other", "text")); ok {
		t.Fatal("Get hit an absent fingerprint")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestPutRefusesKeyWithoutFingerprint: every row is found by its
// fingerprint, so a key without one names nothing.
func TestPutRefusesKeyWithoutFingerprint(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	content := []byte("efsm")
	if err := s.Put(Key{Model: "a", Param: 4, Format: "efsm"}, content, sha256.Sum256(content), "text/plain", ".txt"); err == nil {
		t.Fatal("Put accepted a key without a fingerprint")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d, want 0", s.Len())
	}
}

// TestReopenServesPreviousWrites: the restart-warmth core — a fresh Store
// over the same directory serves every previously written artefact. One
// model name is longer than Open's read buffer, so its header is read in
// several pieces.
func TestReopenServesPreviousWrites(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	keys := make([]Key, 0, 8)
	long := strings.Repeat("long-model-name-", 128)
	for i := 0; i < 8; i++ {
		key := machineKey("commit", fmt.Sprintf("fp%02d", i), "text")
		if i == 3 {
			key.Model = long
		}
		put(t, s, key, fmt.Sprintf("content %d", i))
		keys = append(keys, key)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	reopened := mustOpen(t, dir)
	if reopened.Len() != len(keys) {
		t.Fatalf("reopened Len = %d, want %d", reopened.Len(), len(keys))
	}
	for i, key := range keys {
		data, _, _, _, ok := reopened.Get(key)
		if !ok || string(data) != fmt.Sprintf("content %d", i) {
			t.Fatalf("reopened Get(%v) = %q, %v", key, data, ok)
		}
	}
	if n := reopened.EvictModel(long, nil); n != 1 {
		t.Fatalf("EvictModel(the long name) = %d after reopen, want 1", n)
	}
}

// TestReopenDropsRowsWithMissingBlobs: a key whose file vanished is dead
// on reopen, not a latent serving error.
func TestReopenDropsRowsWithMissingBlobs(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	key := machineKey("commit", "dead", "text")
	put(t, s, key, "to be unlinked")
	keep := machineKey("commit", "live", "text")
	put(t, s, keep, "kept")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(artefactPath(dir, key)); err != nil {
		t.Fatal(err)
	}

	reopened := mustOpen(t, dir)
	if _, _, _, _, ok := reopened.Get(key); ok {
		t.Fatal("key with a missing file survived reopen")
	}
	if _, _, _, _, ok := reopened.Get(keep); !ok {
		t.Fatal("intact row lost")
	}
}

// TestCorruptBlobReadsAsMiss: content is re-verified on Get, so flipped
// bits degrade to a miss and the row is dropped.
func TestCorruptBlobReadsAsMiss(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	key := machineKey("commit", "bits", "text")
	put(t, s, key, "pristine content")
	path := artefactPath(dir, key)
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The body is rewritten at its length under an intact header.
	tampered := strings.Replace(string(file), "pristine content", "tampered content", 1)
	if tampered == string(file) {
		t.Fatalf("no body in %q", file)
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, ok := s.Get(key); ok {
		t.Fatal("corrupt artefact served")
	}
	if s.Len() != 0 {
		t.Fatalf("corrupt row not dropped: Len = %d", s.Len())
	}
}

// TestSizeBoundEvictsLRU: beyond the byte limit the least recently used
// rows go first, and their files are unlinked.
func TestSizeBoundEvictsLRU(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	content := strings.Repeat("x", 100)
	var keys []Key
	for i := 0; i < 4; i++ {
		key := machineKey("commit", fmt.Sprintf("lru%d", i), "text")
		put(t, s, key, content+fmt.Sprint(i))
		keys = append(keys, key)
	}
	// Touch key 0 so key 1 is the LRU victim.
	if _, _, _, _, ok := s.Get(keys[0]); !ok {
		t.Fatal("touch miss")
	}
	s.SetLimit(3 * 101)
	if s.Len() != 3 {
		t.Fatalf("Len after limit = %d, want 3", s.Len())
	}
	if _, _, _, _, ok := s.Get(keys[1]); ok {
		t.Fatal("LRU victim survived")
	}
	if _, _, _, _, ok := s.Get(keys[0]); !ok {
		t.Fatal("recently used entry evicted")
	}
	if st := s.Stats(); st.Evictions != 1 || st.Bytes > 3*101 {
		t.Fatalf("stats = %+v", st)
	}
	// Victim's file gone from disk; survivors intact.
	if left := artefactFiles(t, dir); left != 3 {
		t.Fatalf("%d artefact files on disk, want 3", left)
	}
}

// TestEqualBytesUnderTwoKeysAreIndependent: two keys with identical
// content each keep a file of their own; evicting one leaves the other
// readable.
func TestEqualBytesUnderTwoKeysAreIndependent(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	a := machineKey("commit", "sharea", "text")
	b := machineKey("commit", "shareb", "text")
	put(t, s, a, "identical bytes")
	put(t, s, b, "identical bytes")
	if st := s.Stats(); st.Bytes != 2*int64(len("identical bytes")) {
		t.Fatalf("stats = %+v, want each key's bytes counted", st)
	}
	s.EvictModel("", map[string]bool{"sharea": true})
	if data, _, _, _, ok := s.Get(b); !ok || string(data) != "identical bytes" {
		t.Fatalf("Get(b) = %q, %v after evicting a", data, ok)
	}
}

// TestEvictModel removes rows by owner name and by fingerprint set, which
// is how the pipeline purges an unregistered model's disk footprint.
func TestEvictModel(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	put(t, s, machineKey("lease", "leasefp", "text"), "lease machine")
	put(t, s, machineKey("lease", "strayfp", "efsm"), "lease efsm")
	put(t, s, machineKey("commit", "commitfp", "text"), "commit machine")

	if n := s.EvictModel("lease", map[string]bool{"leasefp": true}); n != 2 {
		t.Fatalf("EvictModel removed %d rows, want 2", n)
	}
	if _, _, _, _, ok := s.Get(machineKey("lease", "leasefp", "text")); ok {
		t.Fatal("machine row survived model eviction")
	}
	if _, _, _, _, ok := s.Get(machineKey("lease", "strayfp", "efsm")); ok {
		t.Fatal("a row owned by the name, under a fingerprint not listed, survived model eviction")
	}
	if _, _, _, _, ok := s.Get(machineKey("commit", "commitfp", "text")); !ok {
		t.Fatal("unrelated model evicted")
	}
}

// TestEvictionsSurviveReopen: del rows are replayed, so an evicted key
// stays evicted after restart.
func TestEvictionsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	gone := machineKey("lease", "gonefp", "text")
	put(t, s, gone, "gone")
	put(t, s, machineKey("commit", "stayfp", "text"), "stay")
	s.EvictModel("lease", nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := mustOpen(t, dir)
	if _, _, _, _, ok := reopened.Get(gone); ok {
		t.Fatal("evicted row resurrected by replay")
	}
	if reopened.Len() != 1 {
		t.Fatalf("Len = %d, want 1", reopened.Len())
	}
}

// TestPutSameKeySameContentIsIdempotent: re-putting identical bytes under
// an existing key neither duplicates rows nor rewrites its file.
func TestPutSameKeySameContentIsIdempotent(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	key := machineKey("commit", "idem", "text")
	put(t, s, key, "same bytes")
	put(t, s, key, "same bytes")
	if st := s.Stats(); st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestPutReplacesChangedContent: a key re-put with different bytes serves
// the new bytes, and the old bytes are accounted out.
func TestPutReplacesChangedContent(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	key := machineKey("m", "replaced", "efsm")
	put(t, s, key, "old bytes")
	put(t, s, key, "new longer bytes")
	data, _, _, _, ok := s.Get(key)
	if !ok || string(data) != "new longer bytes" {
		t.Fatalf("Get = %q, %v", data, ok)
	}
	if st := s.Stats(); st.Bytes != int64(len("new longer bytes")) {
		t.Fatalf("bytes = %d, want %d", st.Bytes, len("new longer bytes"))
	}
}

func TestPurgeRemovesEverything(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	put(t, s, machineKey("m", "p1", "text"), "one")
	put(t, s, machineKey("m", "p2", "text"), "two")
	if n := s.Purge(); n != 2 {
		t.Fatalf("Purge = %d, want 2", n)
	}
	if st := s.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stats after purge = %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if reopened := mustOpen(t, dir); reopened.Len() != 0 {
		t.Fatalf("purged store reopened with %d rows", reopened.Len())
	}
}

// TestIngestVerifiesContent: a replica push whose bytes do not match the
// advertised sum must be rejected before anything reaches the index.
func TestIngestVerifiesContent(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	key := machineKey("commit", "fpaa", "text")
	data := []byte("propagated artefact")
	sum := sha256.Sum256(data)

	if err := s.Ingest(key, data, "zz-not-hex", "text/plain", ".txt"); err == nil {
		t.Fatal("Ingest accepted a malformed sum")
	}
	wrong := sha256.Sum256([]byte("other bytes"))
	if err := s.Ingest(key, data, hex.EncodeToString(wrong[:]), "text/plain", ".txt"); err == nil {
		t.Fatal("Ingest accepted mismatched content")
	}
	if s.Len() != 0 {
		t.Fatalf("rejected ingests left %d index rows", s.Len())
	}
	if err := s.Ingest(key, data, hex.EncodeToString(sum[:]), "text/plain", ".txt"); err != nil {
		t.Fatal(err)
	}
	got, gotSum, _, _, ok := s.Get(key)
	if !ok || string(got) != string(data) || gotSum != sum {
		t.Fatalf("Get after ingest = %q, %v", got, ok)
	}
}

// TestConcurrentIngestSameBlob: many writers racing to ingest the same
// bytes — under the same key and under a second key — must leave a
// consistent store: one entry and one file per key, each key's bytes
// counted, and a clean reopen.
func TestConcurrentIngestSameBlob(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	data := []byte("shared replica bytes")
	sum := sha256.Sum256(data)
	hexSum := hex.EncodeToString(sum[:])
	keyA := machineKey("commit", "fp-shared", "text")
	keyB := machineKey("commit", "fp-shared", "dot")

	const writers = 16
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for i := 0; i < writers; i++ {
		key := keyA
		if i%2 == 1 {
			key = keyB
		}
		wg.Add(1)
		go func(key Key) {
			defer wg.Done()
			errs <- s.Ingest(key, data, hexSum, "text/plain", ".txt")
		}(key)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	st := s.Stats()
	if st.Entries != 2 {
		t.Fatalf("entries = %d, want 2 (one per key)", st.Entries)
	}
	if st.Bytes != 2*int64(len(data)) {
		t.Fatalf("bytes = %d, want %d (each key's bytes)", st.Bytes, 2*len(data))
	}
	for _, key := range []Key{keyA, keyB} {
		got, gotSum, _, _, ok := s.Get(key)
		if !ok || string(got) != string(data) || gotSum != sum {
			t.Fatalf("Get(%v) = %q, %v", key, got, ok)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	reopened := mustOpen(t, dir)
	if st := reopened.Stats(); st.Entries != 2 || st.Bytes != 2*int64(len(data)) {
		t.Fatalf("reopened stats = %+v", st)
	}
	if n := artefactFiles(t, dir); n != 2 {
		t.Fatalf("%d artefact files, want 2", n)
	}
}

// diskBytes sums the sizes of every file under dir.
func diskBytes(t *testing.T, dir string) int64 {
	t.Helper()
	var total int64
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return total
}

// TestStoreDiskStaysBoundedUnderLimit: under a byte limit the directory
// holds the live artefacts, a small header each, however many puts came
// before.
func TestStoreDiskStaysBoundedUnderLimit(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	const limit = 8 << 10
	s.SetLimit(limit)
	body := strings.Repeat("x", 1<<10-8)
	for i := 0; i < 5000; i++ {
		put(t, s, machineKey("m", fmt.Sprintf("fp%d", i), "text"), fmt.Sprintf("%08d", i)+body)
	}
	live := s.Len()
	if got, bound := diskBytes(t, dir), int64(limit+live<<10); got > bound {
		t.Fatalf("%d live keys, %d bytes on disk; want at most %d", live, got, bound)
	}
}

// TestOpenDropsUnreadableKeyFiles: a file whose header is torn, one
// whose body is shorter than its header says, and one whose name is no
// key are removed at Open, and the other keys are served.
func TestOpenDropsUnreadableKeyFiles(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	torn := machineKey("commit", "torn", "text")
	put(t, s, torn, "torn header")
	short := machineKey("commit", "short", "text")
	put(t, s, short, "truncated body")
	keep := machineKey("commit", "keep", "text")
	put(t, s, keep, "kept")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for key, cut := range map[Key]func([]byte) []byte{
		torn:  func(b []byte) []byte { return b[:bytes.IndexByte(b, '\n')/2] },
		short: func(b []byte) []byte { return b[:len(b)-1] },
	} {
		data, err := os.ReadFile(artefactPath(dir, key))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(artefactPath(dir, key), cut(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	noKey := filepath.Join(dir, "artefacts", "README")
	if err := os.WriteFile(noKey, []byte("not an artefact"), 0o644); err != nil {
		t.Fatal(err)
	}

	reopened := mustOpen(t, dir)
	if reopened.Len() != 1 {
		t.Fatalf("Len = %d, want the one intact key", reopened.Len())
	}
	if data, _, _, _, ok := reopened.Get(keep); !ok || string(data) != "kept" {
		t.Fatalf("Get(keep) = %q, %v", data, ok)
	}
	for _, path := range []string{artefactPath(dir, torn), artefactPath(dir, short), noKey} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("%s survived Open: %v", path, err)
		}
	}
}

// TestOpenRemovesLeftovers: Open removes a crashed put's temporary file
// and everything the layout of blobs plus key files left (blobs/, keys/
// and the index log before them), and nothing outside its directory; an
// artefact file stays.
func TestOpenRemovesLeftovers(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "store")
	s := mustOpen(t, dir)
	key := machineKey("commit", "named", "text")
	put(t, s, key, "named bytes")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	outside := filepath.Join(root, "outside")
	orphanSum := sha256.Sum256([]byte("nobody names me"))
	orphan := hex.EncodeToString(orphanSum[:])
	leftovers := map[string]string{
		filepath.Join(dir, "blobs", orphan[:2], orphan[2:]):   "nobody names me",
		filepath.Join(dir, "blobs", orphan[:2], ".tmp-crash"): "partial",
		filepath.Join(dir, "keys", "aa.text"):                 `{"model":"commit","param":4,"sum":"` + orphan + `","size":15,"seq":1}`,
		filepath.Join(dir, "index.log"):                       `{"op":"put","model":"commit","param":4,"format":"text","fp":"aa","sum":"` + orphan + `","size":15}` + "\n",
		filepath.Join(dir, "artefacts", ".tmp-12345"):         "partial",
		filepath.Join(outside, "kept"):                        "outside the store",
	}
	for path, content := range leftovers {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A link out of blobs/ is removed, not followed.
	if err := os.Symlink(outside, filepath.Join(dir, "blobs", "escape")); err != nil {
		t.Fatal(err)
	}

	reopened := mustOpen(t, dir)
	for _, gone := range []string{"blobs", "keys", "index.log", filepath.Join("artefacts", ".tmp-12345")} {
		if _, err := os.Lstat(filepath.Join(dir, gone)); !os.IsNotExist(err) {
			t.Errorf("%s survived Open: %v", gone, err)
		}
	}
	if _, err := os.Stat(filepath.Join(outside, "kept")); err != nil {
		t.Errorf("a file outside the store: %v", err)
	}
	if data, _, _, _, ok := reopened.Get(key); !ok || string(data) != "named bytes" {
		t.Fatalf("Get = %q, %v: the artefact did not survive Open", data, ok)
	}
	if n := artefactFiles(t, dir); n != 1 {
		t.Fatalf("%d artefact files, want 1", n)
	}
}

// TestOpenAfterEachPutStep: a put writes a temporary file, then renames
// it over the key's file. Whichever of those steps a crash stops after,
// the reopened store serves the key's earlier bytes or the new ones,
// verified, and keeps one file for it; a first put of a key that stops
// before its rename leaves nothing.
func TestOpenAfterEachPutStep(t *testing.T) {
	key := machineKey("commit", "steps", "text")
	const earlier, later = "the earlier version", "the version being put"
	// The key's file after a put of each version.
	scratch := t.TempDir()
	s := mustOpen(t, scratch)
	var files [2][]byte
	for i, content := range []string{earlier, later} {
		put(t, s, key, content)
		var err error
		if files[i], err = os.ReadFile(artefactPath(scratch, key)); err != nil {
			t.Fatal(err)
		}
	}
	oldFile, newFile := files[0], files[1]
	headerLen := bytes.IndexByte(newFile, '\n') + 1

	for _, step := range []struct {
		name      string
		file, tmp []byte // the key's file and the temporary file; nil when absent
		want      string // "" for no entry
	}{
		{"temporary file created", oldFile, []byte{}, earlier},
		{"header written", oldFile, newFile[:headerLen], earlier},
		{"part of the body written", oldFile, newFile[:headerLen+3], earlier},
		{"temporary file complete", oldFile, newFile, earlier},
		{"renamed", newFile, nil, later},
		{"first put, temporary file complete", nil, newFile, ""},
	} {
		t.Run(step.name, func(t *testing.T) {
			dir := t.TempDir()
			for path, content := range map[string][]byte{
				artefactPath(dir, key):                    step.file,
				filepath.Join(dir, "artefacts", ".tmp-1"): step.tmp,
			} {
				if content == nil {
					continue
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, content, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			s := mustOpen(t, dir)
			data, sum, _, _, ok := s.Get(key)
			switch {
			case step.want == "" && (ok || s.Len() != 0):
				t.Fatalf("Get = %q, %v; Len = %d: want no entry", data, ok, s.Len())
			case step.want != "" && (!ok || string(data) != step.want || sum != sha256.Sum256(data)):
				t.Fatalf("Get = %q, %v; want %q", data, ok, step.want)
			}
			want := 1
			if step.want == "" {
				want = 0
			}
			if n := artefactFiles(t, dir); n != want {
				t.Fatalf("%d files in artefacts/ after Open, want %d", n, want)
			}
		})
	}
}

// TestPutRefusesKeysThatNameNoFile: a key names a file inside artefacts/, so a
// fingerprint or format that is not a plain [a-z0-9-]+ segment is refused
// by Put and by Ingest, whose keys come from peers, before anything is
// written.
func TestPutRefusesKeysThatNameNoFile(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "store")
	s := mustOpen(t, dir)
	data := []byte("hostile key")
	sum := sha256.Sum256(data)
	for _, bad := range []string{"", ".", "..", "a/b", "../x", "A"} {
		for _, key := range []Key{machineKey("m", bad, "text"), machineKey("m", "aabb", bad)} {
			if err := s.Put(key, data, sum, "text/plain", ".txt"); err == nil {
				t.Errorf("Put accepted fingerprint %q, format %q", key.Fingerprint, key.Format)
			}
			if err := s.Ingest(key, data, hex.EncodeToString(sum[:]), "text/plain", ".txt"); err == nil {
				t.Errorf("Ingest accepted fingerprint %q, format %q", key.Fingerprint, key.Format)
			}
		}
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d, want 0", s.Len())
	}
	if n := diskBytes(t, root); n != 0 {
		t.Fatalf("refused puts left %d bytes on disk", n)
	}
	if entries, err := os.ReadDir(root); err != nil || len(entries) != 1 {
		t.Fatalf("beside the store directory: %v, %v", entries, err)
	}
}

// TestRecencySurvivesReopen: each file's header carries its write sequence, so
// a reopened store evicts the oldest write first.
func TestRecencySurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	var keys []Key
	for _, fp := range []string{"a", "b", "c"} {
		key := machineKey("m", fp, "text")
		put(t, s, key, strings.Repeat(fp, 100))
		keys = append(keys, key)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := mustOpen(t, dir)
	reopened.SetLimit(2 * 100)
	if _, _, _, _, ok := reopened.Get(keys[0]); ok {
		t.Fatal("the oldest write survived the limit")
	}
	for _, key := range keys[1:] {
		if _, _, _, _, ok := reopened.Get(key); !ok {
			t.Fatalf("%s evicted before the oldest write", key.Fingerprint)
		}
	}
}
