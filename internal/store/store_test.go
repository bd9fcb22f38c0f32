package store

import (
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
// over the same directory serves every previously written artefact.
func TestReopenServesPreviousWrites(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	keys := make([]Key, 0, 8)
	for i := 0; i < 8; i++ {
		key := machineKey("commit", fmt.Sprintf("fp%02d", i), "text")
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
}

// TestReopenDropsRowsWithMissingBlobs: an index row whose blob vanished is
// dead on replay, not a latent serving error.
func TestReopenDropsRowsWithMissingBlobs(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	key := machineKey("commit", "dead", "text")
	sum := put(t, s, key, "to be unlinked")
	keep := machineKey("commit", "live", "text")
	put(t, s, keep, "kept")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	hexSum := hex.EncodeToString(sum[:])
	if err := os.Remove(filepath.Join(dir, "blobs", hexSum[:2], hexSum[2:])); err != nil {
		t.Fatal(err)
	}

	reopened := mustOpen(t, dir)
	if _, _, _, _, ok := reopened.Get(key); ok {
		t.Fatal("row with missing blob survived replay")
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
	sum := put(t, s, key, "pristine content")
	hexSum := hex.EncodeToString(sum[:])
	path := filepath.Join(dir, "blobs", hexSum[:2], hexSum[2:])
	if err := os.WriteFile(path, []byte("tampered content"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, ok := s.Get(key); ok {
		t.Fatal("corrupt blob served")
	}
	if s.Len() != 0 {
		t.Fatalf("corrupt row not dropped: Len = %d", s.Len())
	}
}

// TestSizeBoundEvictsLRU: beyond the byte limit the least recently used
// rows go first, and their blobs are unlinked once unreferenced.
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
	// Victim blob gone from disk; survivors intact.
	left := 0
	filepath.Walk(filepath.Join(dir, "blobs"), func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			left++
		}
		return nil
	})
	if left != 3 {
		t.Fatalf("%d blobs on disk, want 3", left)
	}
}

// TestSharedBlobSurvivesPartialEviction: two keys with identical content
// share one blob; evicting one key keeps the blob for the other.
func TestSharedBlobSurvivesPartialEviction(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	a := machineKey("commit", "sharea", "text")
	b := machineKey("commit", "shareb", "text")
	put(t, s, a, "identical bytes")
	put(t, s, b, "identical bytes")
	if st := s.Stats(); st.Bytes != int64(len("identical bytes")) {
		t.Fatalf("shared blob double-counted: %+v", st)
	}
	s.EvictModel("", map[string]bool{"sharea": true})
	if _, _, _, _, ok := s.Get(b); !ok {
		t.Fatal("shared blob unlinked while still referenced")
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
// an existing key neither duplicates rows nor grows the log's live state.
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
// the new bytes, and the orphaned old blob is accounted out.
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
// content-addressed blob — under the same key and under a second key
// sharing the bytes — must leave a consistent index: one entry per key,
// the shared blob's bytes counted once, and a clean replay on reopen.
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
	if st.Bytes != int64(len(data)) {
		t.Fatalf("bytes = %d, want %d (shared blob counted once)", st.Bytes, len(data))
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
	if st := reopened.Stats(); st.Entries != 2 || st.Bytes != int64(len(data)) {
		t.Fatalf("reopened stats = %+v", st)
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
// holds the live blobs plus one small key file each, however many puts
// came before.
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

// TestOpenDropsUnreadableKeyFiles: a torn key file and a key file naming
// a missing blob are removed at Open, and the other keys are served.
func TestOpenDropsUnreadableKeyFiles(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	torn := machineKey("commit", "torn", "text")
	put(t, s, torn, "torn key file")
	orphan := machineKey("commit", "orphan", "text")
	sum := put(t, s, orphan, "blob removed")
	keep := machineKey("commit", "keep", "text")
	put(t, s, keep, "kept")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	tornPath := filepath.Join(dir, "keys", torn.Fingerprint+"."+torn.Format)
	data, err := os.ReadFile(tornPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tornPath, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	hexSum := hex.EncodeToString(sum[:])
	if err := os.Remove(filepath.Join(dir, "blobs", hexSum[:2], hexSum[2:])); err != nil {
		t.Fatal(err)
	}

	reopened := mustOpen(t, dir)
	if reopened.Len() != 1 {
		t.Fatalf("Len = %d, want the one intact key", reopened.Len())
	}
	if data, _, _, _, ok := reopened.Get(keep); !ok || string(data) != "kept" {
		t.Fatalf("Get(keep) = %q, %v", data, ok)
	}
	for _, key := range []Key{torn, orphan} {
		if _, err := os.Stat(filepath.Join(dir, "keys", key.Fingerprint+"."+key.Format)); !os.IsNotExist(err) {
			t.Fatalf("key file of %s survived Open: %v", key.Fingerprint, err)
		}
	}
}

// TestOpenRemovesUnnamedBlobs: a blob no key names and a crashed put's
// temporary file are removed at Open; a named blob stays.
func TestOpenRemovesUnnamedBlobs(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	key := machineKey("commit", "named", "text")
	sum := put(t, s, key, "named bytes")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	named := hex.EncodeToString(sum[:])
	orphanSum := sha256.Sum256([]byte("nobody names me"))
	orphan := hex.EncodeToString(orphanSum[:])
	leftovers := []string{
		filepath.Join(dir, "blobs", orphan[:2], orphan[2:]),
		filepath.Join(dir, "blobs", named[:2], ".tmp-crash"),
	}
	for _, path := range leftovers {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte("nobody names me"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	reopened := mustOpen(t, dir)
	for _, path := range leftovers {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("%s survived Open: %v", path, err)
		}
	}
	if data, _, _, _, ok := reopened.Get(key); !ok || string(data) != "named bytes" {
		t.Fatalf("Get = %q, %v: the named blob did not survive Open", data, ok)
	}
}

// TestPutRefusesKeysThatNameNoFile: a key names a file inside keys/, so a
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

// TestRecencySurvivesReopen: each key file carries its write sequence, so
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
