// Package store is the content-addressed on-disk artefact store that sits
// under the artefact pipeline's render memo. Every rendered artefact is
// persisted as a sha256-named blob plus a key file named the same way the
// pipeline keys its render memo — by (model fingerprint, format), for all
// seven formats — so a restarted serve process answers every previously
// rendered artefact from disk instead of regenerating it (the ROADMAP's
// "cold-start warm, survives restarts" tier).
//
// Layout under the store directory:
//
//	blobs/<hh>/<sha256-hex>       artefact content, named by its own hash
//	keys/<fingerprint>.<format>   JSON: the blob's sum, metadata, write sequence
//
// A put writes the blob (tmp-file, fsync, rename), then its key file in
// place, then unlinks a blob no key names any more. Open drops a key file
// that does not parse or names a missing blob, and removes every blob and
// temporary file no key names, so a crash at any step leaves a store that
// opens. Blob content is verified against its name on every read, so disk
// corruption degrades to a cache miss, never to serving wrong bytes.
//
// The store is size-bounded: beyond SetLimit bytes of unique blob content,
// least-recently-used keys are evicted and their blobs deleted once no
// surviving key references them (two keys may share one blob when their
// rendered bytes are equal).
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Key addresses one artefact: an entry is found by its fingerprint and
// format, and shared by every model that generates under that fingerprint.
type Key struct {
	// Model is the registry name the artefact was rendered for: the first
	// owner of a fingerprint-addressed entry (lookup ignores it), and what
	// EvictModel removes entries by.
	Model string
	// Param is the resolved model parameter.
	Param int
	// Format is the registry format name.
	Format string
	// Fingerprint is the hex model fingerprint of the family member the
	// artefact renders; Put refuses a key without one.
	Fingerprint string
}

// name returns the key's file name under keys/, which is also its map key.
func (k Key) name() string { return k.Fingerprint + "." + k.Format }

// plain reports whether s is a non-empty run of [a-z0-9-]: a segment that
// names a file inside keys/ and nothing else.
func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '-' {
			return false
		}
	}
	return s != ""
}

// keyFile is the JSON content of one key file. Seq is the store's write
// sequence at the put: the recency a reopen starts from.
type keyFile struct {
	Model string `json:"model"`
	Param int    `json:"param"`
	Sum   string `json:"sum"`
	Media string `json:"media"`
	Ext   string `json:"ext"`
	Size  int64  `json:"size"`
	Seq   uint64 `json:"seq"`
}

// entry is one live key in memory. Every field but used is fixed once the
// entry is in the map; used is read and written under the store's lock.
type entry struct {
	key   Key
	sum   [sha256.Size]byte
	media string
	ext   string
	size  int64
	used  uint64
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	// Entries is the number of live keys; Bytes the unique blob bytes they
	// reference (shared blobs counted once).
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// Hits and Misses count Get lookups; a hit includes reading and
	// verifying the blob from disk.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Puts counts key files written; Evictions keys dropped by the size
	// bound; Errors I/O or verification failures (each degraded to a miss
	// or a skipped persist, never to a wrong answer).
	Puts      int64 `json:"puts"`
	Evictions int64 `json:"evictions"`
	Errors    int64 `json:"errors"`
}

// Store is a content-addressed artefact store rooted at one directory. It
// is safe for concurrent use.
type Store struct {
	dir string

	mu      sync.Mutex
	entries map[string]*entry
	// refs counts live keys per blob, so a blob shared by two keys
	// survives the eviction of one.
	refs  map[[sha256.Size]byte]int
	bytes int64
	limit int64
	// clock stamps entries on every put and hit; the least recently used
	// entry has the smallest stamp.
	clock uint64

	hits, misses, puts, evictions, errors int64
}

// Open opens (creating if necessary) the store rooted at dir. It lists
// blobs/ once and loads every key file, removing a key file that does not
// parse or names a missing blob, then removes every blob and temporary
// file no key names.
func Open(dir string) (*Store, error) {
	for _, sub := range []string{"blobs", "keys"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	s := &Store{
		dir:     dir,
		entries: make(map[string]*entry),
		refs:    make(map[[sha256.Size]byte]int),
	}
	// The index log of the layout before key files: its blobs are swept
	// below like any other unnamed blob.
	os.Remove(filepath.Join(dir, "index.log"))

	present, err := s.listBlobs()
	if err != nil {
		return nil, err
	}
	files, err := os.ReadDir(filepath.Join(dir, "keys"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, f := range files {
		if e := s.load(f.Name(), present); e != nil {
			s.insertLocked(f.Name(), e)
			s.clock = max(s.clock, e.used)
		} else {
			os.Remove(s.keyPath(f.Name()))
		}
	}
	for sum := range present {
		if s.refs[sum] == 0 {
			os.Remove(s.blobPath(sum))
		}
	}
	return s, nil
}

// listBlobs returns the sum of every blob under blobs/, removing on the
// way any file not named by a sum (a crashed put's temporary file).
func (s *Store) listBlobs() (map[[sha256.Size]byte]bool, error) {
	root := filepath.Join(s.dir, "blobs")
	dirs, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	present := make(map[[sha256.Size]byte]bool)
	for _, d := range dirs {
		files, err := os.ReadDir(filepath.Join(root, d.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			name := d.Name() + f.Name()
			if sum, ok := parseSum(name); ok && hex.EncodeToString(sum[:]) == name {
				present[sum] = true
			} else {
				os.Remove(filepath.Join(root, d.Name(), f.Name()))
			}
		}
	}
	return present, nil
}

// load reads one key file, returning nil when its name or content does not
// parse or it names a blob that is not present.
func (s *Store) load(name string, present map[[sha256.Size]byte]bool) *entry {
	fp, format, ok := strings.Cut(name, ".")
	if !ok || !plain(fp) || !plain(format) {
		return nil
	}
	data, err := os.ReadFile(s.keyPath(name))
	if err != nil {
		return nil
	}
	var kf keyFile
	if json.Unmarshal(data, &kf) != nil {
		return nil
	}
	sum, ok := parseSum(kf.Sum)
	if !ok || !present[sum] {
		return nil
	}
	return &entry{
		key: Key{Model: kf.Model, Param: kf.Param, Format: format, Fingerprint: fp},
		sum: sum, media: kf.Media, ext: kf.Ext, size: kf.Size, used: kf.Seq,
	}
}

// parseSum decodes a hex sha256 sum.
func parseSum(s string) (sum [sha256.Size]byte, ok bool) {
	if len(s) != 2*sha256.Size {
		return sum, false
	}
	_, err := hex.Decode(sum[:], []byte(s))
	return sum, err == nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) keyPath(name string) string { return filepath.Join(s.dir, "keys", name) }

func (s *Store) blobPath(sum [sha256.Size]byte) string {
	h := hex.EncodeToString(sum[:])
	return filepath.Join(s.dir, "blobs", h[:2], h[2:])
}

// insertLocked adds the entry under name and references its blob. The
// name must not be in the map.
func (s *Store) insertLocked(name string, e *entry) {
	s.entries[name] = e
	if s.refs[e.sum] == 0 {
		s.bytes += e.size
	}
	s.refs[e.sum]++
}

// unrefLocked releases the entry's blob reference, deleting the blob file
// once no key references it.
func (s *Store) unrefLocked(e *entry) {
	s.refs[e.sum]--
	if s.refs[e.sum] > 0 {
		return
	}
	delete(s.refs, e.sum)
	s.bytes -= e.size
	os.Remove(s.blobPath(e.sum))
}

// removeLocked drops the entry under name with its key file, and its blob
// once unreferenced.
func (s *Store) removeLocked(name string) {
	e, ok := s.entries[name]
	if !ok {
		return
	}
	delete(s.entries, name)
	os.Remove(s.keyPath(name))
	s.unrefLocked(e)
}

// Get returns the stored artefact bytes and metadata for the key. The
// blob is re-verified against its content hash on every read; a missing
// or corrupt blob drops the key and is reported as a miss.
func (s *Store) Get(key Key) (data []byte, sum [sha256.Size]byte, media, ext string, ok bool) {
	name := key.name()
	s.mu.Lock()
	e, found := s.entries[name]
	if !found {
		s.misses++
		s.mu.Unlock()
		return nil, sum, "", "", false
	}
	s.mu.Unlock()

	// Disk I/O runs outside the lock; concurrent eviction of this entry at
	// worst deletes the blob first, which reads as a miss below.
	blob, err := os.ReadFile(s.blobPath(e.sum))
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil || sha256.Sum256(blob) != e.sum {
		if s.entries[name] == e {
			s.removeLocked(name)
		}
		s.misses++
		if err != nil && !os.IsNotExist(err) {
			s.errors++
		}
		return nil, sum, "", "", false
	}
	s.hits++
	s.clock++
	e.used = s.clock
	return blob, e.sum, e.media, e.ext, true
}

// Put persists one artefact under the key: the blob is written atomically
// (tmp + fsync + rename, skipped when the content already exists), then
// the key file, then a blob the key named before is unlinked once no key
// names it. Beyond the size limit, least-recently-used entries are
// evicted — never the one just written. The fingerprint and format must
// each be a run of [a-z0-9-], so a key names a file inside keys/ only.
func (s *Store) Put(key Key, data []byte, sum [sha256.Size]byte, media, ext string) error {
	if !plain(key.Fingerprint) || !plain(key.Format) {
		return fmt.Errorf("store: put %s/%d: fingerprint %q and format %q must each be [a-z0-9-]+",
			key.Model, key.Param, key.Fingerprint, key.Format)
	}
	if err := s.writeBlob(sum, data); err != nil {
		s.mu.Lock()
		s.errors++
		s.mu.Unlock()
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	name := key.name()
	s.clock++
	old := s.entries[name]
	if old != nil && old.sum == sum {
		old.used = s.clock
		return nil
	}
	e := &entry{key: key, sum: sum, media: media, ext: ext, size: int64(len(data)), used: s.clock}
	kf, err := json.Marshal(keyFile{
		Model: key.Model, Param: key.Param, Sum: hex.EncodeToString(sum[:]),
		Media: media, Ext: ext, Size: e.size, Seq: e.used,
	})
	if err == nil {
		err = os.WriteFile(s.keyPath(name), kf, 0o644)
	}
	if err != nil {
		s.errors++
		return fmt.Errorf("store: put %s: %w", name, err)
	}
	if old != nil {
		delete(s.entries, name)
		s.unrefLocked(old)
	}
	s.insertLocked(name, e)
	s.puts++
	s.evictLocked(e)
	return nil
}

// Ingest persists an artefact pushed by a remote node, verifying the
// content against the advertised hex sum before anything touches disk —
// a replica never trusts the wire. The write itself is Put, so ingest
// and local renders share the refcounted blob space and LRU policy.
func (s *Store) Ingest(key Key, data []byte, hexSum, media, ext string) error {
	sum, ok := parseSum(hexSum)
	if !ok {
		return fmt.Errorf("store: ingest %s: malformed content sum %q", key.name(), hexSum)
	}
	if sha256.Sum256(data) != sum {
		return fmt.Errorf("store: ingest %s: content does not match advertised sum %s", key.name(), hexSum)
	}
	return s.Put(key, data, sum, media, ext)
}

// writeBlob writes the content under its hash name, atomically. An
// existing blob is trusted: its name is its hash, and Get re-verifies.
func (s *Store) writeBlob(sum [sha256.Size]byte, data []byte) error {
	path := s.blobPath(sum)
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		// Only a failed write leaves the temp file behind: a renamed one
		// is the blob.
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// evictLocked drops least-recently-used entries until the byte bound is
// met, sparing the entry just written.
func (s *Store) evictLocked(spare *entry) {
	for s.limit > 0 && s.bytes > s.limit {
		var victim *entry
		for _, e := range s.entries {
			if e != spare && (victim == nil || e.used < victim.used) {
				victim = e
			}
		}
		if victim == nil {
			return
		}
		s.removeLocked(victim.key.name())
		s.evictions++
	}
}

// SetLimit bounds the unique blob bytes kept on disk; zero (the default)
// means unbounded. Lowering the limit evicts immediately.
func (s *Store) SetLimit(bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.limit = bytes
	s.evictLocked(nil)
}

// EvictModel removes every entry owned by the model name or keyed by one
// of its machine fingerprints (hex), deleting blobs that no surviving key
// references, and returns the number of entries removed. The pipeline
// calls it when a dynamically registered model is unregistered, so a later
// registration under the same name can never be served the departed
// model's bytes from disk.
func (s *Store) EvictModel(model string, fingerprints map[string]bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for name, e := range s.entries {
		if e.key.Model == model || fingerprints[e.key.Fingerprint] {
			s.removeLocked(name)
			n++
		}
	}
	return n
}

// Purge removes every entry and every blob, returning the number of
// entries removed.
func (s *Store) Purge() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.entries)
	for name := range s.entries {
		s.removeLocked(name)
	}
	return n
}

// Len returns the number of live entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Entries:   len(s.entries),
		Bytes:     s.bytes,
		Hits:      s.hits,
		Misses:    s.misses,
		Puts:      s.puts,
		Evictions: s.evictions,
		Errors:    s.errors,
	}
}

// Close releases the store. Every write is done when its call returns, so
// there is nothing to flush; the store must not be used afterwards.
func (s *Store) Close() error { return nil }
