// Package store is the on-disk artefact store that sits under the
// artefact pipeline's render memo. Every rendered artefact is persisted as
// one file named the way the pipeline keys its render memo — by (model
// fingerprint, format), for all seven formats — so a restarted serve
// process answers every previously rendered artefact from disk instead of
// regenerating it (the ROADMAP's "cold-start warm, survives restarts"
// tier).
//
// Layout under the store directory:
//
//	artefacts/<fingerprint>.<format>   a one-line JSON header, then the bytes
//
// The header holds the owning model and parameter, the bytes' sha256 sum,
// media type, extension and length, and the store's write sequence at the
// put. A put writes the whole file under a .tmp-* name, syncs and closes
// it, then renames it into place, so a crash leaves either the previous
// file or the new one, and at worst a temporary file that Open removes.
// Open also drops a file whose header does not parse or whose length
// disagrees with it. The bytes are verified against the header's sum on
// every read, so disk corruption degrades to a cache miss, never to
// serving wrong bytes.
//
// The store is size-bounded: beyond SetLimit bytes of stored artefacts,
// least-recently-used keys are evicted and their files deleted.
package store

import (
	"bufio"
	"bytes"
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

// name returns the key's file name under artefacts/, which is also its
// map key.
func (k Key) name() string { return k.Fingerprint + "." + k.Format }

// plain reports whether s is a non-empty run of [a-z0-9-]: a segment that
// names a file inside artefacts/ and nothing else.
func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '-' {
			return false
		}
	}
	return s != ""
}

// header is the first line of an artefact file. Seq is the store's write
// sequence at the put: the recency a reopen starts from.
type header struct {
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
	// Entries is the number of live keys; Bytes the artefact bytes they
	// hold, headers not counted.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// Hits and Misses count Get lookups; a hit includes reading and
	// verifying the artefact from disk.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Puts counts artefact files written; Evictions keys dropped by the
	// size bound; Errors I/O or verification failures (each degraded to a
	// miss or a skipped persist, never to a wrong answer).
	Puts      int64 `json:"puts"`
	Evictions int64 `json:"evictions"`
	Errors    int64 `json:"errors"`
}

// Store is an artefact store rooted at one directory. It is safe for
// concurrent use.
type Store struct {
	dir string

	mu      sync.Mutex
	entries map[string]*entry
	bytes   int64
	limit   int64
	// clock stamps entries on every put and hit; the least recently used
	// entry has the smallest stamp.
	clock uint64

	hits, misses, puts, evictions, errors int64
}

// Open opens (creating if necessary) the store rooted at dir. It loads
// the header of every artefact file, removing a file whose name or header
// does not parse or whose length disagrees with its header, every
// temporary file, and what the layout before one file per artefact left:
// blobs/, keys/ and index.log.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "artefacts"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, old := range []string{"blobs", "keys", "index.log"} {
		if err := os.RemoveAll(filepath.Join(dir, old)); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	files, err := os.ReadDir(filepath.Join(dir, "artefacts"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, entries: make(map[string]*entry, len(files))}
	// One reader serves every file: a header is read without a read
	// buffer of its own.
	br := bufio.NewReaderSize(nil, 512)
	for _, f := range files {
		if e := s.load(f.Name(), br); e != nil {
			s.entries[f.Name()] = e
			s.bytes += e.size
			s.clock = max(s.clock, e.used)
		} else {
			os.Remove(s.path(f.Name()))
		}
	}
	return s, nil
}

// load reads the header of one artefact file, returning nil when the
// name or header does not parse or the file's length is not the header's
// line plus the size it records (a torn write).
func (s *Store) load(name string, br *bufio.Reader) *entry {
	fp, format, ok := strings.Cut(name, ".")
	if !ok || !plain(fp) || !plain(format) {
		return nil
	}
	f, err := os.Open(s.path(name))
	if err != nil {
		return nil
	}
	defer f.Close()
	br.Reset(f)
	line, err := br.ReadBytes('\n')
	var h header
	if err != nil || json.Unmarshal(line, &h) != nil {
		return nil
	}
	sum, ok := parseSum(h.Sum)
	info, err := f.Stat()
	if !ok || err != nil || h.Size < 0 || info.Size() != int64(len(line))+h.Size {
		return nil
	}
	return &entry{
		key: Key{Model: h.Model, Param: h.Param, Format: format, Fingerprint: fp},
		sum: sum, media: h.Media, ext: h.Ext, size: h.Size, used: h.Seq,
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

func (s *Store) path(name string) string { return filepath.Join(s.dir, "artefacts", name) }

// removeLocked drops the entry under name with its file.
func (s *Store) removeLocked(name string) {
	e, ok := s.entries[name]
	if !ok {
		return
	}
	delete(s.entries, name)
	s.bytes -= e.size
	os.Remove(s.path(name))
}

// Get returns the stored artefact bytes and metadata for the key. The
// bytes are re-verified against the entry's sum on every read; a missing
// or corrupt file drops the key and is reported as a miss.
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

	// Disk I/O runs outside the lock; a concurrent eviction or put of this
	// key at worst removes or replaces the file first, which reads as a
	// miss below.
	file, err := os.ReadFile(s.path(name))
	if err == nil {
		data = file[bytes.IndexByte(file, '\n')+1:]
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil || sha256.Sum256(data) != e.sum {
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
	return data, e.sum, e.media, e.ext, true
}

// Put persists one artefact under the key: the header and bytes are
// written to a temporary file, synced and renamed into place, unless the
// key already holds these bytes. Beyond the size limit, least-recently-used
// entries are evicted — never the one just written. The fingerprint and
// format must each be a run of [a-z0-9-], so a key names a file inside
// artefacts/ only.
func (s *Store) Put(key Key, data []byte, sum [sha256.Size]byte, media, ext string) error {
	if !plain(key.Fingerprint) || !plain(key.Format) {
		return fmt.Errorf("store: put %s/%d: fingerprint %q and format %q must each be [a-z0-9-]+",
			key.Model, key.Param, key.Fingerprint, key.Format)
	}
	name := key.name()
	s.mu.Lock()
	s.clock++
	seq := s.clock
	if old := s.entries[name]; old != nil && old.sum == sum {
		old.used = seq
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()

	e := &entry{key: key, sum: sum, media: media, ext: ext, size: int64(len(data)), used: seq}
	tmp, err := s.writeTemp(e, data)
	s.mu.Lock()
	defer s.mu.Unlock()
	// The rename and the map change happen under one lock, so concurrent
	// writers of one key leave the file and the entry of the same put.
	if err == nil {
		if err = os.Rename(tmp, s.path(name)); err != nil {
			os.Remove(tmp)
		}
	}
	if err != nil {
		s.errors++
		return fmt.Errorf("store: put %s: %w", name, err)
	}
	if old := s.entries[name]; old != nil {
		s.bytes -= old.size
	}
	s.entries[name] = e
	s.bytes += e.size
	s.puts++
	s.evictLocked(e)
	return nil
}

// writeTemp writes the entry's header and the bytes to a new temporary
// file in artefacts/, synced and closed, and returns its path. A failed
// write removes the file.
func (s *Store) writeTemp(e *entry, data []byte) (string, error) {
	line, err := json.Marshal(header{
		Model: e.key.Model, Param: e.key.Param, Sum: hex.EncodeToString(e.sum[:]),
		Media: e.media, Ext: e.ext, Size: e.size, Seq: e.used,
	})
	if err != nil {
		return "", err
	}
	tmp, err := os.CreateTemp(filepath.Join(s.dir, "artefacts"), ".tmp-*")
	if err != nil {
		return "", err
	}
	_, err = tmp.Write(append(line, '\n'))
	if err == nil {
		_, err = tmp.Write(data)
	}
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	return tmp.Name(), nil
}

// Ingest persists an artefact pushed by a remote node, verifying the
// content against the advertised hex sum before anything touches disk —
// a replica never trusts the wire. The write itself is Put, so ingest
// and local renders share one file space and LRU policy.
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

// SetLimit bounds the artefact bytes kept on disk; zero (the default)
// means unbounded. Lowering the limit evicts immediately.
func (s *Store) SetLimit(bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.limit = bytes
	s.evictLocked(nil)
}

// EvictModel removes every entry owned by the model name or keyed by one
// of its machine fingerprints (hex), deleting their files, and returns the
// number of entries removed. The pipeline calls it when a dynamically
// registered model is unregistered, so a later registration under the
// same name can never be served the departed model's bytes from disk.
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

// Purge removes every entry and its file, returning the number of
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
