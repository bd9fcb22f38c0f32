// Package store is the content-addressed on-disk artefact store that sits
// under the artefact pipeline's render memo. Every rendered artefact is
// persisted as a sha256-named blob plus an index row keyed the same way the
// pipeline keys its render memo — by (model fingerprint, format), for all
// seven formats — so a restarted serve process answers every previously
// rendered artefact from disk instead of regenerating it (the ROADMAP's
// "cold-start warm, survives restarts" tier).
//
// Layout under the store directory:
//
//	blobs/<hh>/<sha256-hex>   artefact content, named by its own hash
//	index.log                 JSONL rows: put/del per key
//
// Blobs are written tmp-file-then-rename with an fsync in between, so a
// crash never leaves a partially written blob under its final name. The
// index is an append-only log; reopening replays it, ignoring an
// unparsable trailing line (the torn write of a crash), rows whose blob is
// missing and rows without a fingerprint (an older binary's EFSM rows),
// and compacts the log when dead lines outnumber live rows.
// Blob content is verified against its name on every read, so disk
// corruption degrades to a cache miss, never to serving wrong bytes.
//
// The store is size-bounded: beyond SetLimit bytes of unique blob content,
// least-recently-used index rows are evicted and their blobs deleted once
// no surviving row references them (two keys may share one blob when their
// rendered bytes are equal).
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
	"sync"
)

// Key addresses one artefact in the index: a row is found by its
// fingerprint and format, and shared by every model that generates under
// that fingerprint.
type Key struct {
	// Model is the registry name the artefact was rendered for: the first
	// owner of a fingerprint-addressed row (lookup ignores it), and what
	// EvictModel removes rows by.
	Model string
	// Param is the resolved model parameter.
	Param int
	// Format is the registry format name.
	Format string
	// Fingerprint is the hex model fingerprint of the family member the
	// artefact renders; Put refuses a key without one.
	Fingerprint string
}

// id returns the index-map key.
func (k Key) id() string { return k.Fingerprint + "/" + k.Format }

// row is the JSONL wire form of one index mutation.
type row struct {
	Op     string `json:"op"` // "put" or "del"
	Model  string `json:"model,omitempty"`
	Param  int    `json:"param,omitempty"`
	Format string `json:"format,omitempty"`
	FP     string `json:"fp,omitempty"`
	Sum    string `json:"sum,omitempty"`
	Media  string `json:"media,omitempty"`
	Ext    string `json:"ext,omitempty"`
	Size   int64  `json:"size,omitempty"`
}

// entry is one live index row in memory.
type entry struct {
	key   Key
	sum   [sha256.Size]byte
	media string
	ext   string
	size  int64
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	// Entries is the number of live index rows; Bytes the unique blob
	// bytes they reference (shared blobs counted once).
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// Hits and Misses count Get lookups; a hit includes reading and
	// verifying the blob from disk.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Puts counts index rows written; Evictions rows dropped by the size
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
	log     *os.File
	logw    *bufio.Writer
	entries map[string]*entry
	// order tracks recency (front = least recently used) for the size
	// bound, mirroring the generation cache's LRU bookkeeping.
	order []string
	// refs counts live index rows per blob hex, so a blob shared by two
	// keys survives the eviction of one.
	refs      map[string]int
	bytes     int64
	limit     int64
	tombstone int

	hits, misses, puts, evictions, errors int64
}

// Open opens (creating if necessary) the store rooted at dir and replays
// its index. Rows whose blob file is missing are dropped; an unparsable
// line ends the replay of that line only. When tombstones outnumber live
// rows the log is compacted in place.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "blobs"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:     dir,
		entries: make(map[string]*entry),
		refs:    make(map[string]int),
	}
	if err := s.replay(); err != nil {
		return nil, err
	}
	if s.tombstone > len(s.entries) {
		if err := s.compactLocked(); err != nil {
			return nil, err
		}
	}
	log, err := os.OpenFile(s.indexPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.log = log
	s.logw = bufio.NewWriter(log)
	return s, nil
}

func (s *Store) indexPath() string { return filepath.Join(s.dir, "index.log") }

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// replay loads the index log into memory. A line that fails to decode is
// skipped: the only expected cause is the torn final line of a crashed
// append, and skipping a hypothetically corrupt interior line costs at
// most a regeneration.
func (s *Store) replay() error {
	f, err := os.Open(s.indexPath())
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var r row
		if err := json.Unmarshal(line, &r); err != nil {
			continue
		}
		if r.FP == "" {
			// A row of a binary that keyed EFSM artefacts by (model, param):
			// nothing looks it up any more. It counts as a dead line, so a
			// log full of them is compacted without them.
			s.tombstone++
			continue
		}
		key := Key{Model: r.Model, Param: r.Param, Format: r.Format, Fingerprint: r.FP}
		switch r.Op {
		case "put":
			sum, err := hex.DecodeString(r.Sum)
			if err != nil || len(sum) != sha256.Size {
				continue
			}
			if _, err := os.Stat(s.blobPath(r.Sum)); err != nil {
				// The blob vanished (crash between GC unlink and log
				// append, or external tampering): the row is dead.
				continue
			}
			e := &entry{key: key, media: r.Media, ext: r.Ext, size: r.Size}
			copy(e.sum[:], sum)
			s.insertLocked(e)
		case "del":
			s.removeLocked(key.id())
			s.tombstone++
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("store: replay: %w", err)
	}
	return nil
}

// insertLocked adds or replaces the entry and fixes refcounts and byte
// accounting.
func (s *Store) insertLocked(e *entry) {
	id := e.key.id()
	if old, ok := s.entries[id]; ok {
		s.unrefLocked(old, false)
		s.touchLocked(id)
	} else {
		s.order = append(s.order, id)
	}
	s.entries[id] = e
	hexSum := hex.EncodeToString(e.sum[:])
	if s.refs[hexSum] == 0 {
		s.bytes += e.size
	}
	s.refs[hexSum]++
}

// removeLocked drops the entry by id, returning it (nil when absent).
func (s *Store) removeLocked(id string) *entry {
	e, ok := s.entries[id]
	if !ok {
		return nil
	}
	delete(s.entries, id)
	for i, o := range s.order {
		if o == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.unrefLocked(e, true)
	return e
}

// unrefLocked releases the entry's blob reference; when unlink is set the
// blob file itself is deleted once unreferenced.
func (s *Store) unrefLocked(e *entry, unlink bool) {
	hexSum := hex.EncodeToString(e.sum[:])
	s.refs[hexSum]--
	if s.refs[hexSum] > 0 {
		return
	}
	delete(s.refs, hexSum)
	s.bytes -= e.size
	if unlink {
		os.Remove(s.blobPath(hexSum))
	}
}

func (s *Store) touchLocked(id string) {
	for i, o := range s.order {
		if o == id {
			copy(s.order[i:], s.order[i+1:])
			s.order[len(s.order)-1] = id
			return
		}
	}
}

func (s *Store) blobPath(hexSum string) string {
	return filepath.Join(s.dir, "blobs", hexSum[:2], hexSum[2:])
}

// Get returns the stored artefact bytes and metadata for the key. The
// blob is re-verified against its content hash on every read; a missing
// or corrupt blob is dropped from the index and reported as a miss.
func (s *Store) Get(key Key) (data []byte, sum [sha256.Size]byte, media, ext string, ok bool) {
	id := key.id()
	s.mu.Lock()
	e, found := s.entries[id]
	if !found {
		s.misses++
		s.mu.Unlock()
		return nil, sum, "", "", false
	}
	hexSum := hex.EncodeToString(e.sum[:])
	s.mu.Unlock()

	// Disk I/O runs outside the lock; concurrent eviction of this entry at
	// worst deletes the blob first, which reads as a miss below.
	blob, err := os.ReadFile(s.blobPath(hexSum))
	if err != nil || sha256.Sum256(blob) != e.sum {
		s.mu.Lock()
		if cur, still := s.entries[id]; still && cur == e {
			s.removeLocked(id)
			s.appendLocked(row{Op: "del", Model: key.Model, Param: key.Param, Format: key.Format, FP: key.Fingerprint})
		}
		s.misses++
		if err != nil && !os.IsNotExist(err) {
			s.errors++
		}
		s.mu.Unlock()
		return nil, sum, "", "", false
	}

	s.mu.Lock()
	s.hits++
	s.touchLocked(id)
	media, ext = e.media, e.ext
	s.mu.Unlock()
	return blob, e.sum, media, ext, true
}

// Put persists one artefact under the key: the blob is written atomically
// (tmp + fsync + rename, skipped when the content already exists) and an
// index row is appended. Beyond the size limit, least-recently-used
// entries are evicted — never the one just written.
func (s *Store) Put(key Key, data []byte, sum [sha256.Size]byte, media, ext string) error {
	if key.Fingerprint == "" {
		return fmt.Errorf("store: put %s/%d/%s: key has no fingerprint", key.Model, key.Param, key.Format)
	}
	hexSum := hex.EncodeToString(sum[:])
	if err := s.writeBlob(hexSum, data); err != nil {
		s.mu.Lock()
		s.errors++
		s.mu.Unlock()
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	id := key.id()
	if old, ok := s.entries[id]; ok && old.sum == sum {
		s.touchLocked(id)
		return nil
	}
	e := &entry{key: key, sum: sum, media: media, ext: ext, size: int64(len(data))}
	s.insertLocked(e)
	s.puts++
	if err := s.appendLocked(row{
		Op: "put", Model: key.Model, Param: key.Param, Format: key.Format,
		FP: key.Fingerprint, Sum: hexSum, Media: media, Ext: ext, Size: e.size,
	}); err != nil {
		return err
	}
	s.evictLocked(id)
	return nil
}

// Ingest persists an artefact pushed by a remote node, verifying the
// content against the advertised hex sum before anything touches disk —
// a replica never trusts the wire. The write itself is Put, so ingest
// and local renders share the refcounted blob space and LRU policy.
func (s *Store) Ingest(key Key, data []byte, hexSum, media, ext string) error {
	want, err := hex.DecodeString(hexSum)
	if err != nil || len(want) != sha256.Size {
		return fmt.Errorf("store: ingest %s: malformed content sum %q", key.id(), hexSum)
	}
	sum := sha256.Sum256(data)
	if !bytes.Equal(sum[:], want) {
		return fmt.Errorf("store: ingest %s: content does not match advertised sum %s", key.id(), hexSum)
	}
	return s.Put(key, data, sum, media, ext)
}

// writeBlob writes the content under its hash name, atomically. An
// existing blob is trusted: its name is its hash, and Get re-verifies.
func (s *Store) writeBlob(hexSum string, data []byte) error {
	path := s.blobPath(hexSum)
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
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// appendLocked writes one index row and flushes it to the log file.
func (s *Store) appendLocked(r row) error {
	if s.logw == nil {
		return nil
	}
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if _, err := s.logw.Write(data); err != nil {
		s.errors++
		return fmt.Errorf("store: index append: %w", err)
	}
	if err := s.logw.Flush(); err != nil {
		s.errors++
		return fmt.Errorf("store: index append: %w", err)
	}
	if r.Op == "del" {
		s.tombstone++
	}
	return nil
}

// evictLocked drops least-recently-used entries until the byte bound is
// met, sparing the id just written.
func (s *Store) evictLocked(spare string) {
	if s.limit <= 0 {
		return
	}
	for s.bytes > s.limit && len(s.order) > 1 {
		victim := s.order[0]
		if victim == spare {
			if len(s.order) == 1 {
				return
			}
			// Rotate the spared id to the MRU end and retry.
			s.touchLocked(victim)
			continue
		}
		e := s.removeLocked(victim)
		if e == nil {
			continue
		}
		s.evictions++
		s.appendLocked(row{Op: "del", Model: e.key.Model, Param: e.key.Param, Format: e.key.Format, FP: e.key.Fingerprint})
	}
}

// SetLimit bounds the unique blob bytes kept on disk; zero (the default)
// means unbounded. Lowering the limit evicts immediately.
func (s *Store) SetLimit(bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.limit = bytes
	s.evictLocked("")
}

// EvictModel removes every index row owned by the model name or keyed by
// one of its machine fingerprints (hex), deleting blobs that no surviving
// row references, and returns the number of rows removed. The pipeline
// calls it when a dynamically registered model is unregistered, so a later
// registration under the same name can never be served the departed
// model's bytes from disk.
func (s *Store) EvictModel(model string, fingerprints map[string]bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var victims []string
	for id, e := range s.entries {
		if e.key.Model == model || fingerprints[e.key.Fingerprint] {
			victims = append(victims, id)
		}
	}
	for _, id := range victims {
		e := s.removeLocked(id)
		if e == nil {
			continue
		}
		s.appendLocked(row{Op: "del", Model: e.key.Model, Param: e.key.Param, Format: e.key.Format, FP: e.key.Fingerprint})
	}
	return len(victims)
}

// Purge removes every index row and every blob, returning the number of
// rows removed.
func (s *Store) Purge() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.entries)
	for _, e := range s.entries {
		s.appendLocked(row{Op: "del", Model: e.key.Model, Param: e.key.Param, Format: e.key.Format, FP: e.key.Fingerprint})
		os.Remove(s.blobPath(hex.EncodeToString(e.sum[:])))
	}
	s.entries = make(map[string]*entry)
	s.refs = make(map[string]int)
	s.order = nil
	s.bytes = 0
	return n
}

// Compact rewrites the index log to the live rows only, atomically.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.logw != nil {
		if err := s.logw.Flush(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	if err := s.compactLocked(); err != nil {
		return err
	}
	// Reopen the append handle on the rewritten file.
	if s.log != nil {
		s.log.Close()
	}
	log, err := os.OpenFile(s.indexPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.log = log
	s.logw = bufio.NewWriter(log)
	return nil
}

// compactLocked rewrites the index to the live rows in LRU order (so a
// replay reconstructs the same recency), tmp + rename.
func (s *Store) compactLocked() error {
	tmp, err := os.CreateTemp(s.dir, ".index-*")
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	defer os.Remove(tmp.Name())
	w := bufio.NewWriter(tmp)
	for _, id := range s.order {
		e, ok := s.entries[id]
		if !ok {
			continue
		}
		data, err := json.Marshal(row{
			Op: "put", Model: e.key.Model, Param: e.key.Param, Format: e.key.Format,
			FP: e.key.Fingerprint, Sum: hex.EncodeToString(e.sum[:]),
			Media: e.media, Ext: e.ext, Size: e.size,
		})
		if err != nil {
			tmp.Close()
			return err
		}
		if _, err := w.Write(append(data, '\n')); err != nil {
			tmp.Close()
			return fmt.Errorf("store: compact: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.indexPath()); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	s.tombstone = 0
	return nil
}

// Len returns the number of live index rows.
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

// Close flushes and closes the index log. The store must not be used
// afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.logw != nil {
		if err := s.logw.Flush(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		s.logw = nil
	}
	if s.log != nil {
		err := s.log.Close()
		s.log = nil
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	return nil
}
