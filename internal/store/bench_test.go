package store

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// storeKeys is the number of keys BenchmarkStore holds.
const storeKeys = 2000

// benchBody is the common tail of every benchmark artefact; each carries a
// fixed-width distinct prefix, so every artefact has the same size.
var benchBody = strings.Repeat("x", 1<<10-9)

// benchPut writes artefact i.
func benchPut(s *Store, i int) (Key, error) {
	data := []byte(fmt.Sprintf("%08d\n", i) + benchBody)
	key := Key{Model: "bench", Param: i, Format: "text", Fingerprint: fmt.Sprintf("%064x", i)}
	return key, s.Put(key, data, sha256.Sum256(data), "text/plain", ".txt")
}

// BenchmarkStore times one operation on a store of storeKeys 1 KiB
// artefacts, filled before any timer starts: get is a verified hit on a
// key drawn at random (a fixed sequence, so recency is not cyclic), open
// loads the whole directory, and put writes a new key and, at the byte
// limit, evicts the least recently used one. put runs last: it replaces
// the keys the other two read.
func BenchmarkStore(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	// Concurrent writers overlap their fsyncs, which keeps the fill near
	// a second on a slow disk.
	const writers = 8
	keys := make([]Key, storeKeys)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < storeKeys; i += writers {
				var err error
				if keys[i], err = benchPut(s, i); err != nil {
					b.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if b.Failed() {
		return
	}
	s.SetLimit(s.Stats().Bytes)
	rng := rand.New(rand.NewSource(1))
	draws := make([]int, 1<<12)
	for i := range draws {
		draws[i] = rng.Intn(storeKeys)
	}

	b.Run("get", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, _, _, ok := s.Get(keys[draws[i%len(draws)]]); !ok {
				b.Fatal("get missed")
			}
		}
	})
	b.Run("open", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			o, err := Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			if o.Len() != storeKeys {
				b.Fatalf("opened %d keys, want %d", o.Len(), storeKeys)
			}
			o.Close()
		}
	})
	next := storeKeys
	b.Run("put", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := benchPut(s, next); err != nil {
				b.Fatal(err)
			}
			next++
		}
		if s.Len() != storeKeys {
			b.Fatalf("%d keys after puts, want %d", s.Len(), storeKeys)
		}
	})
}
