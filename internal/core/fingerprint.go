package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"sync"
)

// This file implements deterministic fingerprints for abstract models and
// generated machines. A fingerprint identifies everything that determines
// the generated output: the model's identity (name, parameter, components,
// messages, start vector) and the generation options that change the
// resulting machine. It is the key of the generation cache and the basis
// for content-addressed artefact storage and HTTP cache validators: two
// requests with equal fingerprints are guaranteed bit-identical artefacts,
// so regeneration can be skipped (§4.2's cached generation policy).

// Fingerprint is a 256-bit content hash identifying one generated machine
// family member together with the generation options used to produce it.
type Fingerprint [sha256.Size]byte

// String returns the full lowercase hex rendering.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// Short returns a 12-hex-digit prefix, convenient for filenames and logs.
func (f Fingerprint) Short() string { return hex.EncodeToString(f[:6]) }

// IsZero reports whether the fingerprint is unset.
func (f Fingerprint) IsZero() bool { return f == Fingerprint{} }

// fpWriter accumulates length-prefixed fields into a hash, so that field
// boundaries are unambiguous ("ab"+"c" never collides with "a"+"bc").
type fpWriter struct {
	h   hash.Hash
	buf []byte
}

func (w *fpWriter) writeInt(v int) {
	w.buf = binary.AppendVarint(w.buf[:0], int64(v))
	w.h.Write(w.buf)
}

func (w *fpWriter) writeString(s string) {
	w.writeInt(len(s))
	w.buf = append(w.buf[:0], s...)
	w.h.Write(w.buf)
}

func (w *fpWriter) writeStrings(ss []string) {
	w.writeInt(len(ss))
	for _, s := range ss {
		w.writeString(s)
	}
}

// fpPool recycles fingerprint writers: fingerprinting runs on every
// cache lookup (the serve hot path), so the hasher, writer and scratch
// buffer are reused instead of allocated per call.
var fpPool = sync.Pool{New: func() any {
	return &fpWriter{h: sha256.New(), buf: make([]byte, 0, 64)}
}}

func newFPWriter() *fpWriter {
	w := fpPool.Get().(*fpWriter)
	w.h.Reset()
	return w
}

// sum finalises the hash into a stack-allocated Fingerprint and returns
// the writer to the pool; w must not be used afterwards.
func (w *fpWriter) sum() Fingerprint {
	var f Fingerprint
	w.h.Sum(f[:0])
	fpPool.Put(w)
	return f
}

// Fingerprinter is implemented by models whose behavioural identity is
// not fully determined by their declared structure — e.g. variant readings
// of one protocol that share name, parameter, components and messages but
// differ in transition logic. The extra material is folded into
// FingerprintModel, keeping variants from colliding in the cache.
type Fingerprinter interface {
	// FingerprintExtra returns deterministic identity material beyond the
	// declared structure.
	FingerprintExtra() []string
}

// FingerprintModel returns the fingerprint of the machine that Generate
// would produce for the model under the given options. It is computed from
// the model's declared structure alone — the machine is never generated —
// so it is cheap enough to serve as a cache key on every request.
//
// A model whose transition logic varies independently of its declared
// structure must implement Fingerprinter; otherwise two behaviourally
// different models could collide on one cache entry.
//
// Options that change the generated machine (merging, descriptions) are
// folded into the hash as bits 2 and 8 of a flag word. Bits 1 and 4 once
// named two options that no longer exist and are written as they always
// were by default (1 set, 4 clear), so every fingerprint — and with it
// every store key, route key and ETag-bearing header — is what it was.
func FingerprintModel(m Model, opts ...Option) Fingerprint {
	cfg := newGenConfig(opts)
	w := newFPWriter()
	w.writeString("asagen/model-fingerprint/v1")
	w.writeString(m.Name())
	w.writeInt(m.Parameter())

	components := m.Components()
	w.writeInt(len(components))
	for _, c := range components {
		w.writeString(c.Name())
		w.writeInt(c.Cardinality())
	}
	w.writeStrings(m.Messages())

	start := m.Start()
	w.writeInt(len(start))
	for _, v := range start {
		w.writeInt(v)
	}

	var extra []string
	if fx, ok := m.(Fingerprinter); ok {
		extra = fx.FingerprintExtra()
	}
	w.writeStrings(extra)

	w.writeInt(cfg.flags())
	return w.sum()
}

// flags is the flag word a fingerprint names the machine-changing options
// by (see FingerprintModel).
func (cfg genConfig) flags() int {
	flags := 1
	if cfg.merge {
		flags |= 2
	}
	if cfg.describe {
		flags |= 8
	}
	return flags
}

// OptionFlags returns the flag word FingerprintModel folds in for opts:
// the machine-changing options as one comparable value, for callers that
// key a table by them. No options is answered without building a config,
// which the options would move to the heap: every warm render keys its
// member lookup by this.
func OptionFlags(opts ...Option) int {
	if len(opts) == 0 {
		return defaultFlags
	}
	return newGenConfig(opts).flags()
}

var defaultFlags = newGenConfig(nil).flags()

// Fingerprint returns a content hash of the generated machine itself:
// states in machine order with their annotations and merged-name lists,
// and every transition with its actions. Two machines with equal
// fingerprints render to identical artefacts in every format.
func (m *StateMachine) Fingerprint() Fingerprint {
	w := newFPWriter()
	w.writeString("asagen/machine-fingerprint/v1")
	w.writeString(m.ModelName)
	w.writeInt(m.Parameter)
	w.writeStrings(m.Messages)
	w.writeInt(len(m.States))
	for _, s := range m.States {
		w.writeString(s.Name)
		flags := 0
		if s == m.Start {
			flags |= 1
		}
		if s.Final {
			flags |= 2
		}
		w.writeInt(flags)
		w.writeStrings(s.Annotations)
		w.writeStrings(s.MergedNames)
		w.writeInt(len(s.Transitions))
		for _, msg := range s.SortedMessages(m.Messages) {
			tr := s.Transitions[msg]
			w.writeString(msg)
			w.writeString(tr.Target.Name)
			w.writeStrings(tr.Actions)
			w.writeStrings(tr.Annotations)
		}
	}
	return w.sum()
}
