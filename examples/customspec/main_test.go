package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"asagen"
)

// TestLeaseSpecKeepsItsIdentity pins the example's canonical JSON and its
// default member's fingerprint: the spec language may grow, but a
// document that uses none of what it grew does not move.
func TestLeaseSpecKeepsItsIdentity(t *testing.T) {
	s := leaseSpec()
	data, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	const wantJSON = "644f2691b49dd86f8c9917e2cf6c32ff48e4748f53ec16e76d0bf124cac146f1"
	if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != wantJSON {
		t.Errorf("canonical JSON sha256 %x, pinned %s", sum, wantJSON)
	}
	client := asagen.NewClient(asagen.WithIsolatedRegistry())
	if err := client.RegisterModel(s); err != nil {
		t.Fatal(err)
	}
	m, err := client.Generate(context.Background(), s.Name())
	if err != nil {
		t.Fatal(err)
	}
	const wantFingerprint = "8962d9c5427d6a23fcebc773e973fc06d7c5150bf1df7630368bc07ba1e39f09"
	if m.Fingerprint() != wantFingerprint {
		t.Errorf("fingerprint %s, pinned %s", m.Fingerprint(), wantFingerprint)
	}
}
