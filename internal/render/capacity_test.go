package render

import (
	"slices"
	"testing"
)

// TestBuffersAreSizedToTheirBytes: every sweep artefact is one buffer whose
// estimate, from the machine's Sizes, comes within 2 % (or 256 bytes) of
// its length: a served artefact retains its capacity, so spare room is
// memory held with nothing in it.
func TestBuffersAreSizedToTheirBytes(t *testing.T) {
	check := func(name, format string, data []byte) {
		t.Helper()
		if spare := cap(data) - len(data); spare > max(len(data)/50, 256) {
			t.Errorf("%s %s: capacity %d for %d bytes (%.1f %% spare)",
				name, format, cap(data), len(data), 100*float64(spare)/float64(len(data)))
		}
	}
	for name, m := range SweepMachines(t) {
		for _, format := range machineFormats {
			f, err := New(format)
			if err != nil {
				t.Fatal(err)
			}
			art, err := f.Render(m)
			if err != nil {
				t.Fatalf("%s %s: %v", name, format, err)
			}
			check(name, format, art.Data)
		}
	}
	for name, e := range SweepEFSMs(t) {
		for _, format := range slices.DeleteFunc(Formats(), func(f string) bool { return !IsEFSMFormat(f) }) {
			f, err := NewEFSM(format)
			if err != nil {
				t.Fatal(err)
			}
			art, err := f.RenderEFSM(e)
			if err != nil {
				t.Fatal(err)
			}
			check(name, format, art.Data)
		}
	}
}
