package trace

import "strconv"

// Tally accumulates verdict counts by kind. It is the aggregation half of
// the verdict vocabulary: streaming consumers (the monitor's observers, the
// fleet simulation harness) count classifications into a Tally and merge
// per-worker tallies deterministically, the way latency histograms are
// merged. The zero value is ready to use. A Tally is not safe for
// concurrent use; count into per-worker tallies and Merge them.
type Tally struct {
	counts [KindSummary + 1]int64
}

// Add counts one verdict of the given kind. Kinds outside the vocabulary
// are ignored.
func (t *Tally) Add(k Kind) {
	if int(k) < len(t.counts) {
		t.counts[k]++
	}
}

// Count returns the number of verdicts counted for the kind.
func (t *Tally) Count(k Kind) int64 {
	if int(k) < len(t.counts) {
		return t.counts[k]
	}
	return 0
}

// Total returns the number of verdicts counted across all kinds.
func (t *Tally) Total() int64 {
	var n int64
	for _, c := range t.counts {
		n += c
	}
	return n
}

// Observe implements Observer by counting the verdict's kind; it never
// stops the run.
func (t *Tally) Observe(v *Verdict) bool {
	t.Add(v.Kind)
	return true
}

var _ Observer = (*Tally)(nil)

// Merge folds o's counts into t.
func (t *Tally) Merge(o *Tally) {
	if o == nil {
		return
	}
	for i, c := range o.counts {
		t.counts[i] += c
	}
}

// AppendJSON appends the canonical JSON encoding of the tally to dst: one
// key per kind in declaration order, every kind always present, so equal
// tallies are byte-identical and reports embedding them are diffable.
func (t *Tally) AppendJSON(dst []byte) []byte {
	dst = append(dst, '{')
	for k := Kind(0); int(k) < len(t.counts); k++ {
		if k > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, k.String())
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, t.counts[k], 10)
	}
	return append(dst, '}')
}

// MarshalJSON implements json.Marshaler with the canonical encoding.
func (t *Tally) MarshalJSON() ([]byte, error) {
	return t.AppendJSON(nil), nil
}
