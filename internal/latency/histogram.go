// Package latency is the serve path's load engine, Drive (behind
// fleetsim's live mode), and the HDR-style histogram its workers
// record one value per request into, merged at the end, with the
// p50/p95/p99 rows read off the merged distribution. Buckets are
// log-linear — 32 linear sub-buckets per power of two — so quantiles
// carry a bounded relative error (at most 1/32, ~3.2%) across the full
// nanosecond-to-minutes range while the whole histogram stays a few
// kilobytes and recording is one array increment, cheap enough to sit
// inside a latency measurement.
package latency

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"time"
)

// subBits sets the linear resolution: 2^subBits sub-buckets per octave.
const subBits = 5

const subCount = 1 << subBits

// nBuckets covers values up to 2^62 ns (beyond any latency this package
// will ever see): indices 0..subCount-1 are exact, then one block of
// subCount buckets per octave above.
const nBuckets = subCount + (63-subBits)*subCount

// Histogram is a log-linear latency histogram. The zero value is ready to
// use. It is not safe for concurrent use; record into per-worker
// histograms and Merge them.
type Histogram struct {
	counts [nBuckets]int64
	count  int64
	sum    int64
	min    int64
	max    int64
}

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	u := uint64(v)
	if u < subCount {
		return int(u)
	}
	exp := bits.Len64(u) - 1 // floor(log2(u)), >= subBits
	shift := exp - subBits   // linear resolution within the octave
	sub := int(u>>shift) - subCount
	return subCount + shift*subCount + sub
}

// bucketUpper returns the largest value mapping to the bucket.
func bucketUpper(idx int) int64 {
	if idx < subCount {
		return int64(idx)
	}
	shift := (idx - subCount) / subCount
	sub := (idx - subCount) % subCount
	return int64(subCount+sub+1)<<shift - 1
}

// Record adds one observation. Negative durations clamp to zero.
func (h *Histogram) Record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.count }

// Min returns the smallest recorded value (exact), zero when empty.
func (h *Histogram) Min() time.Duration { return time.Duration(h.min) }

// Max returns the largest recorded value (exact), zero when empty.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max) }

// Mean returns the arithmetic mean (exact), zero when empty.
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.sum / h.count)
}

// Quantile returns the value at quantile q in [0, 1]: the upper bound of
// the bucket holding the q-th observation (clamped to Max, so Quantile(1)
// is exact). Zero when empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if math.IsNaN(q) || q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range h.counts {
		seen += h.counts[i]
		if seen >= rank {
			upper := bucketUpper(i)
			if upper > h.max {
				upper = h.max
			}
			if upper < h.min {
				upper = h.min
			}
			return time.Duration(upper)
		}
	}
	return time.Duration(h.max)
}

// Merge folds o's observations into h.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.count == 0 {
		return
	}
	for i := range o.counts {
		h.counts[i] += o.counts[i]
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
}

// histogramJSON is the wire form: summary fields plus the sparse non-zero
// buckets as [index, count] pairs.
type histogramJSON struct {
	Count   int64      `json:"count"`
	SumNs   int64      `json:"sum_ns"`
	MinNs   int64      `json:"min_ns"`
	MaxNs   int64      `json:"max_ns"`
	Buckets [][2]int64 `json:"buckets"`
}

// MarshalJSON renders the histogram as summary fields plus the sparse
// non-zero buckets, so uploaded artefacts stay small and mergeable.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	out := histogramJSON{Count: h.count, SumNs: h.sum, MinNs: h.min, MaxNs: h.max}
	for i, c := range h.counts {
		if c != 0 {
			out.Buckets = append(out.Buckets, [2]int64{int64(i), c})
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON restores a histogram marshalled by MarshalJSON.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var in histogramJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	*h = Histogram{count: in.Count, sum: in.SumNs, min: in.MinNs, max: in.MaxNs}
	for _, b := range in.Buckets {
		if b[0] < 0 || b[0] >= nBuckets {
			return fmt.Errorf("latency: bucket index %d out of range", b[0])
		}
		h.counts[b[0]] = b[1]
	}
	return nil
}

// String summarises the distribution for logs and test failures.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d min=%v p50=%v p95=%v p99=%v max=%v",
		h.count, h.Min(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Max())
}
