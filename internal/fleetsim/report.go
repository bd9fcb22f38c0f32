package fleetsim

import (
	"encoding/json"
	"math"
	"time"

	"asagen/internal/latency"
	"asagen/internal/trace"
)

// MachineInfo summarises the generated machine the fleet executed.
type MachineInfo struct {
	Model       string `json:"model"`
	Param       int    `json:"param"`
	States      int    `json:"states"`
	Transitions int    `json:"transitions"`
	Messages    int    `json:"messages"`
}

// FleetInfo counts instance lifecycles.
type FleetInfo struct {
	// Instances is the configured fleet size.
	Instances int `json:"instances"`
	// Born counts instances whose arrival fell inside the experiment
	// duration and that were actually started.
	Born int `json:"born"`
	// Finished counts instances whose machine reached its finish state.
	Finished int `json:"finished"`
	// Truncated counts instances stopped by the virtual-time bound or the
	// per-instance step cap while still running.
	Truncated int `json:"truncated"`
	// DeadEnd counts instances stranded in a non-final state with no
	// outgoing transitions.
	DeadEnd int `json:"dead_end"`
}

// Percentiles is the fixed percentile row read off a histogram.
type Percentiles struct {
	Count int64 `json:"count"`
	P50Ns int64 `json:"p50_ns"`
	P95Ns int64 `json:"p95_ns"`
	P99Ns int64 `json:"p99_ns"`
	MaxNs int64 `json:"max_ns"`
}

// percentilesOf reads the report row off a histogram.
func percentilesOf(h *latency.Histogram) Percentiles {
	return Percentiles{
		Count: h.Count(),
		P50Ns: int64(h.Quantile(0.50)),
		P95Ns: int64(h.Quantile(0.95)),
		P99Ns: int64(h.Quantile(0.99)),
		MaxNs: int64(h.Max()),
	}
}

// Report is the experiment outcome. Every field is either copied from the
// normalized scenario or computed deterministically from the seeded
// simulation, so marshalling a simulation report is byte-stable: same
// scenario ⇒ same bytes, which is what the CI golden gate diffs. Live-mode
// reports share the shape but carry wall-clock measurements.
type Report struct {
	// Harness distinguishes the deterministic simulation ("sim") from the
	// live HTTP mode ("live").
	Harness string `json:"harness"`
	// Scenario echoes the normalized config the experiment ran.
	Scenario Scenario `json:"scenario"`
	// Machine describes the generated machine (zero-valued counts in live
	// mode when the target server generated the machine remotely).
	Machine MachineInfo `json:"machine"`
	// Fleet counts instance lifecycles; in live mode an "instance" is one
	// scheduled request.
	Fleet FleetInfo `json:"fleet"`
	// Events counts deliveries judged (sim) or requests completed (live).
	Events int64 `json:"events"`
	// Verdicts counts every judged delivery by trace verdict kind.
	Verdicts *trace.Tally `json:"verdicts"`
	// ExpectedViolations counts violations caused by the fault schedule:
	// injected or duplicated messages the machine rightly rejected once
	// Tolerance was used up.
	ExpectedViolations int64 `json:"expected_violations"`
	// UnexpectedViolations counts rejections of legitimately scheduled
	// deliveries — zero unless the generated machine or its interpreter
	// is broken. The CI gate fails on any non-zero count.
	UnexpectedViolations int64 `json:"unexpected_violations"`
	// VirtualMS is the experiment's virtual-time bound (sim) or measured
	// wall time (live), in milliseconds.
	VirtualMS int64 `json:"virtual_ms"`
	// ThroughputPerSec is Events per (virtual or wall) second, rounded to
	// two decimals.
	ThroughputPerSec float64 `json:"throughput_per_sec"`
	// Delivery holds per-delivery latency percentiles: virtual network
	// latency from send to delivery (sim), or request latency measured
	// from scheduled arrival (live, no coordinated omission).
	Delivery Percentiles `json:"delivery"`
	// Completion holds per-instance birth-to-finish latency percentiles
	// (sim), or the /check request subset (live).
	Completion Percentiles `json:"completion"`
	// DeliveryHistogram and CompletionHistogram embed the full sparse
	// histograms so reports merge offline.
	DeliveryHistogram   *latency.Histogram `json:"delivery_histogram"`
	CompletionHistogram *latency.Histogram `json:"completion_histogram"`
}

// finish derives the summary fields from the accumulated histograms.
func (r *Report) finish(virtual time.Duration) {
	r.VirtualMS = virtual.Milliseconds()
	r.Delivery = percentilesOf(r.DeliveryHistogram)
	r.Completion = percentilesOf(r.CompletionHistogram)
	if secs := virtual.Seconds(); secs > 0 {
		r.ThroughputPerSec = math.Round(float64(r.Events)/secs*100) / 100
	}
}

// MarshalCanonical renders the report as indented JSON with a trailing
// newline. Field order is fixed by the struct, histograms marshal their
// sparse buckets in ascending index order, and no map is involved, so
// equal reports are byte-identical — cmp-diffable in CI.
func (r *Report) MarshalCanonical() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
