package cluster

import (
	"context"
	"fmt"

	"asagen/internal/chord"
	"asagen/internal/core"
	"asagen/internal/models"
	"asagen/internal/trace"
)

// Oracle validates membership churn against the registry's generated
// chord-membership machine. The cluster node's observed routing state —
// how many of its next s successors are live, whether a predecessor
// exists — is replayed delta-style through a trace.Judge at tolerance 0,
// exactly as the chord model's differential tests replay the hand-written
// Ring: each observation becomes a sequence of STABILIZE / NOTIFY /
// SUCC_FAIL / PRED_FAIL deliveries. A delivery the machine rejects means
// the node's membership view moved in a way the generated protocol model
// forbids: a violation, gated to zero in CI.
type Oracle struct {
	judge *trace.Judge

	// tracked machine-side view, advanced one delivery at a time.
	joined bool
	succ   int
	pred   bool

	// verdicts counts every delivery by kind over the oracle's life;
	// recent holds the text of the last maxViolations violations, oldest
	// first.
	verdicts trace.Tally
	recent   []string
}

// maxViolations bounds the violations an Oracle keeps the text of.
const maxViolations = 16

// NewOracle generates the chord-membership machine for successor-list
// length s from the model registry and wraps it in an interpreter.
func NewOracle(s int) (*Oracle, error) {
	entry, err := models.Default().Get("chord")
	if err != nil {
		return nil, fmt.Errorf("cluster: routing oracle model: %w", err)
	}
	model, err := entry.Model(s)
	if err != nil {
		return nil, fmt.Errorf("cluster: routing oracle model: %w", err)
	}
	machine, err := core.Generate(context.Background(), model, core.WithoutDescriptions())
	if err != nil {
		return nil, fmt.Errorf("cluster: generate routing oracle: %w", err)
	}
	judge, err := trace.NewJudge(machine, 0)
	if err != nil {
		return nil, fmt.Errorf("cluster: routing oracle interpreter: %w", err)
	}
	return &Oracle{judge: judge}, nil
}

// deliver pushes one event through the judge and appends the text of a
// violation to recorded.
func (o *Oracle) deliver(msg string, recorded []string) []string {
	d := o.judge.Deliver(msg)
	o.verdicts.Add(d.Kind)
	if d.Kind != trace.KindViolation {
		return recorded
	}
	v := fmt.Sprintf("%s rejected in %s: %v", msg, o.judge.State().Name, d.Err)
	if len(o.recent) == maxViolations {
		o.recent = o.recent[:copy(o.recent, o.recent[1:])]
	}
	o.recent = append(o.recent, v)
	return append(recorded, v)
}

// Join bootstraps the machine into the overlay and returns the violations
// it recorded.
func (o *Oracle) Join() []string {
	o.joined = true
	return o.deliver(chord.EvJoin, nil)
}

// Leave departs the overlay and returns the violations it recorded; the
// machine finishes and further observations are ignored.
func (o *Oracle) Leave() []string {
	o.joined = false
	return o.deliver(chord.EvLeave, nil)
}

// Observe reconciles the machine with the node's current view, succ live
// successor-list entries (already capped at s by the caller) and whether
// a predecessor exists, and returns the violations it recorded. Losses
// are delivered before gains, mirroring the failure-detection-then-
// stabilisation order of a maintenance round.
func (o *Oracle) Observe(succ int, pred bool) (recorded []string) {
	if !o.joined || o.judge.State().Final {
		return nil
	}
	for ; o.succ > succ; o.succ-- {
		recorded = o.deliver(chord.EvSuccFail, recorded)
	}
	if o.pred && !pred {
		recorded = o.deliver(chord.EvPredFail, recorded)
		o.pred = false
	}
	for ; o.succ < succ; o.succ++ {
		recorded = o.deliver(chord.EvStabilize, recorded)
	}
	if !o.pred && pred {
		recorded = o.deliver(chord.EvNotify, recorded)
		o.pred = true
	}
	return recorded
}

// Report summarises the oracle for a status report.
func (o *Oracle) Report() OracleReport {
	return OracleReport{
		State:          o.judge.State().Name,
		Deliveries:     int(o.verdicts.Total()),
		ViolationCount: int(o.verdicts.Count(trace.KindViolation)),
		Violations:     append([]string(nil), o.recent...),
	}
}
