package cluster

import (
	"context"
	"fmt"

	"asagen/internal/chord"
	"asagen/internal/core"
	"asagen/internal/models"
	"asagen/internal/runtime"
)

// Oracle validates membership churn against the registry's generated
// chord-membership machine. The cluster node's observed routing state —
// how many of its next s successors are live, whether a predecessor
// exists — is replayed delta-style through a runtime.Instance, exactly as
// the chord model's differential tests replay the hand-written Ring: each
// observation becomes a sequence of STABILIZE / NOTIFY / SUCC_FAIL /
// PRED_FAIL deliveries. A delivery the machine rejects means the node's
// membership view moved in a way the generated protocol model forbids;
// those are counted as violations and gated to zero in CI.
type Oracle struct {
	inst *runtime.Instance
	s    int

	// tracked machine-side view, advanced one delivery at a time.
	joined bool
	succ   int
	pred   bool

	deliveries int
	// violations counts every rejected delivery over the oracle's life;
	// recent holds the last maxViolations of them, oldest first.
	violations int
	recent     []string
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
	inst, err := runtime.New(machine, runtime.NopHandler{})
	if err != nil {
		return nil, fmt.Errorf("cluster: routing oracle interpreter: %w", err)
	}
	return &Oracle{inst: inst, s: s}, nil
}

// deliver pushes one event through the machine, recording a violation if
// the generated protocol rejects it.
func (o *Oracle) deliver(msg string) {
	o.deliveries++
	if _, err := o.inst.Deliver(msg); err != nil {
		o.violations++
		if len(o.recent) == maxViolations {
			o.recent = o.recent[:copy(o.recent, o.recent[1:])]
		}
		o.recent = append(o.recent, fmt.Sprintf("%s rejected in %s: %v", msg, o.inst.StateName(), err))
	}
}

// Join bootstraps the machine into the overlay.
func (o *Oracle) Join() {
	o.deliver(chord.EvJoin)
	o.joined = true
}

// Leave departs the overlay; the machine finishes and further
// observations are ignored.
func (o *Oracle) Leave() {
	o.deliver(chord.EvLeave)
	o.joined = false
}

// Observe reconciles the machine with the node's current view: succ live
// successor-list entries (already capped at s by the caller) and whether
// a predecessor exists. Losses are delivered before gains, mirroring the
// failure-detection-then-stabilisation order of a maintenance round.
func (o *Oracle) Observe(succ int, pred bool) {
	if !o.joined || o.inst.Finished() {
		return
	}
	for o.succ > succ {
		o.deliver(chord.EvSuccFail)
		o.succ--
	}
	if o.pred && !pred {
		o.deliver(chord.EvPredFail)
		o.pred = false
	}
	for o.succ < succ {
		o.deliver(chord.EvStabilize)
		o.succ++
	}
	if !o.pred && pred {
		o.deliver(chord.EvNotify)
		o.pred = true
	}
}

// StateName returns the machine's current state name.
func (o *Oracle) StateName() string { return o.inst.StateName() }

// Deliveries returns the number of events replayed through the machine.
func (o *Oracle) Deliveries() int { return o.deliveries }

// Violations returns the most recent recorded protocol violations, at
// most 16, oldest first.
func (o *Oracle) Violations() []string { return o.recent }
