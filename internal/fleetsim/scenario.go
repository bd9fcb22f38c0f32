// Package fleetsim is the fleet-scale simulation harness: it instantiates
// thousands of generated machine instances over simnet virtual time from
// one declarative scenario config, drives them concurrently with bounded
// workers, classifies every delivery with the trace verdict vocabulary,
// and emits a canonical JSON report (throughput, latency percentiles,
// per-verdict counts). The design follows cothority's simul/ runner: a
// checked-in config fully determines an experiment, so every registry
// model × fault schedule × arrival process is a named, reproducible,
// CI-gated experiment rather than an ad-hoc invocation.
//
// Determinism is the core contract: the fleet is split into a fixed number
// of shards, each shard runs its own seeded simnet.Network and judges its
// own instances, and shard results are merged in shard order. Worker
// concurrency bounds how many shards execute at once but never affects the
// outcome, so the same seed produces a byte-identical report no matter the
// machine — reports are diffable artifacts, and CI compares them with cmp
// against checked-in goldens.
//
// The same scenario can instead be pointed at a live /v1 server (Live):
// the arrival schedule then drives real HTTP requests against the render
// and /check routes through the load engine (latency.Drive), open-loop,
// each request measured from its scheduled arrival. It is the one
// command-line live driver (fleetsim -url). Live reports share the
// report shape but measure wall-clock latency, so they are not
// byte-reproducible.
package fleetsim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"
)

// Arrival processes.
const (
	// ArrivalConstant births instances on a fixed interval.
	ArrivalConstant = "constant"
	// ArrivalPoisson births instances with exponentially distributed
	// inter-arrival times drawn from the scenario's seeded PRNG.
	ArrivalPoisson = "poisson"
)

// Arrival configures the instance arrival process.
type Arrival struct {
	// Process selects the arrival process: ArrivalConstant or
	// ArrivalPoisson.
	Process string `json:"process"`
	// RatePerSec is the arrival rate in instances per virtual second.
	RatePerSec float64 `json:"rate_per_sec"`
}

// Interval is a uniform virtual-time range in milliseconds.
type Interval struct {
	MinMS int64 `json:"min_ms"`
	MaxMS int64 `json:"max_ms"`
}

// Faults is the per-delivery fault schedule, applied from the shard's
// seeded PRNG as each instance steps. Rates are probabilities in [0, 1)
// and are rolled independently.
type Faults struct {
	// DropRate loses the scheduled event before the machine sees it (the
	// peer's message was lost; the driver keeps stepping, modelling
	// retransmission). Dropped deliveries are classified skipped.
	DropRate float64 `json:"drop_rate,omitempty"`
	// DuplicateRate redelivers an accepted event immediately, modelling a
	// duplicated network message. The redelivery is judged like any fault
	// injection: ignored while within Tolerance, a violation afterwards
	// — unless the machine genuinely accepts the duplicate.
	DuplicateRate float64 `json:"duplicate_rate,omitempty"`
	// InvalidRate injects a message from the machine's vocabulary that is
	// not applicable in the instance's current state.
	InvalidRate float64 `json:"invalid_rate,omitempty"`
	// UnknownRate injects a message outside the machine's vocabulary
	// entirely (a corrupted frame).
	UnknownRate float64 `json:"unknown_rate,omitempty"`
}

// Scenario is the declarative experiment config. The zero values of the
// optional fields are replaced by defaults in Normalize.
type Scenario struct {
	// Name labels the experiment in reports and filenames.
	Name string `json:"name"`
	// Model names the registry model to instantiate.
	Model string `json:"model"`
	// Param is the model parameter; 0 selects the model's default.
	Param int `json:"param,omitempty"`
	// Spec optionally carries an inline declarative model spec document
	// (internal/spec). It is registered before Model is resolved, so a
	// scenario can drive a machine that is not in the built-in registry;
	// Model must then name the spec's model.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Instances is the fleet size. The acceptance-grade scenarios run
	// 1000 and more.
	Instances int `json:"instances"`
	// Shards fixes the deterministic partition of the fleet; it is part
	// of the experiment identity (default 8). Instance i runs on shard
	// i mod Shards, each shard on its own seeded network.
	Shards int `json:"shards,omitempty"`
	// Seed drives every PRNG in the experiment.
	Seed int64 `json:"seed"`
	// DurationMS bounds the experiment in virtual milliseconds: no step
	// is delivered at or after this virtual time.
	DurationMS int64 `json:"duration_ms"`
	// Arrival configures the instance arrival process.
	Arrival Arrival `json:"arrival"`
	// Think is the per-instance virtual delay between a delivery and the
	// send of its next event (default 5–50ms).
	Think Interval `json:"think,omitempty"`
	// Net is the virtual network latency applied to each in-flight event
	// (default 1–10ms, the simnet default).
	Net Interval `json:"net,omitempty"`
	// Faults is the fault schedule.
	Faults Faults `json:"faults,omitempty"`
	// Tolerance is how many rejected deliveries each instance absorbs
	// before a further rejection becomes a violation (the trace monitor's
	// vocabulary).
	Tolerance int `json:"tolerance,omitempty"`
	// MaxSteps caps deliveries per instance; 0 means bounded only by
	// DurationMS.
	MaxSteps int `json:"max_steps,omitempty"`
	// Formats is the artifact format mix the live mode cycles through on
	// the render route (default ["text"]). Ignored by the simulation.
	Formats []string `json:"formats,omitempty"`
	// CheckEvery makes every k-th live arrival a POST /check of a
	// generated conforming trace instead of a render GET; 0 disables the
	// check mix (default 8). Ignored by the simulation.
	CheckEvery int `json:"check_every,omitempty"`
}

// Load reads and normalizes a scenario config file.
func Load(path string) (Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Scenario{}, err
	}
	var sc Scenario
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return Scenario{}, fmt.Errorf("fleetsim: %s: %w", path, err)
	}
	if err := sc.Normalize(); err != nil {
		return Scenario{}, fmt.Errorf("fleetsim: %s: %w", path, err)
	}
	return sc, nil
}

// Normalize fills defaults and validates the scenario. It is idempotent;
// the normalized form is what reports echo, so a report is self-describing
// even when the config relied on defaults.
func (sc *Scenario) Normalize() error {
	if sc.Model == "" {
		return errors.New("scenario needs a model")
	}
	if sc.Name == "" {
		sc.Name = sc.Model
	}
	if sc.Instances <= 0 {
		return fmt.Errorf("scenario %s: instances must be positive, got %d", sc.Name, sc.Instances)
	}
	if sc.Shards == 0 {
		sc.Shards = 8
	}
	if sc.Shards < 0 {
		return fmt.Errorf("scenario %s: shards must be positive, got %d", sc.Name, sc.Shards)
	}
	if sc.Shards > sc.Instances {
		sc.Shards = sc.Instances
	}
	if sc.DurationMS <= 0 {
		return fmt.Errorf("scenario %s: duration_ms must be positive, got %d", sc.Name, sc.DurationMS)
	}
	switch sc.Arrival.Process {
	case "":
		sc.Arrival.Process = ArrivalConstant
	case ArrivalConstant, ArrivalPoisson:
	default:
		return fmt.Errorf("scenario %s: unknown arrival process %q (want %s or %s)",
			sc.Name, sc.Arrival.Process, ArrivalConstant, ArrivalPoisson)
	}
	if sc.Arrival.RatePerSec <= 0 {
		return fmt.Errorf("scenario %s: arrival rate_per_sec must be positive, got %g", sc.Name, sc.Arrival.RatePerSec)
	}
	if sc.Think == (Interval{}) {
		sc.Think = Interval{MinMS: 5, MaxMS: 50}
	}
	if sc.Net == (Interval{}) {
		sc.Net = Interval{MinMS: 1, MaxMS: 10}
	}
	for _, iv := range []struct {
		label string
		Interval
	}{{"think", sc.Think}, {"net", sc.Net}} {
		if iv.MinMS < 0 || iv.MaxMS < iv.MinMS {
			return fmt.Errorf("scenario %s: %s range [%d, %d] ms is not a valid interval",
				sc.Name, iv.label, iv.MinMS, iv.MaxMS)
		}
	}
	for _, rate := range []struct {
		label string
		value float64
	}{
		{"drop_rate", sc.Faults.DropRate},
		{"duplicate_rate", sc.Faults.DuplicateRate},
		{"invalid_rate", sc.Faults.InvalidRate},
		{"unknown_rate", sc.Faults.UnknownRate},
	} {
		if rate.value < 0 || rate.value >= 1 {
			return fmt.Errorf("scenario %s: %s %g outside [0, 1)", sc.Name, rate.label, rate.value)
		}
	}
	if sum := sc.Faults.DropRate + sc.Faults.InvalidRate + sc.Faults.UnknownRate; sum >= 1 {
		return fmt.Errorf("scenario %s: drop+invalid+unknown rates sum to %g, want < 1", sc.Name, sum)
	}
	if sc.Tolerance < 0 {
		return fmt.Errorf("scenario %s: negative tolerance %d", sc.Name, sc.Tolerance)
	}
	if sc.MaxSteps < 0 {
		return fmt.Errorf("scenario %s: negative max_steps %d", sc.Name, sc.MaxSteps)
	}
	if len(sc.Formats) == 0 {
		sc.Formats = []string{"text"}
	}
	if sc.CheckEvery == 0 {
		sc.CheckEvery = 8
	}
	if sc.CheckEvery < 0 {
		sc.CheckEvery = 0 // negative disables the live check mix explicitly
	}
	return nil
}

// Duration returns the virtual-time bound as a time.Duration.
func (sc *Scenario) Duration() time.Duration {
	return time.Duration(sc.DurationMS) * time.Millisecond
}

// uniform returns the interval as time.Durations.
func (iv Interval) durations() (minD, maxD time.Duration) {
	return time.Duration(iv.MinMS) * time.Millisecond, time.Duration(iv.MaxMS) * time.Millisecond
}
