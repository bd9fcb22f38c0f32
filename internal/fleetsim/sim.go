package fleetsim

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"asagen/internal/core"
	"asagen/internal/latency"
	"asagen/internal/models"
	"asagen/internal/simnet"
	"asagen/internal/spec"
	"asagen/internal/trace"
)

// noiseMessage is the out-of-vocabulary message the unknown-rate fault
// injects; no model vocabulary contains punctuation, so it can never be
// applicable.
const noiseMessage = "@fleetsim/noise"

// BuildMachine resolves the scenario's model — registering an inline spec
// document first when present — and generates the machine the fleet
// executes.
func BuildMachine(ctx context.Context, sc *Scenario) (*core.StateMachine, error) {
	reg := models.Default().Clone()
	if len(sc.Spec) > 0 {
		compiled, err := spec.ParseAndCompile(sc.Spec)
		if err != nil {
			return nil, fmt.Errorf("fleetsim: inline spec: %w", err)
		}
		if _, err := reg.Replace(compiled.Entry()); err != nil {
			return nil, fmt.Errorf("fleetsim: inline spec: %w", err)
		}
	}
	model, err := reg.Build(sc.Model, sc.Param)
	if err != nil {
		return nil, err
	}
	machine, err := core.Generate(ctx, model)
	if err != nil {
		return nil, err
	}
	if sc.Param <= 0 {
		// Echo the effective parameter so the report is self-describing.
		sc.Param = machine.Parameter
	}
	return machine, nil
}

// machineInfo summarises a generated machine for the report.
func machineInfo(m *core.StateMachine) MachineInfo {
	return MachineInfo{
		Model:       m.ModelName,
		Param:       m.Parameter,
		States:      len(m.States),
		Transitions: m.TransitionCount(),
		Messages:    len(m.Messages),
	}
}

// stateMsgs caches, per machine state, the messages applicable there and
// the vocabulary remainder, both in canonical message order. The index is
// built once and read concurrently by every shard, keeping the per-step
// hot path allocation-free.
type stateMsgs struct {
	applicable   []string
	inapplicable []string
}

func indexMachine(m *core.StateMachine) map[*core.State]stateMsgs {
	idx := make(map[*core.State]stateMsgs, len(m.States))
	for _, st := range m.States {
		var sm stateMsgs
		for _, msg := range m.Messages {
			if st.Transition(msg) != nil {
				sm.applicable = append(sm.applicable, msg)
			} else {
				sm.inapplicable = append(sm.inapplicable, msg)
			}
		}
		idx[st] = sm
	}
	return idx
}

// arrivalTimes precomputes every instance's birth time from the arrival
// process. The schedule depends only on (seed, arrival, instances) — not
// on the shard partition — so resharding an experiment keeps its arrival
// history. Live issues its requests on the same schedule.
func arrivalTimes(sc *Scenario) []time.Duration {
	rng := rand.New(rand.NewSource(sc.Seed))
	births := make([]time.Duration, sc.Instances)
	var t time.Duration
	for i := range births {
		switch sc.Arrival.Process {
		case ArrivalPoisson:
			t += time.Duration(rng.ExpFloat64() / sc.Arrival.RatePerSec * float64(time.Second))
		default: // ArrivalConstant
			t += time.Duration(float64(time.Second) / sc.Arrival.RatePerSec)
		}
		births[i] = t
	}
	return births
}

// shardSeed mixes the scenario seed with the shard index (splitmix64-style
// increment) so shard PRNG streams are decorrelated but fully determined
// by the scenario.
func shardSeed(seed int64, shard int) int64 {
	return seed + int64(shard+1)*-0x61c8864680b583eb // golden-ratio increment, wrapping
}

// stepMsg is the payload of one in-flight step event: which instance it
// drives and when it was sent, so delivery records the sampled virtual
// network latency.
type stepMsg struct {
	in     *instance
	sentAt time.Duration
}

// shardRun is one shard's self-contained simulation: its own seeded
// network, instances, tally and histograms. Shards never share mutable
// state, which is what makes worker concurrency invisible in the report.
type shardRun struct {
	sc       *Scenario
	machine  *core.StateMachine
	index    map[*core.State]stateMsgs
	net      *simnet.Network
	duration time.Duration
	thinkMin time.Duration
	thinkMax time.Duration

	tally      trace.Tally
	delivery   latency.Histogram
	completion latency.Histogram
	events     int64
	expected   int64
	unexpected int64
	born       int
	finished   int
	truncated  int
	deadEnd    int
}

// instance is one fleet member: the judge of its machine plus its driver
// state.
type instance struct {
	s     *shardRun
	judge *trace.Judge
	node  simnet.NodeID
	birth time.Duration
	steps int
	done  bool
}

// Run executes the scenario as a deterministic simulation and returns its
// report. workers bounds how many shards execute concurrently (<= 1 runs
// them serially); it affects wall time only, never the report.
func Run(ctx context.Context, sc Scenario, workers int) (*Report, error) {
	if err := sc.Normalize(); err != nil {
		return nil, err
	}
	machine, err := BuildMachine(ctx, &sc)
	if err != nil {
		return nil, err
	}
	index := indexMachine(machine)
	births := arrivalTimes(&sc)
	if workers < 1 {
		workers = 1
	}

	shards := make([]*shardRun, sc.Shards)
	errs := make([]error, sc.Shards)
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for s := 0; s < sc.Shards; s++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(s int) {
			defer wg.Done()
			defer func() { <-sem }()
			shards[s], errs[s] = runShard(ctx, &sc, machine, index, births, s)
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	rep := &Report{
		Harness:             "sim",
		Scenario:            sc,
		Machine:             machineInfo(machine),
		Verdicts:            &trace.Tally{},
		DeliveryHistogram:   &latency.Histogram{},
		CompletionHistogram: &latency.Histogram{},
	}
	rep.Fleet.Instances = sc.Instances
	// Merge in shard order: every aggregate is order-insensitive, but a
	// fixed order keeps the invariant obvious and future-proof.
	for _, sh := range shards {
		rep.Verdicts.Merge(&sh.tally)
		rep.DeliveryHistogram.Merge(&sh.delivery)
		rep.CompletionHistogram.Merge(&sh.completion)
		rep.Events += sh.events
		rep.ExpectedViolations += sh.expected
		rep.UnexpectedViolations += sh.unexpected
		rep.Fleet.Born += sh.born
		rep.Fleet.Finished += sh.finished
		rep.Fleet.Truncated += sh.truncated
		rep.Fleet.DeadEnd += sh.deadEnd
	}
	rep.finish(sc.Duration())
	return rep, nil
}

// runShard simulates the instances assigned to one shard (i mod Shards)
// over the shard's own network, stopping every driver at the virtual-time
// bound and draining the residual event queue.
func runShard(ctx context.Context, sc *Scenario, machine *core.StateMachine,
	index map[*core.State]stateMsgs, births []time.Duration, shard int) (*shardRun, error) {
	netMin, netMax := sc.Net.durations()
	thinkMin, thinkMax := sc.Think.durations()
	s := &shardRun{
		sc:       sc,
		machine:  machine,
		index:    index,
		net:      simnet.New(shardSeed(sc.Seed, shard), simnet.WithLatency(netMin, netMax)),
		duration: sc.Duration(),
		thinkMin: thinkMin,
		thinkMax: thinkMax,
	}
	for i := shard; i < len(births); i += sc.Shards {
		birth := births[i]
		if birth >= s.duration {
			continue // arrives after the experiment ends: never born
		}
		id := i
		s.net.After(birth, func() { s.start(id, birth) })
	}
	// Drain in virtual-time slices so cancellation is honoured on long
	// runs; the cut points are fixed fractions of the deadline, so
	// slicing cannot perturb determinism. Every event chain ends within
	// one think+latency hop past the duration bound.
	deadline := s.duration + thinkMax + netMax + time.Millisecond
	slice := deadline / 64
	if slice <= 0 {
		slice = deadline
	}
	for t := slice; ; t += slice {
		if t > deadline {
			t = deadline
		}
		s.net.RunUntilTime(t)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if t >= deadline {
			break
		}
	}
	if pending := s.net.Pending(); pending != 0 {
		return nil, fmt.Errorf("fleetsim: shard %d left %d events past the deadline (driver bug)", shard, pending)
	}
	return s, nil
}

// start births one instance and sends its first step event.
func (s *shardRun) start(id int, birth time.Duration) {
	judge, err := trace.NewJudge(s.machine, s.sc.Tolerance)
	if err != nil {
		// Generation guarantees a start state; a failure here is a
		// driver bug surfaced by the accounting invariants.
		s.deadEnd++
		return
	}
	in := &instance{
		s:     s,
		judge: judge,
		node:  simnet.NodeID(fmt.Sprintf("i%d", id)),
		birth: birth,
	}
	if err := s.net.AddNode(in.node, simnet.HandlerFunc(in.handle)); err != nil {
		s.deadEnd++
		return
	}
	s.born++
	in.sendStep()
}

// sendStep puts the instance's next step event in flight; simnet samples
// the virtual network latency it travels under.
func (in *instance) sendStep() {
	in.s.net.Send(simnet.Message{
		From:    in.node,
		To:      in.node,
		Type:    "step",
		Payload: stepMsg{in: in, sentAt: in.s.net.Now()},
	})
}

// handle processes one delivered step: it rolls the fault schedule,
// delivers the chosen event to the machine, classifies the outcome with
// the trace verdict vocabulary, and schedules the next step.
func (in *instance) handle(_ *simnet.Network, msg simnet.Message) {
	s := in.s
	step := msg.Payload.(stepMsg)
	if in.done {
		return
	}
	now := s.net.Now()
	if now >= s.duration {
		in.done = true
		s.truncated++
		return
	}
	s.delivery.Record(now - step.sentAt)

	rng := s.net.Rand()
	sm := s.index[in.judge.State()]
	roll := rng.Float64()
	f := s.sc.Faults
	switch {
	case roll < f.DropRate:
		// The peer's message was lost before the machine saw it.
		s.events++
		s.tally.Add(trace.KindSkipped)
	case roll < f.DropRate+f.InvalidRate && len(sm.inapplicable) > 0:
		in.deliver(sm.inapplicable[rng.Intn(len(sm.inapplicable))], false)
	case roll < f.DropRate+f.InvalidRate+f.UnknownRate:
		in.deliver(noiseMessage, false)
	default:
		if len(sm.applicable) == 0 {
			// Non-final state with no outgoing transitions: the walk is
			// stranded.
			in.done = true
			s.deadEnd++
			return
		}
		chosen := sm.applicable[rng.Intn(len(sm.applicable))]
		in.deliver(chosen, true)
		if !in.done && f.DuplicateRate > 0 && rng.Float64() < f.DuplicateRate {
			// Duplicated network message: redelivered after the state
			// advanced, so the machine either tolerates it (another
			// transition fires) or rightly rejects it.
			in.deliver(chosen, false)
		}
	}
	if in.done {
		return
	}
	in.steps++
	if s.sc.MaxSteps > 0 && in.steps >= s.sc.MaxSteps {
		in.done = true
		s.truncated++
		return
	}
	think := in.thinkDelay(rng)
	s.net.After(think, func() {
		if !in.done {
			in.sendStep()
		}
	})
}

// thinkDelay samples the uniform think interval from the shard PRNG.
func (in *instance) thinkDelay(rng *rand.Rand) time.Duration {
	span := in.s.thinkMax - in.s.thinkMin
	if span <= 0 {
		return in.s.thinkMin
	}
	return in.s.thinkMin + time.Duration(rng.Int63n(int64(span)+1))
}

// deliver feeds one event to the machine's judge and counts its verdict.
// legit marks an event the driver chose from the applicable set: its
// rejection would mean the generated machine and its interpreter disagree
// — the unexpected-violation count the CI gate keeps at zero. Fault
// injections are expected to be rejected: the first Tolerance of them are
// ignored, and the rest are expected violations.
func (in *instance) deliver(event string, legit bool) {
	s := in.s
	s.events++
	judge := in.judge.Deliver
	if legit {
		judge = in.judge.Expect
	}
	d := judge(event)
	s.tally.Add(d.Kind)
	switch {
	case d.Finished:
		s.tally.Add(trace.KindFinished)
		s.completion.Record(s.net.Now() - in.birth)
		s.finished++
		in.done = true
	case d.Kind == trace.KindViolation && legit:
		s.unexpected++
	case d.Kind == trace.KindViolation:
		s.expected++
	}
}
