package trace

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"

	"asagen/internal/core"
)

// ErrStopped is returned by Monitor.Run when an observer ended the run
// by returning false. The Report covers everything observed up to the
// stop; no terminal verdict should be emitted for such a run.
var ErrStopped = errors.New("trace: observer stopped the run")

// Observer receives verdicts as the monitor produces them. Returning
// false stops the run (Monitor.Run returns ErrStopped), mirroring the
// yield convention of iter.Seq so iterator adapters need no goroutines.
type Observer interface {
	Observe(Verdict) bool
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Verdict) bool

// Observe implements Observer.
func (f ObserverFunc) Observe(v Verdict) bool { return f(v) }

// target is one machine under observation and its judge.
type target struct {
	name  string
	judge *Judge
}

// Monitor drives one or more generated machines over a decoded event
// stream at line rate, one Judge per machine, and turns every judgement
// into a Verdict for its observers. A Monitor is reusable — each Run
// starts every machine from its start state — but not safe for concurrent
// Runs.
type Monitor struct {
	targets   []target
	observers []Observer
	tolerance int
	keepGoing bool
}

// MonitorOption configures a Monitor.
type MonitorOption func(*Monitor) error

// WithTarget adds a machine to observe. The name labels its verdicts
// when the monitor drives more than one machine; with a single target
// the label is omitted from verdicts entirely.
func WithTarget(name string, machine *core.StateMachine) MonitorOption {
	return func(m *Monitor) error {
		j, err := NewJudge(machine, 0)
		if err != nil {
			return fmt.Errorf("trace: target %q: %w", name, err)
		}
		m.targets = append(m.targets, target{name: name, judge: j})
		return nil
	}
}

// WithTolerance sets the number of rejected deliveries each target
// absorbs before a further rejection becomes a violation. The default
// is 0: the first rejection violates.
func WithTolerance(n int) MonitorOption {
	return func(m *Monitor) error {
		if n < 0 {
			return fmt.Errorf("%w %d", ErrNegativeTolerance, n)
		}
		m.tolerance = n
		return nil
	}
}

// WithObserver registers verdict observers, called in registration
// order for every verdict.
func WithObserver(obs ...Observer) MonitorOption {
	return func(m *Monitor) error {
		m.observers = append(m.observers, obs...)
		return nil
	}
}

// WithKeepGoing makes Run read the whole trace even after a violation,
// counting every violation, instead of stopping at the first one.
func WithKeepGoing() MonitorOption {
	return func(m *Monitor) error {
		m.keepGoing = true
		return nil
	}
}

// NewMonitor returns a monitor over the configured targets. At least
// one WithTarget is required.
func NewMonitor(opts ...MonitorOption) (*Monitor, error) {
	m := &Monitor{}
	for _, opt := range opts {
		if err := opt(m); err != nil {
			return nil, err
		}
	}
	if len(m.targets) == 0 {
		return nil, errors.New("trace: monitor needs at least one target machine")
	}
	if len(m.targets) == 1 {
		m.targets[0].name = "" // a single target's verdicts carry no label
	}
	return m, nil
}

// emit delivers one verdict to every observer; false means stop. It
// takes a pointer so the verdict is copied once, into Observe.
func (m *Monitor) emit(v *Verdict) bool {
	for _, obs := range m.observers {
		if !obs.Observe(*v) {
			return false
		}
	}
	return true
}

// Run drives the targets over the decoder's event stream until the
// input ends, the context is cancelled, an observer stops the run, or —
// unless WithKeepGoing — a violation occurs. The Report covers
// everything judged; err classifies abnormal ends: a *DecodeError for
// malformed input, the context error for cancellation, ErrStopped for
// an observer stop, and nil for a completed run (conforming or not —
// consult Report.Conforming).
func (m *Monitor) Run(ctx context.Context, dec Decoder) (Report, error) {
	var rep Report
	for _, t := range m.targets {
		t.judge.Reset(m.tolerance)
	}
	done := ctx.Done()
	for {
		select {
		case <-done:
			return rep, ctx.Err()
		default:
		}
		ev, err := dec.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			var de *DecodeError
			if errors.As(err, &de) {
				rep.Lines = max(rep.Lines, de.Line)
				return rep, de
			}
			return rep, err
		}
		rep.Lines = ev.Line
		if ev.Skip {
			rep.Skipped++
			if !m.emit(&Verdict{Line: ev.Line, Kind: KindSkipped,
				Detail: "no transition pattern matched"}) {
				return rep, ErrStopped
			}
			continue
		}
		rep.Events++
		for _, t := range m.targets {
			d := t.judge.Deliver(ev.Msg)
			// Built in place: a Verdict variable initialised from a
			// literal is a copy, a tenth of a line's cost.
			v := &Verdict{Line: ev.Line, Target: t.name, Event: ev.Msg, Kind: d.Kind,
				State: t.judge.State().Name}
			if d.Err != nil {
				v.Detail = d.Err.Error()
			}
			switch d.Kind {
			case KindAccepted:
				rep.Accepted++
				v.Actions, v.tr = d.Tr.Actions, d.Tr
			case KindIgnored:
				rep.Ignored++
			case KindViolation:
				rep.Violations++
				rep.FirstViolation = cmp.Or(rep.FirstViolation, ev.Line)
			}
			if !m.emit(v) {
				return rep, ErrStopped
			}
			if d.Finished && !m.emit(&Verdict{Line: ev.Line, Target: t.name, Event: ev.Msg,
				Kind: KindFinished, State: v.State}) {
				return rep, ErrStopped
			}
			if d.Kind == KindViolation && !m.keepGoing {
				m.finalize(&rep)
				return rep, nil
			}
		}
	}
	m.finalize(&rep)
	return rep, nil
}

// finalize fills the report fields derived from the targets' end state.
func (m *Monitor) finalize(rep *Report) {
	rep.Finished = true
	for _, t := range m.targets {
		rep.Finished = rep.Finished && t.judge.State().Final
	}
	if len(m.targets) == 1 {
		rep.FinalState = m.targets[0].judge.State().Name
	}
}
