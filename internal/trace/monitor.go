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
//
// The monitor writes every verdict of a run into one Verdict it owns, so
// the pointer Observe receives is valid only until Observe returns: an
// observer may read the verdict during the call, must not change it, and
// must not keep the pointer. One that keeps verdicts keeps copies.
type Observer interface {
	Observe(*Verdict) bool
}

// ObserverFunc adapts a function to the Observer interface. It receives
// its own copy of every verdict, which it may keep.
type ObserverFunc func(Verdict) bool

// Observe implements Observer.
func (f ObserverFunc) Observe(v *Verdict) bool { return f(*v) }

// Monitor drives one generated machine over a decoded event stream at
// line rate through its Judge, and turns every judgement into a Verdict
// for its observers. A Monitor is reusable — each Run starts the machine
// from its start state — but not safe for concurrent Runs.
type Monitor struct {
	judge     *Judge
	observers []Observer
	keepGoing bool
	// verdict is the one Verdict every verdict of a run is written
	// into, field by field: assigning a whole Verdict compiles to a
	// duffcopy, and a fresh one handed to an Observer escapes.
	verdict Verdict
}

// newMonitor returns a monitor of machine that absorbs tolerance
// rejections and, with keepGoing, reads past a violation.
func newMonitor(machine *core.StateMachine, tolerance int, keepGoing bool, obs ...Observer) (*Monitor, error) {
	j, err := NewJudge(machine, tolerance)
	if err != nil {
		return nil, err
	}
	return &Monitor{judge: j, observers: obs, keepGoing: keepGoing}, nil
}

// MonitorOption configures NewMonitor.
type MonitorOption func(*monitorConfig) error

type monitorConfig struct {
	name      string
	machine   *core.StateMachine
	targets   int
	observers []Observer
}

// WithTarget sets the machine to observe; name labels it in errors. A
// monitor observes one machine: a second WithTarget is an error.
func WithTarget(name string, machine *core.StateMachine) MonitorOption {
	return func(c *monitorConfig) error {
		if c.targets++; c.targets > 1 {
			return fmt.Errorf("trace: target %q: a monitor observes one machine", name)
		}
		c.name, c.machine = name, machine
		return nil
	}
}

// WithObserver registers verdict observers, called in registration
// order for every verdict.
func WithObserver(obs ...Observer) MonitorOption {
	return func(c *monitorConfig) error {
		c.observers = append(c.observers, obs...)
		return nil
	}
}

// NewMonitor returns a monitor of the WithTarget machine at tolerance 0
// that stops at the first violation; a Check sets either otherwise.
func NewMonitor(opts ...MonitorOption) (*Monitor, error) {
	var c monitorConfig
	for _, opt := range opts {
		if err := opt(&c); err != nil {
			return nil, err
		}
	}
	if c.targets == 0 {
		return nil, errors.New("trace: monitor needs a target machine")
	}
	m, err := newMonitor(c.machine, 0, false, c.observers...)
	if err != nil {
		return nil, fmt.Errorf("trace: target %q: %w", c.name, err)
	}
	return m, nil
}

// set rewrites the monitor's verdict field by field and returns it; an
// accepted verdict's caller then sets its Actions, tr and edge.
func (m *Monitor) set(line int, event string, kind Kind, state, detail string) *Verdict {
	v := &m.verdict
	v.Line, v.Event, v.Kind, v.State, v.Detail = line, event, kind, state, detail
	v.Actions, v.tr, v.edge = nil, nil, 0
	return v
}

// emit delivers the monitor's verdict to every observer; false means
// stop.
func (m *Monitor) emit() bool {
	for _, obs := range m.observers {
		if !obs.Observe(&m.verdict) {
			return false
		}
	}
	return true
}

// Run drives the machine over the decoder's event stream until the
// input ends, the context is cancelled, an observer stops the run, or —
// unless the monitor keeps going — a violation occurs. The Report covers
// everything judged; err classifies abnormal ends: a *DecodeError for
// malformed input, the context error for cancellation, ErrStopped for
// an observer stop, and nil for a completed run (conforming or not —
// consult Report.Conforming).
func (m *Monitor) Run(ctx context.Context, dec Decoder) (Report, error) {
	var rep Report
	j := m.judge
	j.Reset()
	done := ctx.Done()
	var d Judgement
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
			m.set(ev.Line, "", KindSkipped, "", "no transition pattern matched")
			if !m.emit() {
				return rep, ErrStopped
			}
			continue
		}
		rep.Events++
		j.judge(j.index(&ev), ev.Msg, &d)
		detail, state := "", j.State().Name
		if d.Err != nil {
			detail = d.Err.Error()
		}
		v := m.set(ev.Line, ev.Msg, d.Kind, state, detail)
		switch d.Kind {
		case KindAccepted:
			rep.Accepted++
			v.Actions, v.tr, v.edge = d.Tr.Actions, d.Tr, d.edge
		case KindIgnored:
			rep.Ignored++
		case KindViolation:
			rep.Violations++
			rep.FirstViolation = cmp.Or(rep.FirstViolation, ev.Line)
		}
		if !m.emit() {
			return rep, ErrStopped
		}
		if d.Finished {
			m.set(ev.Line, ev.Msg, KindFinished, state, "")
			if !m.emit() {
				return rep, ErrStopped
			}
		}
		if d.Kind == KindViolation && !m.keepGoing {
			break
		}
	}
	rep.Finished = j.State().Final
	rep.FinalState = j.State().Name
	return rep, nil
}
