package autofl

import (
	"autofl/internal/metrics"
	"autofl/internal/sim"
)

// RoundEvent is the per-round observation a Session delivers: the
// engine's record of one completed aggregation round (round index,
// accuracy, time and energy, participation, staleness, battery state,
// the learning policy's reward, and whether the round converged).
// Observers and early-stop predicates receive it, and Step returns it.
type RoundEvent = sim.RoundInfo

// Session is an open, stepwise run of one Scenario under one Policy —
// the streaming form of Scenario.Run. Where Run executes the whole
// horizon and returns one final Report, a Session exposes the round
// as the unit of execution: callers Step it (or RunTo a round),
// observe every completed round through callbacks, stop it early with
// predicates, and take a Report at any point. Scenario.Run itself is
// a Session stepped to completion, so the two are byte-identical.
//
// A Session is not safe for concurrent use. It holds live simulator
// state; Close it (or just drop it) when done.
type Session struct {
	run       *sim.Run
	observers []func(RoundEvent)
	stops     []func(RoundEvent) bool
	stopped   bool
	closed    bool
}

// Open validates the scenario and policy and starts a session at
// round zero. Nothing executes until the first Step (or RunTo/Run)
// call.
func Open(s Scenario, p Policy) (*Session, error) {
	cfg, err := s.simConfig()
	if err != nil {
		return nil, err
	}
	pol, err := s.policy(p)
	if err != nil {
		return nil, err
	}
	eng, err := sim.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	return &Session{run: eng.Start(pol)}, nil
}

// Observe registers a per-round callback, invoked after every
// executed round (in registration order) with that round's event.
func (s *Session) Observe(fn func(RoundEvent)) {
	s.observers = append(s.observers, fn)
}

// StopWhen registers an early-stop predicate: when it returns true
// for a round's event, the session stops after that round — Step
// reports done and the Report covers the executed prefix, exactly as
// if the horizon had been bounded there.
func (s *Session) StopWhen(pred func(RoundEvent) bool) {
	s.stops = append(s.stops, pred)
}

// Step executes one aggregation round and returns its event. It
// reports false — executing nothing — once the session is done:
// target reached, horizon exhausted, an early-stop predicate fired,
// or the session closed. Steady-state Step performs no allocation.
func (s *Session) Step() (RoundEvent, bool) {
	if s.closed || s.stopped || !s.run.Step() {
		return RoundEvent{}, false
	}
	ev := s.run.Last()
	for _, fn := range s.observers {
		fn(ev)
	}
	for _, pred := range s.stops {
		if pred(ev) {
			s.stopped = true
			break
		}
	}
	return ev, true
}

// RunTo steps until the session has executed the given number of
// rounds (or finished earlier) and returns the report as of that
// point.
func (s *Session) RunTo(round int) *Report {
	for s.run.Rounds() < round {
		if _, ok := s.Step(); !ok {
			break
		}
	}
	return s.Result()
}

// Run steps the session to its natural end — convergence, the
// scenario horizon, or an early-stop — and returns the final report.
func (s *Session) Run() *Report {
	for {
		if _, ok := s.Step(); !ok {
			break
		}
	}
	return s.Result()
}

// Rounds is the number of rounds executed so far.
func (s *Session) Rounds() int { return s.run.Rounds() }

// Done reports whether the session will execute no further rounds.
func (s *Session) Done() bool { return s.closed || s.stopped || s.run.Done() }

// Result returns the report as of the rounds executed so far: for a
// finished session the final report (identical to Scenario.Run's),
// mid-run a consistent snapshot of the executed prefix. It may be
// called repeatedly, before and after Close.
func (s *Session) Result() *Report {
	res := s.run.Snapshot()
	return &res
}

// FleetEnergyPercentiles streams the population's per-device
// cumulative-energy distribution — as of the rounds executed so far —
// through O(1)-memory quantile estimators, returning one estimate per
// requested probability (each in (0, 1)). The device snapshots are
// O(1) each, so the whole call is one linear pass with no per-device
// materialization even at millions of devices. It works on every
// fleet, the default 200-device one included; ok is false only when
// no probability is requested.
func (s *Session) FleetEnergyPercentiles(ps ...float64) ([]float64, bool) {
	n := s.run.PopulationLen()
	if n == 0 || len(ps) == 0 {
		return nil, false
	}
	qs := metrics.NewQuantiles(ps...)
	for i := 0; i < n; i++ {
		if _, _, energyJ, ok := s.run.DeviceSnapshot(i); ok {
			qs.Add(energyJ)
		}
	}
	return qs.Values(), true
}

// Close ends the session: subsequent Step calls execute nothing.
// Result remains available.
func (s *Session) Close() {
	s.closed = true
}
