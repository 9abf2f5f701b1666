package sim

// This file is the asynchronous half of the engine: the ModeAsync and
// ModeSemiAsync aggregation regimes. Where the synchronous body runs a
// barrier — every round waits for its cohort or the straggler deadline
// — the async body dispatches selected devices and lets their
// completions become events on the virtual-time queue (vtime). Each
// Step is one *aggregation*: ModeAsync applies the single next arrival
// (FedAsync-style), ModeSemiAsync waits for a quorum of AggregateK
// arrivals or a deadline (APPFL-style). Nothing is dropped: a device
// that misses a semi-async deadline keeps computing and its update
// rolls into a later model version with higher staleness, discounted
// by 1/(1+s)^α in the convergence model.
//
// The body shares the round prologue (beginRound), the post-selection
// load draw (actualLoad), the energy booking (charge), and the
// convergence step (advance) with the synchronous body, so all
// stochastic draws come from the same identity-keyed streams. Event
// ordering is total via the queue's (time, push-order)
// comparison, so async traces are a pure function of the config,
// independent of GOMAXPROCS, the observe pass's shard count, and
// distributed execution.

import (
	"math"

	"autofl/internal/power"
	"autofl/internal/sim/vtime"
)

// maxTrackedStaleness caps the per-device staleness memory fed back to
// policies (the packed int8 array); the discount weight still uses the
// exact staleness.
const maxTrackedStaleness = 127

// flight is one in-transit model update: a dispatched device whose
// completion event is pending on the queue.
type flight struct {
	used     bool
	dev      int32
	dispatch int32
	target   int8
	step     int16
	compSec  float64
	commSec  float64
	cleanSec float64
}

// asyncState is the engine's asynchronous-aggregation state: the event
// queue, the in-flight update table, and the per-device staleness
// memory.
type asyncState struct {
	q vtime.Queue
	// flights is a slot table of in-flight updates; event payloads are
	// slot indices. Slots are reused scan-first-free, so the table
	// never exceeds the in-flight cap (Params.K).
	flights []flight
	// busy marks devices with an update in flight; they are skipped at
	// dispatch (a device trains one update at a time).
	busy []bool
	// lastStale records each device's most recent applied-update
	// staleness, surfaced to policies via DeviceState.Staleness.
	lastStale []int8
	inFlight  int
	// arrivals is the reused per-round applied-updates buffer.
	arrivals []ArrivalUpdate
	// clean is scratch for deriving the semi-async deadline from the
	// in-flight cohort.
	clean []float64
}

func newAsyncState(n int) *asyncState {
	return &asyncState{
		busy:      make([]bool, n),
		lastStale: make([]int8, n),
	}
}

// alloc places a flight in the first free slot and returns its index.
func (a *asyncState) alloc(f flight) int {
	f.used = true
	for i := range a.flights {
		if !a.flights[i].used {
			a.flights[i] = f
			return i
		}
	}
	a.flights = append(a.flights, f)
	return len(a.flights) - 1
}

// runRoundAsync executes one asynchronous aggregation step: observe,
// dispatch selected idle devices (their completions become events),
// then pop this step's arrivals from the queue and apply them with
// staleness-discounted weights.
func (e *Engine) runRoundAsync(pol Policy, tp TraitsPolicy, round int, accuracy float64, sc *roundScratch) (*RoundContext, *RoundResult) {
	a := e.async
	ctx, selections, traits, res := e.beginRound(pol, tp, round, accuracy, sc)

	// Dispatch: every selected device that is not already training
	// starts now, up to Params.K updates in flight. Its completion is
	// pushed as an event; its energy is charged at dispatch (the whole
	// busy window belongs to this model version's work).
	for _, sel := range selections {
		dr := &res.Devices[sel.Index]
		g := dr.Index
		if a.busy[g] || a.inFlight >= ctx.Params.K {
			continue
		}
		actual := e.actualLoad(round, g, ctx.Devices[sel.Index].Load)
		comp, comm := ctx.estimateWithLoad(sel.Index, sel.Target, sel.Step, actual)
		cleanComp, cleanComm := ctx.CleanCompletionTime(sel.Index)
		dr.Selected = true
		dr.Target = sel.Target
		dr.Step = sel.Step
		dr.CompSec, dr.CommSec = comp, comm
		// The update always reaches the server eventually — async
		// regimes drop nothing — so learning policies see a kept
		// (possibly stale) contribution, not a straggler punishment.
		dr.UpdateFraction = 1

		spec := ctx.Devices[sel.Index].Device.Spec
		busySec := comp + comm
		activeJ := power.ParticipantRoundEnergy(spec, sel.Target, sel.Step, ctx.Devices[sel.Index].Signal, power.Phases{
			SetupSec:  spec.SetupSec,
			CrunchSec: comp - spec.SetupSec,
			CommSec:   comm,
			RoundSec:  busySec,
		})
		dr.EnergyJ = activeJ
		res.ParticipantEnergyJ += activeJ
		// Fleet energy counts the whole population idle for the round
		// (added once roundSec is known) plus each dispatched device's
		// energy above its own idle draw over its busy window.
		extraJ := activeJ - spec.IdleWatts()*busySec
		res.EnergyJ += extraJ

		slot := a.alloc(flight{
			dev:      int32(g),
			dispatch: int32(round),
			target:   int8(sel.Target),
			step:     int16(sel.Step),
			compSec:  comp,
			commSec:  comm,
			cleanSec: cleanComp + cleanComm,
		})
		a.q.Push(e.vnow+busySec, int64(slot))
		a.busy[g] = true
		a.inFlight++
		res.Participants++
		e.charge(g, sel.Target, sel.Step, extraJ)
	}

	// Aggregate: pop this step's arrivals from the queue.
	arrivals := a.arrivals[:0]
	roundSec := 0.0
	switch e.cfg.Mode {
	case ModeAsync:
		// One aggregation per arrival: virtual time jumps to the next
		// completion.
		res.Deadline = math.Inf(1)
		if ev, ok := a.q.Pop(); ok {
			roundSec = ev.Time - e.vnow
			arrivals = append(arrivals, e.takeFlight(ev.Payload, round))
		} else {
			roundSec = e.cfg.Env.Network.BaseLatencySec
		}
	case ModeSemiAsync:
		// Aggregate at AggregateK arrivals or the deadline, whichever
		// first; later completions stay queued for the next version.
		deadline := e.cfg.AggregateDeadlineSec
		if deadline <= 0 {
			clean := a.clean[:0]
			for i := range a.flights {
				if a.flights[i].used {
					clean = append(clean, a.flights[i].cleanSec)
				}
			}
			a.clean = clean
			if len(clean) > 0 {
				deadline = e.cfg.StragglerFactor * median(clean)
			} else {
				deadline = e.cfg.Env.Network.BaseLatencySec
			}
		}
		res.Deadline = deadline
		cutoff := e.vnow + deadline
		last := e.vnow
		for len(arrivals) < e.cfg.AggregateK {
			ev, ok := a.q.Peek()
			if !ok || ev.Time > cutoff {
				break
			}
			a.q.Pop()
			last = ev.Time
			arrivals = append(arrivals, e.takeFlight(ev.Payload, round))
		}
		if len(arrivals) >= e.cfg.AggregateK {
			roundSec = last - e.vnow
		} else {
			roundSec = deadline
		}
	}
	a.arrivals = arrivals
	res.Arrivals = arrivals
	res.Kept = len(arrivals)
	res.Pending = a.inFlight
	res.RoundSec = roundSec
	e.vnow += roundSec
	res.VirtualSec = e.vnow

	staleSum := 0
	for i := range arrivals {
		staleSum += arrivals[i].Staleness
		if arrivals[i].Staleness > res.MaxStaleness {
			res.MaxStaleness = arrivals[i].Staleness
		}
	}
	if len(arrivals) > 0 {
		res.MeanStaleness = float64(staleSum) / float64(len(arrivals))
	}

	// Fleet-wide idle energy for the step's duration, plus idle
	// records for undispatched view rows (observability only; totals
	// are accounted above).
	res.EnergyJ += ctx.FleetIdleWatts() * roundSec
	idleRecords(ctx, res, roundSec)
	e.pop.idleSec += roundSec
	if e.batt != nil {
		res.ParticipationJain = e.batt.jain()
	}

	res.Accuracy = e.advance(res, traits)
	return ctx, res
}

// takeFlight retires the flight in the given slot as an applied
// arrival at the given aggregation round, computing its staleness
// discount and releasing the device.
func (e *Engine) takeFlight(slot int64, round int) ArrivalUpdate {
	a := e.async
	f := &a.flights[slot]
	s := round - int(f.dispatch)
	f.used = false
	a.inFlight--
	a.busy[f.dev] = false
	tracked := s
	if tracked > maxTrackedStaleness {
		tracked = maxTrackedStaleness
	}
	a.lastStale[f.dev] = int8(tracked)
	return ArrivalUpdate{
		Index:         int(f.dev),
		DispatchRound: int(f.dispatch),
		Staleness:     s,
		Weight:        1 / math.Pow(1+float64(s), e.cfg.StalenessAlpha),
		CompSec:       f.compSec,
		CommSec:       f.commSec,
	}
}
