package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"autofl"
	"autofl/internal/battery"
	"autofl/internal/data"
	"autofl/internal/device"
	"autofl/internal/policy"
	"autofl/internal/sim"
	"autofl/internal/workload"
)

// The million-device engine workloads: a 1,000,000-device population in
// the paper's tier mix, 4,096 candidates sampled per round, CNN-MNIST
// at S3 in the field environment, default shard count.
const (
	popDevices = 1_000_000
	popSample  = 4096
	// popWarmup rounds run untimed at the end of every set-up.
	popWarmup = 200
	// popDigestRounds is the fixed round prefix the simulated digest
	// covers, so it does not depend on how many rounds a run times.
	popDigestRounds = 1000
	// popHorizon bounds the session; the timed phase stops before it.
	popHorizon = 250_000
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps = 5
)

// popSpec is one pop1m workload. Both run on non-IID(100%) data, on
// which neither converges within the horizon, so every timed round is
// steady state.
type popSpec struct {
	name    string
	async   bool
	battery bool
	policy  autofl.Policy
}

var (
	// popSync: sync FedAvg with FedAvg-Random selection and no battery.
	// The round path does nearly all the work; controller, battery,
	// async and sweep layers are bypassed.
	popSync = popSpec{name: "pop1m-sync", policy: autofl.PolicyRandom}
	// popAsyncBattery adds the async flight table, the solar battery
	// and charge-weighted selection.
	popAsyncBattery = popSpec{name: "pop1m-async-battery", async: true, battery: true,
		policy: autofl.PolicyBatteryWeighted}
)

func (p popSpec) scenario(seed uint64) autofl.Scenario {
	s := autofl.Scenario{
		Workload:  autofl.CNNMNIST,
		Setting:   autofl.S3,
		Data:      autofl.NonIID100,
		Env:       autofl.EnvField,
		Seed:      seed,
		MaxRounds: popHorizon,
		Fleet:     autofl.ScaledFleet(popDevices, popSample),
	}
	if p.async {
		s.Aggregation = &autofl.AggregationSpec{Mode: autofl.AsyncAggregation}
	}
	if p.battery {
		s.Battery = autofl.DefaultBattery(autofl.BatterySolar)
	}
	return s
}

// simConfig is the engine config autofl.Open builds for the scenario,
// assembled through internal/sim: Session has no policy hook, so the
// traced run builds the engine itself. The traced run's digest must
// equal the untraced one, which proves the two configs agree.
func (p popSpec) simConfig(seed uint64, pop *device.Population) sim.Config {
	cfg := sim.Config{
		Workload:   workload.ByName(string(autofl.CNNMNIST)),
		Params:     workload.S3,
		Population: pop,
		Sample:     popSample,
		Data:       data.NonIID100,
		Env:        sim.EnvField(),
		Seed:       seed,
		MaxRounds:  popHorizon,
	}
	if p.async {
		cfg.Mode = sim.ModeAsync
	}
	if p.battery {
		cfg.Battery = &battery.Spec{CapacityJ: 2000, Harvest: battery.ProfileSolar}
	}
	return cfg
}

// simPolicy is the policy autofl.Open builds for the scenario.
func (p popSpec) simPolicy(seed uint64) sim.Policy {
	if p.policy == autofl.PolicyBatteryWeighted {
		return policy.NewBatteryWeighted(seed ^ 0x5eed)
	}
	return policy.NewRandom(seed ^ 0x5eed)
}

// roundRec is one round's observation, from either a Session event or
// the engine's RoundInfo.
type roundRec struct {
	Round                                int
	Accuracy, RoundSec                   float64
	EnergyJ, ParticipantEnergyJ          float64
	Participants, Kept, Dropped          int
	VirtualSec                           float64
	Pending                              int
	MeanStaleness                        float64
	BatteryAvailable, BatteryDepleted    int
	BatteryMeanCharge, ParticipationJain float64
	Converged                            bool
}

func fromEvent(ev autofl.RoundEvent) roundRec {
	return roundRec{ev.Round, ev.Accuracy, ev.RoundSec, ev.EnergyJ, ev.ParticipantEnergyJ,
		ev.Participants, ev.Kept, ev.Dropped, ev.VirtualSec, ev.Pending, ev.MeanStaleness,
		ev.BatteryAvailable, ev.BatteryDepleted, ev.BatteryMeanCharge, ev.ParticipationJain, ev.Converged}
}

func fromInfo(in sim.RoundInfo) roundRec {
	return roundRec{in.Round, in.Accuracy, in.RoundSec, in.EnergyJ, in.ParticipantEnergyJ,
		in.Participants, in.Kept, in.Dropped, in.VirtualSec, in.Pending, in.MeanStaleness,
		in.BatteryAvailable, in.BatteryDepleted, in.BatteryMeanCharge, in.ParticipationJain, in.Converged}
}

// roundChecker enforces the per-round accounting invariants and sums
// the round energies for the end-of-run comparison with the Report.
type roundChecker struct {
	spec    popSpec
	k       int
	rounds  int
	virtual float64
	energyJ float64
}

func newRoundChecker(spec popSpec) *roundChecker {
	return &roundChecker{spec: spec, k: workload.S3.K}
}

func (c *roundChecker) check(r roundRec) error {
	c.rounds++
	c.energyJ += r.EnergyJ
	prev := c.virtual
	c.virtual = r.VirtualSec
	switch {
	case r.Round != c.rounds:
		return fmt.Errorf("round %d reported as %d", c.rounds, r.Round)
	case r.Converged:
		return fmt.Errorf("round %d converged; the workload must stay in steady state", r.Round)
	case !(r.Accuracy >= 0 && r.Accuracy <= 1):
		return fmt.Errorf("round %d accuracy %v outside [0, 1]", r.Round, r.Accuracy)
	case !(r.EnergyJ >= 0 && r.ParticipantEnergyJ >= 0 && r.RoundSec >= 0):
		return fmt.Errorf("round %d energy %v / participant energy %v / round time %v negative",
			r.Round, r.EnergyJ, r.ParticipantEnergyJ, r.RoundSec)
	case r.Participants > c.k:
		return fmt.Errorf("round %d has %d participants, more than K=%d", r.Round, r.Participants, c.k)
	case !(r.VirtualSec >= prev):
		return fmt.Errorf("round %d virtual clock went back from %v to %v", r.Round, prev, r.VirtualSec)
	}
	if c.spec.async {
		// Each async step applies the arrivals it pops from the flights
		// in the air, which never number more than K; nothing is dropped.
		if r.Dropped != 0 || r.Kept+r.Pending > c.k {
			return fmt.Errorf("round %d: async kept %d + pending %d > K=%d or dropped %d",
				r.Round, r.Kept, r.Pending, c.k, r.Dropped)
		}
	} else if r.Kept+r.Dropped > r.Participants || r.Pending != 0 {
		return fmt.Errorf("round %d: kept %d + dropped %d > participants %d, or pending %d in sync",
			r.Round, r.Kept, r.Dropped, r.Participants, r.Pending)
	}
	if c.spec.battery {
		if !(r.ParticipationJain >= 1.0/popDevices-1e-12 && r.ParticipationJain <= 1+1e-12) {
			return fmt.Errorf("round %d Jain index %v outside [1/n, 1]", r.Round, r.ParticipationJain)
		}
		if !(r.BatteryMeanCharge >= 0 && r.BatteryMeanCharge <= 1) || r.BatteryAvailable > popSample {
			return fmt.Errorf("round %d mean charge %v outside [0, 1] or %d available of %d candidates",
				r.Round, r.BatteryMeanCharge, r.BatteryAvailable, popSample)
		}
	}
	return nil
}

// checkReport compares the summed round energies with the Report's
// totals, which the engine accumulates separately.
func (c *roundChecker) checkReport(rep *autofl.Report) error {
	if rep.Rounds != c.rounds || rep.Converged {
		return fmt.Errorf("report has %d rounds (converged %v), stepped %d", rep.Rounds, rep.Converged, c.rounds)
	}
	if !closeTo(rep.EnergyToTargetJ, c.energyJ) {
		return fmt.Errorf("report energy %v J, summed rounds %v J", rep.EnergyToTargetJ, c.energyJ)
	}
	return nil
}

func closeTo(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }

// digest summarizes the simulated statistics of the first
// popDigestRounds rounds. It is a check that a change which only makes
// the program faster leaves the simulation alone, not a metric.
type digest struct {
	rounds               int
	accuracy, virtualSec float64
	energyJ              float64
	hash                 uint64
	// Simulated counters, summed over the rounds.
	kept, participants int
	pending            int
	staleness          float64
	available          int
	jain               float64
}

func (d *digest) add(r roundRec) {
	if r.Round > popDigestRounds {
		return
	}
	var buf [8]byte
	h := fnv.New64a()
	binary.LittleEndian.PutUint64(buf[:], d.hash)
	h.Write(buf[:])
	for _, v := range []float64{float64(r.Round), r.Accuracy, r.RoundSec, r.EnergyJ, r.ParticipantEnergyJ,
		float64(r.Participants), float64(r.Kept), float64(r.Dropped), r.VirtualSec, float64(r.Pending),
		r.MeanStaleness, float64(r.BatteryAvailable), float64(r.BatteryDepleted), r.BatteryMeanCharge,
		r.ParticipationJain} {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	d.hash = h.Sum64()
	d.rounds++
	d.accuracy, d.virtualSec = r.Accuracy, r.VirtualSec
	d.energyJ += r.EnergyJ
	d.kept += r.Kept
	d.participants += r.Participants
	d.pending += r.Pending
	d.staleness += r.MeanStaleness
	d.available += r.BatteryAvailable
	d.jain += r.ParticipationJain
}

func (d digest) String() string {
	n := float64(max(d.rounds, 1))
	return fmt.Sprintf("rounds=%d accuracy=%.6f virtual_s=%.3f energy_j=%.3f trace_hash=%016x\n"+
		"simulated: sim.kept_frac=%.6f sim.pending_mean=%.4f sim.staleness_mean=%.6f "+
		"sim.battery_available_frac=%.6f sim.participation_jain=%.6g",
		d.rounds, d.accuracy, d.virtualSec, d.energyJ, d.hash,
		float64(d.kept)/math.Max(float64(d.participants), 1), float64(d.pending)/n, d.staleness/n,
		float64(d.available)/(n*popSample), d.jain/n)
}

func runPop(spec popSpec, p params) (*outcome, error) {
	seed := splitmix64(p.seed)
	if p.trace {
		return runPopTraced(spec, seed, p)
	}
	out := newOutcome()
	sc := spec.scenario(seed)
	var (
		sess   *autofl.Session
		chk    *roundChecker
		dg     digest
		setups []float64
	)
	for range setupReps {
		sess = nil
		runtime.GC()
		start := time.Now()
		s, err := autofl.Open(sc, spec.policy)
		if err != nil {
			return nil, err
		}
		chk, dg = newRoundChecker(spec), digest{}
		for range popWarmup {
			ev, ok := s.Step()
			if !ok {
				return nil, fmt.Errorf("session ended during warm-up at round %d", s.Rounds())
			}
			rec := fromEvent(ev)
			if err := chk.check(rec); err != nil {
				out.fail("warm-up: %v", err)
			}
			dg.add(rec)
		}
		setups = append(setups, time.Since(start).Seconds())
		sess = s
	}

	durs := make([]float64, 0, popHorizon)
	deadline := time.Duration(p.seconds * float64(time.Second))
	start := time.Now()
	for time.Since(start) < deadline {
		out.attempted++
		t0 := time.Now()
		ev, ok := sess.Step()
		d := time.Since(t0)
		if !ok {
			out.fail("session ended after %d rounds, inside the timed phase", sess.Rounds())
			break
		}
		durs = append(durs, float64(d)/1e6)
		rec := fromEvent(ev)
		if err := chk.check(rec); err != nil {
			out.fail("%v", err)
		}
		dg.add(rec)
	}
	wall := time.Since(start).Seconds()
	heap := heapMiB()
	runtime.KeepAlive(sess)

	out.attempted++
	if err := chk.checkReport(sess.Result()); err != nil {
		out.fail("%v", err)
	}
	rounds := summarize(durs)
	fmt.Printf("setup_s: %v\n", setups)
	fmt.Printf("round_ms: %v\n", rounds)
	fmt.Printf("rounds_per_s: %.2f over %.2f s\n", float64(len(durs))/wall, wall)
	fmt.Printf("digest: %v\n", dg)
	out.set("setup_s", "s", median(setups))
	out.set("op_ms_p50", "ms", rounds.P50)
	out.set("work_per_s", "1/s", float64(len(durs))/wall)
	out.set("heap_mib", "MiB", heap)
	return out, nil
}

// runPopTraced is the traced run: an untraced reference Session steps
// the digest prefix, then the same engine is built through internal/sim
// with a traced policy and timed with a span around every step.
func runPopTraced(spec popSpec, seed uint64, p params) (*outcome, error) {
	out := newOutcome()
	ref, err := autofl.Open(spec.scenario(seed), spec.policy)
	if err != nil {
		return nil, err
	}
	var refDg digest
	var refDurs []float64
	refChk := newRoundChecker(spec)
	for ref.Rounds() < popDigestRounds {
		t0 := time.Now()
		ev, ok := ref.Step()
		d := time.Since(t0)
		if !ok {
			return nil, fmt.Errorf("reference session ended at round %d", ref.Rounds())
		}
		if ev.Round > popWarmup {
			refDurs = append(refDurs, float64(d)/1e6)
		}
		rec := fromEvent(ev)
		if err := refChk.check(rec); err != nil {
			out.fail("reference: %v", err)
		}
		refDg.add(rec)
	}

	fleet := autofl.ScaledFleet(popDevices, popSample)
	tr := newTracer(3*popHorizon + 64)
	var (
		run *sim.Run
		tp  *tracedPolicy
	)
	for range setupReps {
		run = nil
		runtime.GC()
		i := tr.begin("open.population", -1, -1)
		pop, err := device.NewPopulation(fleet.High, fleet.Mid, fleet.Low)
		tr.end(i, popDevices)
		if err != nil {
			return nil, err
		}
		i = tr.begin("open.engine", -1, -1)
		eng, err := sim.NewEngine(spec.simConfig(seed, pop))
		tr.end(i, 0)
		if err != nil {
			return nil, err
		}
		var pol sim.Policy
		pol, tp = wrapPolicy(spec.simPolicy(seed), tr)
		run = eng.Start(pol)
	}

	chk := newRoundChecker(spec)
	var dg digest
	step := func() bool {
		i := tr.begin("step", int64(run.Rounds()+1), -1)
		tp.step = i
		ok := run.Step()
		tr.end(i, 0)
		tp.step = -1
		if !ok {
			return false
		}
		rec := fromInfo(run.Last())
		if err := chk.check(rec); err != nil {
			out.fail("%v", err)
		}
		dg.add(rec)
		return true
	}
	for range popWarmup {
		if !step() {
			return nil, fmt.Errorf("traced run ended during warm-up at round %d", run.Rounds())
		}
	}
	firstTimed := tr.next.Load()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	deadline := time.Duration(p.seconds * float64(time.Second))
	start := time.Now()
	timed := 0
	for time.Since(start) < deadline {
		out.attempted++
		if !step() {
			out.fail("traced run ended after %d rounds, inside the timed phase", run.Rounds())
			break
		}
		timed++
	}
	runtime.ReadMemStats(&ms1)
	lastTimed := tr.next.Load()
	for run.Rounds() < popDigestRounds && step() {
	}

	out.attempted++
	if dg != refDg {
		out.fail("traced digest differs from the untraced run's:\n  untraced %v\n  traced   %v", refDg, dg)
	}
	if tr.dropped.Load() > 0 {
		return nil, fmt.Errorf("span buffer overflowed by %d spans", tr.dropped.Load())
	}

	spans := tr.recorded()
	self := selfTimes(spans)
	var selfMs []float64
	var stepNs, selectNs, feedbackNs, selfNs int64
	for i := firstTimed; i < lastTimed; i++ {
		s := spans[i]
		switch s.Name {
		case "step":
			stepNs += s.dur()
			selfNs += self[i]
			selfMs = append(selfMs, float64(self[i])/1e6)
		case "policy.select":
			selectNs += s.dur()
		case "policy.feedback":
			feedbackNs += s.dur()
		}
	}
	timedSpans := spans[firstTimed:lastTimed]
	steps := summarize(durationsMs(timedSpans, "step"))
	selects := summarize(durationsMs(timedSpans, "policy.select"))
	selfs := summarize(selfMs)
	refSum := summarize(refDurs)
	fmt.Printf("digest: %v\n", dg)
	fmt.Printf("traced step_ms: %v; untraced reference round_ms: %v; tracing overhead %+.4f ms at p50\n",
		steps, refSum, steps.P50-refSum.P50)
	fmt.Printf("layers over %d timed rounds: select %.1f ms + feedback %.1f ms + engine self %.1f ms = %.1f ms, step %.1f ms\n",
		timed, float64(selectNs)/1e6, float64(feedbackNs)/1e6, float64(selfNs)/1e6,
		float64(selectNs+feedbackNs+selfNs)/1e6, float64(stepNs)/1e6)
	if selectNs+feedbackNs+selfNs != stepNs {
		return nil, fmt.Errorf("layer times do not add up to the step time")
	}
	if err := writeSpans(spanPath(spec.name), spans); err != nil {
		return nil, err
	}
	out.set("open.population_ms", "ms", median(durationsMs(spans, "open.population")))
	out.set("open.engine_ms", "ms", median(durationsMs(spans, "open.engine")))
	out.set("policy.select_ms_p50", "ms", selects.P50)
	out.set("engine.self_ms_p50", "ms", selfs.P50)
	out.set("engine.allocs_per_round", "count", float64(ms1.Mallocs-ms0.Mallocs)/float64(max(timed, 1)))
	out.set("engine.gc_cycles", "count", float64(ms1.NumGC-ms0.NumGC))
	return out, nil
}
