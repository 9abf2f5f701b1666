// Package sim is the federated-learning round engine: it orchestrates
// the FedAvg aggregation loop of Fig 2 (select → broadcast → local
// train → upload → aggregate) over a heterogeneous device population
// with stochastic runtime variance, accounting time and energy with
// the models of internal/device, internal/power, internal/network and
// internal/interference, and advancing model accuracy with an analytic
// FedAvg convergence model (convergence.go).
//
// Selection policies — the paper's baselines, the oracles, and the
// AutoFL controller — plug in through the Policy interface.
package sim

import (
	"fmt"
	"math"

	"autofl/internal/battery"
	"autofl/internal/data"
	"autofl/internal/device"
	"autofl/internal/interference"
	"autofl/internal/network"
	"autofl/internal/power"
	"autofl/internal/rng"
	"autofl/internal/sim/vtime"
	"autofl/internal/workload"
)

// AggregationMode selects the server's aggregation regime.
type AggregationMode string

const (
	// ModeSync is the paper's bulk-synchronous FedAvg: every round
	// waits for its cohort (or the straggler deadline) before
	// aggregating. The empty string defaults to it.
	ModeSync AggregationMode = "sync"
	// ModeAsync applies each device update the moment it arrives,
	// discounted by staleness (APPFL/FedAsync-style): one aggregation
	// step per arrival, no barrier, no drops.
	ModeAsync AggregationMode = "async"
	// ModeSemiAsync aggregates when AggregateK updates have arrived or
	// the aggregation deadline expires; stragglers are not dropped —
	// their updates roll into the next model version with higher
	// staleness.
	ModeSemiAsync AggregationMode = "semi-async"
)

// Env bundles the runtime-variance sources of one execution
// environment (§3.2): on-device interference and network conditions.
type Env struct {
	Interference interference.Model
	Network      network.Profile
}

// EnvIdeal is the no-variance environment of Fig 5(a)/Fig 10(a).
func EnvIdeal() Env {
	return Env{Interference: interference.None(), Network: network.Stable()}
}

// EnvInterference adds the web-browsing co-runner (Fig 5b / Fig 10b).
func EnvInterference() Env {
	return Env{Interference: interference.Default(), Network: network.Stable()}
}

// EnvWeakNetwork degrades the wireless link (Fig 5c / Fig 10c).
func EnvWeakNetwork() Env {
	return Env{Interference: interference.None(), Network: network.Weak()}
}

// EnvField combines both variance sources — the default deployment.
func EnvField() Env {
	return Env{Interference: interference.Default(), Network: network.Variable()}
}

// Config fully describes one FL run.
type Config struct {
	// Workload is the model being trained.
	Workload *workload.Model
	// Params is the (B, E, K) tuple of Table 5.
	Params workload.GlobalParams
	// Population is the candidate device population: an archetype
	// table plus packed per-device state (see population.go), sized
	// for million-device populations. Nil selects the paper's
	// 200-device testbed (30 high-, 70 mid-, 100 low-end devices).
	Population *device.Population
	// Sample is the per-round candidate-pool size: each round the
	// engine draws Sample candidates uniformly from the population and
	// policies select K participants among them, so candidate scoring
	// is O(Sample) rather than O(population). It must be at least
	// Params.K. Zero, or any value from the population size up,
	// selects the exhaustive round: every device is a candidate, in
	// index order, with no sampler draw. A pool of 1,024 or more
	// candidates is observed in parallel on min(GOMAXPROCS, 16)
	// goroutines; results never depend on that count, since every
	// per-device draw is keyed by identity.
	Sample int
	// Data is the data-heterogeneity scenario.
	Data data.Scenario
	// Env is the runtime-variance environment.
	Env Env
	// Seed drives all stochastic draws; equal seeds reproduce runs
	// exactly.
	Seed uint64
	// MaxRounds bounds the run (the paper uses 1000 as the
	// does-not-converge horizon).
	MaxRounds int
	// TargetAccuracy ends the run when reached; 0 selects the
	// workload's default target (TargetFraction of the way from floor
	// to ceiling).
	TargetAccuracy float64
	// StragglerFactor sets the reporting deadline as a multiple of the
	// median expected completion time among participants; slower
	// devices are dropped from the aggregation (§3.2). Zero selects
	// DefaultStragglerFactor.
	StragglerFactor float64
	// Mode selects the aggregation regime: ModeSync (default),
	// ModeAsync, or ModeSemiAsync. The asynchronous regimes resolve
	// device completions through the virtual-time event queue
	// (internal/sim/vtime) instead of a round barrier.
	Mode AggregationMode
	// StalenessAlpha is the α of the asynchronous staleness discount
	// 1/(1+s)^α applied to an update dispatched s model versions ago.
	// Zero selects DefaultStalenessAlpha in the async regimes; setting
	// it with ModeSync is a ConfigError.
	StalenessAlpha float64
	// AggregateK is the semi-async aggregation quorum: the server
	// aggregates as soon as this many updates have arrived. Zero
	// selects ceil(K/2). Only valid with ModeSemiAsync.
	AggregateK int
	// AggregateDeadlineSec bounds how long a semi-async aggregation
	// step waits for its quorum; on expiry the server aggregates
	// whatever arrived and stragglers roll into the next version. Zero
	// derives a deadline per step from the in-flight cohort's clean
	// completion times (StragglerFactor × median). Only valid with
	// ModeSemiAsync.
	AggregateDeadlineSec float64
	// Battery attaches the per-device battery model (internal/battery):
	// devices drain by their measured round energy plus idle draw,
	// optionally harvest in virtual time, and fall out of the candidate
	// set while below the participation threshold. Nil disables the
	// subsystem entirely and reproduces the pre-battery engine byte for
	// byte.
	Battery *battery.Spec
}

// Defaults used when Config fields are zero.
const (
	DefaultMaxRounds       = 1000
	DefaultStragglerFactor = 2.0
	// DefaultStalenessAlpha is the async staleness-discount exponent
	// when Config.StalenessAlpha is zero: stale updates still help, at
	// 1/sqrt-ish decaying weight.
	DefaultStalenessAlpha = 0.5
	// TargetFraction positions the default accuracy target between the
	// workload's floor and ceiling. It sits high enough that heavily
	// non-IID populations under random selection plateau below it
	// (Fig 11c/d) while learned stable cohorts clear it.
	TargetFraction = 0.94
)

func (c *Config) withDefaults() Config {
	out := *c
	if out.Workload == nil {
		out.Workload = workload.CNNMNIST()
	}
	if out.Params == (workload.GlobalParams{}) {
		out.Params = workload.S3
	}
	if out.Population == nil {
		out.Population, _ = device.NewPopulation(device.DefaultHighCount, device.DefaultMidCount, device.DefaultLowCount)
	}
	if n := out.Population.Len(); out.Sample == 0 || out.Sample > n {
		out.Sample = n
	}
	if out.Data.Name == "" {
		out.Data = data.IdealIID
	}
	if out.Env.Network.Name == "" {
		out.Env = EnvField()
	}
	if out.MaxRounds <= 0 {
		out.MaxRounds = DefaultMaxRounds
	}
	if out.TargetAccuracy <= 0 {
		w := out.Workload
		out.TargetAccuracy = w.AccuracyFloor + TargetFraction*(w.AccuracyCeiling-w.AccuracyFloor)
	}
	if out.StragglerFactor <= 0 {
		out.StragglerFactor = DefaultStragglerFactor
	}
	if out.Mode == "" {
		out.Mode = ModeSync
	}
	if out.Mode != ModeSync && out.StalenessAlpha == 0 {
		out.StalenessAlpha = DefaultStalenessAlpha
	}
	if out.Mode == ModeSemiAsync && out.AggregateK == 0 {
		out.AggregateK = (out.Params.K + 1) / 2
	}
	if out.Battery != nil {
		// Copy before defaulting: the caller's spec stays untouched.
		b := out.Battery.WithDefaults()
		out.Battery = &b
	}
	return out
}

// DeviceState is the per-round observed condition of one device — what
// the de-facto FL protocol reports to the server (§4 footnote 3) and
// what selection policies may inspect.
type DeviceState struct {
	// Device is the population entry; Device.ID is the global device
	// index.
	Device *device.Device
	// Load is the co-runner activity this round.
	Load interference.Load
	// BandwidthMbps is this round's sampled link bandwidth.
	BandwidthMbps float64
	// Signal is the corresponding signal-strength tier.
	Signal power.Signal
	// Data summarizes the local dataset (static across rounds).
	Data *data.DeviceData
	// Staleness is the model-version staleness of the device's most
	// recently applied update (0 before any arrival and in ModeSync).
	// The AutoFL controller buckets it into its packed state, so the
	// Q-table can learn the async regime's in-flight dynamics.
	Staleness int
	// Battery is the device's battery state of charge in [0, 1] at
	// observation time; 0 when the run has no battery model.
	Battery float64
	// Unavailable marks a device whose charge is below the battery
	// participation threshold: sanitize excludes it from selection, so
	// policies may skip it but cannot force it in. Always false without
	// a battery model.
	Unavailable bool
}

// RoundContext is everything a policy sees when selecting participants
// for one aggregation round.
type RoundContext struct {
	// Round is the zero-based aggregation round index.
	Round int
	// Accuracy is the current global-model test accuracy.
	Accuracy float64
	// Workload and Params echo the run configuration.
	Workload *workload.Model
	Params   workload.GlobalParams
	// Devices is the round's candidate view, one state per candidate
	// in ascending global index order: Devices[i].Device.ID is the
	// global device index, and selection indices address the view.
	// With Sample equal to the population size the view is the whole
	// population, so view and global indices coincide.
	Devices []DeviceState

	cfg *Config
	// fleetIdle is the population-wide idle draw (see FleetIdleWatts).
	fleetIdle float64
}

// Selection is one participant choice: a device plus its execution
// target and DVFS step (the two-level AutoFL action). Step -1 selects
// the target's top step.
type Selection struct {
	Index  int
	Target device.Target
	Step   int
}

// Policy selects the participants (and their execution targets) for
// each round. Implementations must be deterministic given their own
// seeded randomness so runs reproduce.
//
// The engine treats the returned slice as borrowed: it copies what it
// needs before the next Select call, so policies may return an
// internal buffer they reuse across rounds.
type Policy interface {
	// Name identifies the policy in results and experiment output.
	Name() string
	// Select returns up to Params.K selections for this round.
	Select(ctx *RoundContext) []Selection
}

// FeedbackPolicy is implemented by learning policies (AutoFL) that
// consume the measured outcome of each round.
//
// Inside Engine.Run the context and result passed to Feedback live in
// engine-owned buffers that the next round reuses; policies must not
// retain them past the callback.
type FeedbackPolicy interface {
	Policy
	// Feedback delivers the completed round's results: the paper's
	// Step 5 measurement that drives the Q-table update.
	Feedback(ctx *RoundContext, result *RoundResult)
}

// AggregationTraits modify how the server treats straggler and
// non-IID updates — how FedNova and FEDL differ from plain FedAvg
// (§6.3).
type AggregationTraits struct {
	// PartialUpdates lets devices that miss the deadline contribute a
	// partial update instead of being dropped.
	PartialUpdates bool
	// DivergenceDamping in [0, 1] shrinks the quality loss of non-IID
	// updates (update normalization / gradient correction). 0 is plain
	// FedAvg.
	DivergenceDamping float64
	// NormalizedWeights aggregates every kept update with equal weight
	// (FedNova's normalized averaging) instead of sample-proportional
	// FedAvg weights.
	NormalizedWeights bool
}

// TraitsPolicy is implemented by policies that carry aggregation
// traits.
type TraitsPolicy interface {
	Policy
	Traits() AggregationTraits
}

// DeviceRound is the measured outcome for one device in one round.
type DeviceRound struct {
	// Index is the global device index.
	Index int
	// Selected reports whether the device participated.
	Selected bool
	// Dropped reports whether a participant missed the straggler
	// deadline and was excluded from aggregation.
	Dropped bool
	// Target and Step echo the executed action.
	Target device.Target
	Step   int
	// CompSec and CommSec are the computation and communication times.
	CompSec, CommSec float64
	// EnergyJ is the device's total energy this round (compute +
	// communication + idle slack for participants; pure idle
	// otherwise).
	EnergyJ float64
	// UpdateFraction is the share of the local update that reached the
	// aggregator: 1 for on-time participants, (0, 1) for partial
	// updates, 0 for dropped or idle devices.
	UpdateFraction float64
}

// RoundResult is the measured outcome of one aggregation round: its
// RoundInfo header plus what only the engine and feedback policies
// read.
type RoundResult struct {
	// RoundInfo is the round's headline record. Its Round is 1-based
	// (the zero-based round index plus one); Reward and Converged are
	// filled by Run.Step after feedback, so they are 0 and false when
	// a policy's Feedback sees the result.
	RoundInfo
	// Deadline is the straggler deadline that applied.
	Deadline float64
	// PrevAccuracy is the accuracy before the round.
	PrevAccuracy float64
	// Devices holds per-device outcomes, indexed like the candidate
	// view.
	Devices []DeviceRound
	// MaxStaleness is the largest model-version staleness among the
	// updates applied this round (0 in ModeSync).
	MaxStaleness int
	// Arrivals lists the updates an asynchronous round applied, in
	// virtual-time arrival order; nil in ModeSync. Like Devices, it is
	// an engine-owned buffer reused across rounds.
	Arrivals []ArrivalUpdate
}

// ArrivalUpdate is one device update applied by an asynchronous
// aggregation step.
type ArrivalUpdate struct {
	// Index is the global device index.
	Index int
	// DispatchRound is the model version the update trained on;
	// Staleness = aggregation round − DispatchRound.
	DispatchRound int
	Staleness     int
	// Weight is the staleness discount 1/(1+s)^α the aggregator
	// applied.
	Weight float64
	// CompSec and CommSec echo the completed execution times.
	CompSec, CommSec float64
}

// Result summarizes a full FL run.
type Result struct {
	Policy string
	// Converged reports whether TargetAccuracy was reached within
	// MaxRounds.
	Converged bool
	// ConvergedRound is the 1-based round at which the target was
	// reached (0 if never).
	ConvergedRound int
	// TimeToTargetSec is wall-clock time until convergence, or total
	// run time if the run never converged.
	TimeToTargetSec float64
	// EnergyToTargetJ is fleet energy over the same horizon.
	EnergyToTargetJ float64
	// ParticipantEnergyToTargetJ is the participants-only energy over
	// the same horizon.
	ParticipantEnergyToTargetJ float64
	// FinalAccuracy is the accuracy when the run ended.
	FinalAccuracy float64
	// Trace is the per-round record of every executed round, accuracy
	// after each round (Fig 6a) included; the result is its Fold.
	Trace Trace
	// RewardTrace is filled by learning policies via feedback hooks
	// (Fig 15); nil otherwise.
	RewardTrace []float64
	// Rounds is the number of rounds executed.
	Rounds int
	// Battery summarizes the battery subsystem at the end of the run
	// (see battery.go); nil without a battery model.
	Battery *BatteryStats
	// MeanStaleness averages the per-round mean applied-update
	// staleness over the executed horizon (0 for ModeSync runs).
	MeanStaleness float64
	// MeanRoundSec and MeanRoundEnergyJ are per-round averages over
	// the executed horizon.
	MeanRoundSec     float64
	MeanRoundEnergyJ float64
	// TargetAccuracy echoes the configured target.
	TargetAccuracy float64
	// AccuracyFloor echoes the workload floor, for normalization.
	AccuracyFloor float64
}

// Progress returns how far the run got toward the target, in [0, 1]:
// 1 when converged, 0 at the untrained floor. For unconverged runs it
// measures *log-gap closure* — the fraction of ln(gap₀/gap_target)
// covered — because saturating training spends equal time per
// equal gap ratio: a run stalled just below the target has still
// consumed only part of the (diverging) effort to reach it. This is
// what makes the PPW of never-converging baselines collapse, as in the
// paper's Fig 11(c)/(d).
func (r *Result) Progress() float64 {
	if r.Converged {
		return 1
	}
	span := r.TargetAccuracy - r.AccuracyFloor
	if span <= 0 {
		return 0
	}
	// Margin keeps the target gap finite: reaching the target means
	// closing all but 5% of the span.
	margin := 0.05 * span
	gap0 := span + margin
	gapNow := r.TargetAccuracy + margin - r.FinalAccuracy
	if gapNow >= gap0 {
		return 0
	}
	if gapNow < margin {
		gapNow = margin
	}
	p := math.Log(gap0/gapNow) / math.Log(gap0/margin)
	return math.Max(0, math.Min(1, p))
}

// GlobalPPW is the cluster-level performance-per-watt figure of merit:
// training progress per joule of fleet energy. For converged runs it
// reduces to 1 / (energy to convergence), the quantity the paper's
// normalized PPW bars compare.
func (r *Result) GlobalPPW() float64 {
	if r.EnergyToTargetJ <= 0 {
		return 0
	}
	return r.Progress() / r.EnergyToTargetJ
}

// LocalPPW is the participant-level efficiency: progress per joule
// spent by selected devices (the paper's "energy efficiency of
// individual participants").
func (r *Result) LocalPPW() float64 {
	if r.ParticipantEnergyToTargetJ <= 0 {
		return 0
	}
	return r.Progress() / r.ParticipantEnergyToTargetJ
}

// String renders a one-line summary. A never-converged run
// (ConvergedRound == 0) is rendered distinctly — "never (N rounds)" —
// so it cannot be misread as convergence at round 0; a hand-built
// result that claims convergence without a recorded round falls back
// to the executed round count.
func (r *Result) String() string {
	conv := fmt.Sprintf("never (%d rounds)", r.Rounds)
	if r.Converged {
		round := r.ConvergedRound
		if round == 0 {
			round = r.Rounds
		}
		conv = fmt.Sprintf("round %d", round)
	}
	return fmt.Sprintf("%s: acc=%.3f converged=%s time=%.0fs energy=%.0fJ",
		r.Policy, r.FinalAccuracy, conv, r.TimeToTargetSec, r.EnergyToTargetJ)
}

// Estimate predicts computation and communication seconds for running
// the round's workload on device idx with the given action, using the
// observed state in the context. Computation time includes the fixed
// setup phase (Spec.SetupSec). Oracles plan with it; the engine uses
// the same arithmetic for the actual execution, so oracle projections
// are exact.
func (ctx *RoundContext) Estimate(idx int, target device.Target, step int) (compSec, commSec float64) {
	return ctx.estimateWithLoad(idx, target, step, ctx.Devices[idx].Load)
}

// estimateWithLoad is Estimate with an explicit co-runner load; the
// engine uses it with the actual (post-selection) load, policies with
// the observed one.
func (ctx *RoundContext) estimateWithLoad(idx int, target device.Target, step int, load interference.Load) (compSec, commSec float64) {
	ds := &ctx.Devices[idx]
	spec := ds.Device.Spec
	if step < 0 {
		step = spec.Proc(target).TopStep() // -1 selects the top step
	}
	intensity := ctx.Workload.Intensity(ctx.Params.B)
	tput := spec.EffectiveGFLOPS(target, step, intensity, load.CPUContention(), load.MemContention())
	work := float64(ctx.Params.E) * float64(ds.Data.Samples) * ctx.Workload.TrainFLOPsPerSample()
	compSec = spec.SetupSec + work/(tput*1e9)
	payload := 2 * ctx.Workload.GradientBytes() // model down + gradients up
	commSec = ctx.cfg.Env.Network.CommSeconds(payload, ds.BandwidthMbps)
	return compSec, commSec
}

// DropRisk estimates the probability that device idx, executing the
// given action, misses the deadline because a co-runner appears after
// selection (the surprise component of runtime variance). Oracle
// policies fold it into cluster scoring; AutoFL learns the same effect
// from reward feedback instead.
func (ctx *RoundContext) DropRisk(idx int, target device.Target, step int, deadline float64) float64 {
	surprise := ctx.cfg.Env.Interference.SurpriseProb()
	if surprise <= 0 {
		return 0
	}
	risk := 0.0
	for _, wl := range interference.WeightedLoads() {
		comp, comm := ctx.estimateWithLoad(idx, target, step, wl.Load)
		if comp+comm > deadline {
			risk += wl.Weight
		}
	}
	return surprise * risk
}

// StragglerFactor exposes the run's deadline multiplier to planning
// policies.
func (ctx *RoundContext) StragglerFactor() float64 { return ctx.cfg.StragglerFactor }

// CleanCompletionTime is the completion time the server expects of
// device idx: CPU at top frequency, no co-runner, this round's
// bandwidth. The straggler deadline derives from it.
func (ctx *RoundContext) CleanCompletionTime(idx int) (compSec, commSec float64) {
	return ctx.estimateWithLoad(idx, device.CPU, -1, interference.Load{})
}

// FleetIdleWatts is the summed idle draw of the whole population, not
// just the candidate view, used by oracle policies to weigh round
// duration against participant energy.
func (ctx *RoundContext) FleetIdleWatts() float64 { return ctx.fleetIdle }

// EstimateEnergy predicts the round energy of device idx under the
// given action and an assumed round duration.
func (ctx *RoundContext) EstimateEnergy(idx int, target device.Target, step int, roundSec float64) float64 {
	comp, comm := ctx.Estimate(idx, target, step)
	ds := &ctx.Devices[idx]
	if comp+comm > roundSec {
		roundSec = comp + comm
	}
	spec := ds.Device.Spec
	if step < 0 {
		step = spec.Proc(target).TopStep()
	}
	return power.ParticipantRoundEnergy(spec, target, step, ds.Signal, power.Phases{
		SetupSec:  spec.SetupSec,
		CrunchSec: comp - spec.SetupSec,
		CommSec:   comm,
		RoundSec:  roundSec,
	})
}

// TopStep returns the top DVFS step for a device/target pair in this
// context.
func (ctx *RoundContext) TopStep(idx int, target device.Target) int {
	return ctx.Devices[idx].Device.Spec.Proc(target).TopStep()
}

// Engine runs FL rounds under a Config.
type Engine struct {
	cfg    Config
	accRng *rng.Stream
	conv   *convergenceModel
	// pop holds the per-device population state (see population.go).
	pop *popState
	// async holds the asynchronous-aggregation state; nil in ModeSync
	// (see async.go).
	async *asyncState
	// batt holds the battery-subsystem state; nil when Config.Battery
	// is nil (see battery.go).
	batt *battState
	// barrier is the virtual-time queue the synchronous path resolves
	// its round barrier through; reused across rounds.
	barrier vtime.Queue
	// vnow is the engine's virtual clock: cumulative round seconds.
	vnow float64

	// scratch holds the Run loop's reusable round buffers; the
	// exported RunRound allocates fresh ones per call so its returned
	// snapshots stay independent.
	scratch roundScratch
}

// roundScratch is one round's worth of engine-owned buffers, reused
// across rounds so the steady-state loop performs no per-round
// allocation for contexts, device states, or outcome records.
type roundScratch struct {
	ctx   RoundContext
	res   RoundResult
	clean []float64   // per-participant clean completion times
	seen  []bool      // sanitize dedup, indexed by device
	sels  []Selection // sanitized selections

	// The candidate pool and the backing arrays the candidate view's
	// Device/Data pointers point into.
	cand []int32
	devs []device.Device
	dd   []data.DeviceData
}

// New builds an engine. The device data partition is drawn once (local
// datasets are static across rounds, as in the paper). It panics on a
// degenerate config; NewEngine returns the *ConfigError instead.
func New(cfg Config) *Engine {
	e, err := NewEngine(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// NewEngine builds an engine, rejecting degenerate configurations
// (empty population, K larger than the population, a negative sample
// count, a candidate sample smaller than K, a NaN or infinite float)
// with a *ConfigError.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.checkFinite(); err != nil {
		return nil, err
	}
	c := cfg.withDefaults()
	if err := c.validate(); err != nil {
		return nil, err
	}
	// The fork order (partition, environment, accuracy, sampler) is
	// part of the reproducibility contract: it fixes every stream's
	// sequence for a given seed.
	root := rng.New(c.Seed)
	partRng, envRng := root.Fork(), root.Fork()
	e := &Engine{cfg: c, accRng: root.Fork()}
	e.pop = newPopState(&e.cfg, partRng, envRng, root)
	e.conv = newConvergenceModel(&e.cfg)
	if e.cfg.Mode != ModeSync {
		e.async = newAsyncState(e.pop.n)
	}
	if e.cfg.Battery != nil {
		e.batt = newBattState(*e.cfg.Battery, e.cfg.Seed, e.pop.n)
	}
	return e, nil
}

// Config returns the engine's effective (defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }

// RunRound executes one aggregation round with the given policy and
// current accuracy, returning the context it observed and the measured
// result. It is exported for step-by-step callers (the experiment
// runners OverheadAnalysis, EnergyModelError and
// Fig12PredictionAccuracy, and tests); each call returns freshly
// allocated snapshots. Run loops the same logic over the engine's
// reusable buffers instead.
func (e *Engine) RunRound(p Policy, round int, accuracy float64) (*RoundContext, *RoundResult) {
	tp, _ := p.(TraitsPolicy)
	return e.runRound(p, tp, round, accuracy, new(roundScratch))
}

// beginRound is the prologue every round body shares: it observes the
// candidate view, sanitizes the policy's selections, reads the
// policy's aggregation traits (tp is pol as a TraitsPolicy, nil if it
// is not one), resets the result with global device indices, and
// summarizes the view's battery state.
func (e *Engine) beginRound(pol Policy, tp TraitsPolicy, round int, accuracy float64, sc *roundScratch) (*RoundContext, []Selection, AggregationTraits, *RoundResult) {
	ctx := e.observe(sc, round, accuracy)
	selections := sanitize(sc, ctx, pol.Select(ctx))

	traits := AggregationTraits{}
	if tp != nil {
		traits = tp.Traits()
	}

	k := len(ctx.Devices)
	res := &sc.res
	devRounds := res.Devices
	if cap(devRounds) < k {
		devRounds = make([]DeviceRound, k)
	}
	devRounds = devRounds[:k]
	*res = RoundResult{
		RoundInfo:    RoundInfo{Round: round + 1},
		PrevAccuracy: accuracy,
		Devices:      devRounds,
	}
	for v := range devRounds {
		devRounds[v] = DeviceRound{Index: int(sc.cand[v])}
	}
	if e.batt != nil {
		res.BatteryAvailable, res.BatteryDepleted, res.BatteryMeanCharge = battViewStats(ctx.Devices)
	}
	return ctx, selections, traits, res
}

// actualLoad draws the co-runner load in effect while global device g
// executes round's work, given the load observed at selection: a
// co-runner can appear (or quit) after selection — the surprise
// variance no selector can observe away. The draw comes from a
// per-(round, device) keyed stream, so it is a function of device
// identity rather than of selection order.
func (e *Engine) actualLoad(round, g int, observed interference.Load) interference.Load {
	p := e.pop
	st := p.actRng.Seed(rng.Mix(p.actSeed, uint64(round), uint64(g)))
	return e.cfg.Env.Interference.Actual(st, observed)
}

// charge books a participant's energy above its idle draw over the
// window it worked: the battery drains it (the idle share arrives
// lazily at the next settle, so the two together drain the device's
// whole energy) and counts the participation, and the population
// records it with the executed action for DeviceSnapshot.
func (e *Engine) charge(g int, target device.Target, step int, extraJ float64) {
	p := e.pop
	p.extraJ[g] += extraJ
	p.lastStep[g] = int8(step)
	p.lastTarget[g] = int8(target)
	if e.batt != nil {
		e.batt.model.Drain(g, extraJ)
		e.batt.participate(g)
	}
}

// idleRecords fills the energy record of every view row that did not
// work this round with its idle draw over roundSec.
func idleRecords(ctx *RoundContext, res *RoundResult, roundSec float64) {
	for v := range res.Devices {
		dr := &res.Devices[v]
		if !dr.Selected {
			dr.EnergyJ = power.IdleEnergy(ctx.Devices[v].Device.Spec.IdleWatts(), roundSec)
		}
	}
}

// runRound is the round engine proper, operating on caller-provided
// scratch buffers. The asynchronous regimes have their own body
// (async.go); this is the bulk-synchronous one.
func (e *Engine) runRound(pol Policy, tp TraitsPolicy, round int, accuracy float64, sc *roundScratch) (*RoundContext, *RoundResult) {
	if e.async != nil {
		return e.runRoundAsync(pol, tp, round, accuracy, sc)
	}
	ctx, selections, traits, res := e.beginRound(pol, tp, round, accuracy, sc)
	res.Participants = len(selections)

	// Per-participant completion times, under the loads actually in
	// effect during execution.
	for _, sel := range selections {
		dr := &res.Devices[sel.Index]
		dr.Selected = true
		dr.Target = sel.Target
		dr.Step = sel.Step
		actual := e.actualLoad(round, dr.Index, ctx.Devices[sel.Index].Load)
		dr.CompSec, dr.CommSec = ctx.estimateWithLoad(sel.Index, sel.Target, sel.Step, actual)
	}

	// Straggler deadline: the server fixes a reporting deadline from
	// the *expected clean* execution time of the selected cohort
	// (standard CPU configuration, no co-runner) — it cannot observe
	// on-device interference, so devices slowed by co-runners blow
	// through it and are excluded, the §3.2 straggler problem.
	deadline := math.Inf(1)
	if len(selections) > 0 {
		clean := sc.clean[:0]
		for _, sel := range selections {
			comp, comm := ctx.CleanCompletionTime(sel.Index)
			clean = append(clean, comp+comm)
		}
		sc.clean = clean
		deadline = e.cfg.StragglerFactor * median(clean)
	}
	res.Deadline = deadline

	// Resolve the round barrier through the virtual-time event queue:
	// every participant's completion is an event, popped in completion
	// order.
	roundSec := e.resolveBarrier(selections, res, deadline, traits)
	if len(selections) == 0 {
		roundSec = e.cfg.Env.Network.BaseLatencySec
	}
	res.RoundSec = roundSec
	e.vnow += roundSec
	res.VirtualSec = e.vnow

	// Energy: idle records for the rest of the view, phase energy for
	// each participant.
	idleRecords(ctx, res, roundSec)
	participantIdle := 0.0
	for _, sel := range selections {
		dr := &res.Devices[sel.Index]
		ds := &ctx.Devices[sel.Index]
		comp, comm := dr.CompSec, dr.CommSec
		if dr.Dropped {
			// Work stops at the deadline; communication of whatever
			// was produced still happens for partial updates.
			budget := math.Max(0, deadline-dr.CommSec)
			comp = math.Min(comp, budget)
			if !traits.PartialUpdates {
				comm = math.Min(comm, deadline)
			}
		}
		spec := ds.Device.Spec
		setup := math.Min(spec.SetupSec, comp)
		dr.EnergyJ = power.ParticipantRoundEnergy(spec, dr.Target, dr.Step, ds.Signal, power.Phases{
			SetupSec:  setup,
			CrunchSec: comp - setup,
			CommSec:   comm,
			RoundSec:  roundSec,
		})
		idle := spec.IdleWatts() * roundSec
		res.ParticipantEnergyJ += dr.EnergyJ
		participantIdle += idle
		e.charge(dr.Index, dr.Target, dr.Step, dr.EnergyJ-idle)
	}
	// Fleet-wide energy: the participants' measured energy, summed in
	// selection order, on top of the O(archetypes) idle baseline, net
	// of their own idle share.
	p := e.pop
	res.EnergyJ = p.fleetIdle*roundSec - participantIdle + res.ParticipantEnergyJ
	p.idleSec += roundSec
	if e.batt != nil {
		res.ParticipationJain = e.batt.jain()
	}

	res.Accuracy = e.advance(res, traits)
	return ctx, res
}

// resolveBarrier resolves one bulk-synchronous aggregation barrier
// through the virtual-time event queue: each selection's completion
// time is pushed as an event and popped in (time, dispatch-order)
// order, classifying on-time participants versus deadline-missing
// stragglers and returning the round duration. The classification and
// the resulting floats are identical to the pre-queue selection-order
// loop — kept/dropped is per-event, and the duration is a max over the
// same values — so routing the barrier through the queue changes no
// output bytes; it exists so sync and async share one event substrate.
func (e *Engine) resolveBarrier(selections []Selection, res *RoundResult, deadline float64, traits AggregationTraits) float64 {
	q := &e.barrier
	q.Reset()
	for _, sel := range selections {
		dr := &res.Devices[sel.Index]
		q.Push(dr.CompSec+dr.CommSec, int64(sel.Index))
	}
	roundSec := 0.0
	for {
		ev, ok := q.Pop()
		if !ok {
			break
		}
		dr := &res.Devices[ev.Payload]
		total := ev.Time
		if total <= deadline {
			dr.UpdateFraction = 1
			res.Kept++
			if total > roundSec {
				roundSec = total
			}
			continue
		}
		dr.Dropped = true
		res.Dropped++
		if traits.PartialUpdates {
			// FedProx/FedNova-style partial work proportional to the
			// share of local training finished by the deadline.
			dr.UpdateFraction = deadline / total
			res.Kept++
		}
		// A straggler burns the deadline window regardless.
		if deadline > roundSec {
			roundSec = deadline
		}
	}
	return roundSec
}

// Run executes rounds until the accuracy target or MaxRounds, feeding
// learning policies their per-round results. It is a thin wrapper over
// the stepwise Run API (Start/Step/Result in run.go).
func (e *Engine) Run(p Policy) *Result {
	r := e.Start(p)
	for r.Step() {
	}
	return r.Result()
}

// sanitize deduplicates selections, clamps indices/steps, and truncates
// to K participants, writing into the scratch selection buffer.
func sanitize(sc *roundScratch, ctx *RoundContext, sels []Selection) []Selection {
	n := len(ctx.Devices)
	if cap(sc.seen) < n {
		sc.seen = make([]bool, n)
	}
	seen := sc.seen[:n]
	for i := range seen {
		seen[i] = false
	}
	out := sc.sels[:0]
	for _, s := range sels {
		if s.Index < 0 || s.Index >= n || seen[s.Index] {
			continue
		}
		if ctx.Devices[s.Index].Unavailable {
			// Below the battery participation threshold: excluded from
			// the candidate set regardless of what the policy returned.
			continue
		}
		seen[s.Index] = true
		proc := ctx.Devices[s.Index].Device.Spec.Proc(s.Target)
		if s.Step < 0 || s.Step > proc.TopStep() {
			s.Step = proc.TopStep()
		}
		out = append(out, s)
		if len(out) == ctx.Params.K {
			break
		}
	}
	sc.sels = out
	return out
}

// median sorts vals in place (callers pass scratch that is dead after
// this) and returns the middle value.
func median(vals []float64) float64 {
	// Insertion sort: participant counts are small (K <= ~50).
	for i := 1; i < len(vals); i++ {
		for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
			vals[j], vals[j-1] = vals[j-1], vals[j]
		}
	}
	n := len(vals)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}
