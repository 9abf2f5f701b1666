// Package autofl is the public API of the AutoFL reproduction: a
// heterogeneity-aware, energy-efficient federated-learning simulator
// with the AutoFL reinforcement-learning controller (Kim & Wu, MICRO
// 2021) and every baseline the paper evaluates against.
//
// The entry point is a Scenario — a workload, global parameters, data
// distribution, and runtime-variance environment — on which any of the
// selection policies can be run:
//
//	scenario := autofl.Scenario{
//		Workload: autofl.CNNMNIST,
//		Setting:  autofl.S3,
//		Data:     autofl.NonIID50,
//		Env:      autofl.EnvField,
//		Seed:     42,
//	}
//	report, err := scenario.Run(autofl.PolicyAutoFL)
//
// A Report is the engine's own result (sim.Result): energy,
// time-to-convergence, accuracy and the per-round trace, with the
// paper's efficiency metrics as its GlobalPPW and LocalPPW methods.
// Compare normalizes a set of reports against a baseline the way the
// paper's figures do.
package autofl

import (
	"fmt"

	"autofl/internal/battery"
	"autofl/internal/core"
	"autofl/internal/data"
	"autofl/internal/device"
	"autofl/internal/metrics"
	"autofl/internal/policy"
	"autofl/internal/sim"
	"autofl/internal/workload"
)

// Workload names the training task (§5.2 of the paper).
type Workload string

// The three evaluation workloads.
const (
	CNNMNIST          Workload = "CNN-MNIST"
	LSTMShakespeare   Workload = "LSTM-Shakespeare"
	MobileNetImageNet Workload = "MobileNet-ImageNet"
)

// Workloads lists the available workloads in the paper's order.
func Workloads() []Workload {
	return []Workload{CNNMNIST, LSTMShakespeare, MobileNetImageNet}
}

// Setting names a (B, E, K) global-parameter tuple (Table 5).
type Setting string

// The four Table 5 settings.
const (
	S1 Setting = "S1"
	S2 Setting = "S2"
	S3 Setting = "S3"
	S4 Setting = "S4"
)

// Settings lists S1–S4.
func Settings() []Setting { return []Setting{S1, S2, S3, S4} }

// DataScenario names a data-heterogeneity setting (§5.2).
type DataScenario string

// The four data-distribution scenarios.
const (
	IdealIID  DataScenario = "iid"
	NonIID50  DataScenario = "noniid50"
	NonIID75  DataScenario = "noniid75"
	NonIID100 DataScenario = "noniid100"
)

// DataScenarios lists the four settings in order of increasing
// heterogeneity.
func DataScenarios() []DataScenario {
	return []DataScenario{IdealIID, NonIID50, NonIID75, NonIID100}
}

// Environment names a runtime-variance environment (§3.2).
type Environment string

// The evaluation environments.
const (
	// EnvIdeal has no interference and a stable network (Fig 5a).
	EnvIdeal Environment = "ideal"
	// EnvInterference adds a web-browsing co-runner on a random subset
	// of devices (Fig 5b).
	EnvInterference Environment = "interference"
	// EnvWeakNetwork degrades the wireless link (Fig 5c).
	EnvWeakNetwork Environment = "weak-network"
	// EnvField combines both variance sources — the realistic default.
	EnvField Environment = "field"
)

// Environments lists the variance environments.
func Environments() []Environment {
	return []Environment{EnvIdeal, EnvInterference, EnvWeakNetwork, EnvField}
}

// Policy names a participant-selection policy.
type Policy string

// The selection policies of §5.1 plus the prior-work comparators of
// §6.3.
const (
	PolicyRandom       Policy = "FedAvg-Random"
	PolicyPerformance  Policy = "Performance"
	PolicyPower        Policy = "Power"
	PolicyOParticipant Policy = "Oparticipant"
	PolicyOFL          Policy = "OFL"
	PolicyAutoFL       Policy = "AutoFL"
	PolicyFedNova      Policy = "FedNova"
	PolicyFEDL         Policy = "FEDL"
	// Battery-aware selection baselines (see Scenario.Battery). Not part
	// of Policies(): they exist to baseline the battery subsystem, not
	// the paper's evaluation matrix. Sweeps name them on the policy axis
	// like any other policy.
	PolicyBatteryWeighted Policy = "Battery-Weighted"
	PolicyAllAvailable    Policy = "All-Available"
)

// Policies lists every policy of the paper's evaluation matrix. The
// battery-aware baselines (PolicyBatteryWeighted, PolicyAllAvailable)
// are runnable but intentionally excluded.
func Policies() []Policy {
	return []Policy{
		PolicyRandom, PolicyPerformance, PolicyPower,
		PolicyOParticipant, PolicyOFL, PolicyAutoFL,
		PolicyFedNova, PolicyFEDL,
	}
}

// Scenario describes one federated-learning deployment to simulate.
// The zero value of optional fields selects the paper's defaults
// (200-device fleet, 1000-round horizon, workload-specific accuracy
// target).
type Scenario struct {
	// Workload is the training task (default CNN-MNIST).
	Workload Workload
	// Setting is the (B, E, K) tuple (default S3).
	Setting Setting
	// Data is the heterogeneity scenario (default Ideal IID).
	Data DataScenario
	// Env is the runtime-variance environment (default field
	// conditions).
	Env Environment
	// Seed makes runs reproducible; equal seeds and scenarios yield
	// identical reports.
	Seed uint64
	// MaxRounds bounds the run (default 1000, the paper's horizon).
	MaxRounds int
	// Fleet overrides the paper's 200-device testbed with a scaled
	// population; nil keeps the default fleet. See FleetSpec for the
	// cohort/sampling semantics.
	Fleet *FleetSpec
	// Aggregation selects the server's aggregation regime; nil keeps
	// the paper's bulk-synchronous FedAvg. See AggregationSpec.
	Aggregation *AggregationSpec
	// Battery attaches a device battery model: charge state, idle drain
	// and per-round training/communication draw, optional energy
	// harvesting, and below-threshold availability gating. Nil — the
	// default — reproduces the batteryless engine byte for byte. See
	// BatterySpec.
	Battery *BatterySpec
	// AutoFL configures the AutoFL controller when it is the policy
	// being run; nil selects the paper's hyperparameters.
	AutoFL *AutoFLOptions
}

// BatteryProfile names an energy-harvesting profile.
type BatteryProfile string

// The harvesting profiles.
const (
	// BatteryNone models a pure battery: devices only drain.
	BatteryNone BatteryProfile = "none"
	// BatteryCharger plugs a keyed-random subset of devices into a
	// constant charger.
	BatteryCharger BatteryProfile = "charger"
	// BatterySolar charges every device on a day/night sine in virtual
	// time, with a keyed per-device phase.
	BatterySolar BatteryProfile = "solar-diurnal"
)

// BatteryProfiles lists the harvesting profiles.
func BatteryProfiles() []BatteryProfile {
	return []BatteryProfile{BatteryNone, BatteryCharger, BatterySolar}
}

// BatterySpec configures the per-device battery model. The zero value
// of every field selects a tuned default, so &BatterySpec{} is a usable
// small-battery deployment; DefaultBattery builds profile presets.
//
// The model costs a few bytes per device and integrates lazily, so it
// composes with million-device populations and sampled rounds; runs
// stay deterministic and independent of shard/worker counts.
type BatterySpec struct {
	// Profile selects the harvesting profile (default none).
	Profile BatteryProfile
	// CapacityJ is the battery capacity (default 2000 J — a deliberately
	// small cell so depletion dynamics are visible within a run).
	CapacityJ float64
	// ThresholdJ is the participation threshold: devices below it are
	// excluded from the candidate set (default 15% of capacity).
	ThresholdJ float64
	// InitialFracLo and InitialFracHi bound the keyed-random initial
	// state of charge (default [0.80, 0.95] — devices enter federated
	// rounds charged and idle).
	InitialFracLo, InitialFracHi float64
	// HarvestW is the harvesting power while charging (default 2.5 W).
	HarvestW float64
	// ChargerFrac is the fraction of devices plugged in under the
	// charger profile (default 0.25).
	ChargerFrac float64
	// DaySec is the solar profile's diurnal period (default 86400 s).
	DaySec float64
}

// DefaultBattery returns the tuned preset for a harvesting profile.
func DefaultBattery(p BatteryProfile) *BatterySpec {
	return &BatterySpec{Profile: p}
}

// batterySpec maps the public spec onto the engine model.
func (b *BatterySpec) batterySpec() (*battery.Spec, error) {
	spec := battery.Spec{
		CapacityJ:     b.CapacityJ,
		ThresholdJ:    b.ThresholdJ,
		InitialFracLo: b.InitialFracLo,
		InitialFracHi: b.InitialFracHi,
		HarvestW:      b.HarvestW,
		ChargerFrac:   b.ChargerFrac,
		DaySec:        b.DaySec,
	}
	if spec.CapacityJ == 0 {
		spec.CapacityJ = 2000
	}
	switch b.Profile {
	case "", BatteryNone:
		spec.Harvest = battery.ProfileNone
	case BatteryCharger:
		spec.Harvest = battery.ProfileCharger
	case BatterySolar:
		spec.Harvest = battery.ProfileSolar
	default:
		return nil, fmt.Errorf("autofl: unknown battery profile %q", b.Profile)
	}
	return &spec, nil
}

// AggregationMode names a server aggregation regime.
type AggregationMode string

// The aggregation regimes.
const (
	// SyncAggregation is the paper's bulk-synchronous FedAvg (the
	// default): each round waits for its cohort or the straggler
	// deadline.
	SyncAggregation AggregationMode = "sync"
	// AsyncAggregation applies every device update the moment it
	// arrives, discounted by staleness — no barrier, no drops.
	AsyncAggregation AggregationMode = "async"
	// SemiAsyncAggregation aggregates at a quorum of arrivals or a
	// deadline; stragglers roll into the next model version.
	SemiAsyncAggregation AggregationMode = "semi-async"
)

// AggregationModes lists the selectable regimes.
func AggregationModes() []AggregationMode {
	return []AggregationMode{SyncAggregation, AsyncAggregation, SemiAsyncAggregation}
}

// AggregationSpec configures the asynchronous aggregation regimes.
// All runs — any mode, any fleet scale, serial or distributed — stay
// deterministic: traces are a pure function of the scenario and seed.
type AggregationSpec struct {
	// Mode selects the regime (default sync).
	Mode AggregationMode
	// StalenessAlpha is the α of the staleness discount 1/(1+s)^α
	// applied to updates dispatched s model versions ago; 0 selects
	// the engine default (0.5). Only meaningful in the async regimes.
	StalenessAlpha float64
	// AggregateK is the semi-async aggregation quorum (0 = ceil(K/2)).
	AggregateK int
	// DeadlineSec bounds how long a semi-async step waits for its
	// quorum (0 = derived from the in-flight cohort per step).
	DeadlineSec float64
}

// FleetSpec sizes a device population beyond the paper's 200-device
// testbed. The population is held in cohort form — an archetype table
// plus packed struct-of-arrays per-device state (~38 bytes/device) —
// so one Scenario scales to millions of devices.
type FleetSpec struct {
	// High, Mid, Low are the per-tier device counts.
	High, Mid, Low int
	// Sample is the per-round candidate-pool size: each round the
	// engine draws Sample candidates from the population and the
	// policy selects K participants among them, making per-round cost
	// O(Sample) instead of O(fleet). Zero, or any value from the
	// device count up, runs the population exhaustively — every device
	// a candidate each round, exactly as the default 200-device fleet
	// runs — fine for thousands of devices, a wall at millions. The
	// engine observes a large pool in parallel as GOMAXPROCS allows;
	// results do not depend on it.
	Sample int
}

// ScaledFleet builds a FleetSpec with n devices in the paper's tier
// proportions (15% high, 35% mid, 50% low) and the given per-round
// candidate sample.
func ScaledFleet(n, sample int) *FleetSpec {
	high := n * device.DefaultHighCount / 200
	mid := n * device.DefaultMidCount / 200
	return &FleetSpec{High: high, Mid: mid, Low: n - high - mid, Sample: sample}
}

// AutoFLOptions exposes the controller hyperparameters (§5.3).
type AutoFLOptions struct {
	// Epsilon is the exploration probability (default 0.1).
	Epsilon float64
	// LearningRate is γ (default 0.9).
	LearningRate float64
	// Discount is µ (default 0.1).
	Discount float64
	// SharedTables shares Q-tables within a device category (§4
	// Scalability).
	SharedTables bool
	// FairnessWeight adds an energy-fairness term to the reward: each
	// participant is credited with its state of charge, steering the
	// controller toward rotating load across the fleet. Only meaningful
	// when Scenario.Battery is set; 0 keeps the paper's reward.
	FairnessWeight float64
}

// Report is the outcome of one simulated FL run: the engine's own
// record (sim.Result), not a copy of it. Its fields carry convergence,
// time and energy to target, final accuracy, staleness, the per-round
// Trace (Trace.Accuracy is the Fig 6a curve), AutoFL's RewardTrace
// (Fig 15) and the battery summary; its GlobalPPW and LocalPPW methods
// are the paper's efficiency metrics. Policy holds the name of the
// Policy that produced the run.
type Report = sim.Result

// BatteryReport is the end-of-run battery summary of a battery-enabled
// scenario: Jain's participation-fairness index and the final round's
// mean state of charge, available and depleted candidate counts.
type BatteryReport = sim.BatteryStats

func (s Scenario) simConfig() (sim.Config, error) {
	cfg := sim.Config{Seed: s.Seed, MaxRounds: s.MaxRounds}

	name := s.Workload
	if name == "" {
		name = CNNMNIST
	}
	w := workload.ByName(string(name))
	if w == nil {
		return cfg, fmt.Errorf("autofl: unknown workload %q", name)
	}
	cfg.Workload = w

	switch s.Setting {
	case "", S3:
		cfg.Params = workload.S3
	case S1:
		cfg.Params = workload.S1
	case S2:
		cfg.Params = workload.S2
	case S4:
		cfg.Params = workload.S4
	default:
		return cfg, fmt.Errorf("autofl: unknown setting %q", s.Setting)
	}

	switch s.Data {
	case "", IdealIID:
		cfg.Data = data.IdealIID
	case NonIID50:
		cfg.Data = data.NonIID50
	case NonIID75:
		cfg.Data = data.NonIID75
	case NonIID100:
		cfg.Data = data.NonIID100
	default:
		return cfg, fmt.Errorf("autofl: unknown data scenario %q", s.Data)
	}

	switch s.Env {
	case "", EnvField:
		cfg.Env = sim.EnvField()
	case EnvIdeal:
		cfg.Env = sim.EnvIdeal()
	case EnvInterference:
		cfg.Env = sim.EnvInterference()
	case EnvWeakNetwork:
		cfg.Env = sim.EnvWeakNetwork()
	default:
		return cfg, fmt.Errorf("autofl: unknown environment %q", s.Env)
	}

	if s.Fleet != nil {
		pop, err := device.NewPopulation(s.Fleet.High, s.Fleet.Mid, s.Fleet.Low)
		if err != nil {
			return cfg, fmt.Errorf("autofl: fleet spec: %w", err)
		}
		cfg.Population = pop
		cfg.Sample = s.Fleet.Sample
	}
	if s.Aggregation != nil {
		// sim.NewEngine validates the mode and knob combinations,
		// returning a *sim.ConfigError for bad α/deadline/quorum.
		cfg.Mode = sim.AggregationMode(s.Aggregation.Mode)
		cfg.StalenessAlpha = s.Aggregation.StalenessAlpha
		cfg.AggregateK = s.Aggregation.AggregateK
		cfg.AggregateDeadlineSec = s.Aggregation.DeadlineSec
	}
	if s.Battery != nil {
		// sim.NewEngine validates the numeric ranges, returning a
		// *sim.ConfigError for degenerate capacity/threshold/harvest
		// combinations.
		spec, err := s.Battery.batterySpec()
		if err != nil {
			return cfg, err
		}
		cfg.Battery = spec
	}
	return cfg, nil
}

func (s Scenario) policy(p Policy) (sim.Policy, error) {
	seed := s.Seed ^ 0x5eed
	switch p {
	case PolicyRandom:
		return policy.NewRandom(seed), nil
	case PolicyPerformance:
		return policy.NewPerformance(seed), nil
	case PolicyPower:
		return policy.NewPower(seed), nil
	case PolicyOParticipant:
		return policy.NewOParticipant(), nil
	case PolicyOFL:
		return policy.NewOFL(), nil
	case PolicyFedNova:
		return policy.NewFedNova(seed), nil
	case PolicyFEDL:
		return policy.NewFEDL(seed), nil
	case PolicyBatteryWeighted:
		return policy.NewBatteryWeighted(seed), nil
	case PolicyAllAvailable:
		return policy.NewAllAvailable(), nil
	case PolicyAutoFL:
		opts := core.DefaultOptions(seed)
		if s.AutoFL != nil {
			if s.AutoFL.Epsilon > 0 {
				opts.Epsilon = s.AutoFL.Epsilon
			}
			if s.AutoFL.LearningRate > 0 {
				opts.LearningRate = s.AutoFL.LearningRate
			}
			if s.AutoFL.Discount > 0 {
				opts.Discount = s.AutoFL.Discount
			}
			opts.SharedTables = s.AutoFL.SharedTables
			opts.FairnessWeight = s.AutoFL.FairnessWeight
		}
		if s.Battery != nil {
			// Extend the Table 1 state space with a charge digit so the
			// controller can condition on battery level. Battery-less
			// scenarios keep the published state space exactly.
			b := core.DefaultBuckets()
			b.Battery = []float64{0.25, 0.6}
			opts.Buckets = &b
		}
		return core.New(opts), nil
	default:
		return nil, fmt.Errorf("autofl: unknown policy %q", p)
	}
}

// Run simulates the scenario under the given selection policy. It is
// a Session stepped to completion — Open the scenario instead for
// round-by-round control, observers, and early stopping.
func (s Scenario) Run(p Policy) (*Report, error) {
	sess, err := Open(s, p)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	return sess.Run(), nil
}

// RunAll simulates the scenario under each policy in turn.
func (s Scenario) RunAll(ps ...Policy) ([]*Report, error) {
	if len(ps) == 0 {
		ps = Policies()
	}
	out := make([]*Report, 0, len(ps))
	for _, p := range ps {
		r, err := s.Run(p)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Comparison normalizes reports against a baseline, mirroring the
// paper's normalized-PPW figures; its String method renders the table.
type Comparison = metrics.Comparison

// ComparisonRow is one policy's improvement factors over the baseline
// (1.0 = parity), with its convergence round and final accuracy.
type ComparisonRow = metrics.Row

// Compare normalizes the reports against the named baseline policy,
// which must be present among them.
func Compare(baseline Policy, reports []*Report) (*Comparison, error) {
	cmp, err := metrics.Compare(string(baseline), reports)
	if err != nil {
		return nil, err
	}
	return &cmp, nil
}
