// Package data models federated data heterogeneity: how the training
// classes are distributed over the device population. It implements
// the paper's four distribution scenarios (§5.2) — Ideal IID and
// Non-IID (50% / 75% / 100%) — with non-IID devices receiving class
// proportions drawn from a Dirichlet distribution with concentration
// 0.1, exactly the construction the paper uses.
//
// A partition (Packed) records, per device: the local sample count,
// the fraction of all classes held (the S_Data state feature of
// Table 1), a class-coverage mask, and an "IID quality" score that the
// convergence model consumes. Each device's assignment is drawn from
// its own keyed stream, so the simulation engine and the real FedAvg
// trainer (internal/fedavg) can share one partition, the trainer
// replaying each device's class proportions with Packed.Proportions.
package data

// DirichletAlpha is the concentration parameter the paper uses for
// non-IID class splits; smaller values concentrate each class on fewer
// devices.
const DirichletAlpha = 0.1

// Scenario names a population-level heterogeneity setting.
type Scenario struct {
	// Name identifies the scenario in experiment output.
	Name string
	// NonIIDFraction is the fraction of devices with non-IID data; the
	// remainder hold samples from all classes.
	NonIIDFraction float64
}

// The paper's four data-distribution scenarios.
var (
	IdealIID  = Scenario{Name: "Ideal IID", NonIIDFraction: 0}
	NonIID50  = Scenario{Name: "Non-IID (50%)", NonIIDFraction: 0.50}
	NonIID75  = Scenario{Name: "Non-IID (75%)", NonIIDFraction: 0.75}
	NonIID100 = Scenario{Name: "Non-IID (100%)", NonIIDFraction: 1.00}
)

// Scenarios lists the paper's four settings in order of increasing
// heterogeneity.
func Scenarios() []Scenario {
	return []Scenario{IdealIID, NonIID50, NonIID75, NonIID100}
}

// DeviceData is one device's local dataset summary, as the engine's
// candidate view presents it to a policy.
type DeviceData struct {
	// ClassFraction is the fraction of all classes held locally — the
	// S_Data feature.
	ClassFraction float64
	// Samples is the local training-sample count.
	Samples int
	// Quality is the device's IID-quality score in (0, 1] (see
	// Packed.Quality).
	Quality float64
}
