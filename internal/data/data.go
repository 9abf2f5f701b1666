// Package data models federated data heterogeneity: how the training
// classes are distributed over the device population. It implements
// the paper's four distribution scenarios (§5.2) — Ideal IID and
// Non-IID (50% / 75% / 100%) — with non-IID devices receiving class
// proportions drawn from a Dirichlet distribution with concentration
// 0.1, exactly the construction the paper uses.
//
// The output of partitioning is, per device: the set of classes
// present, the fraction of all classes held (the S_Data state feature
// of Table 1), the local sample count, and an "IID quality" score that
// the convergence model consumes.
package data

import (
	"autofl/internal/rng"
)

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

// DeviceData is one device's local dataset summary.
type DeviceData struct {
	// Classes lists the label classes present locally.
	Classes []int
	// ClassFraction is len(Classes) / totalClasses — the S_Data
	// feature.
	ClassFraction float64
	// Samples is the local training-sample count.
	Samples int
	// IID reports whether the device was assigned the IID split.
	IID bool
	// Proportions holds the per-class sample proportions for non-IID
	// devices (indexed by class id); nil for IID devices.
	Proportions []float64
	// Quality, when positive, is a precomputed IIDQuality value. The
	// packed population partition stores per-device quality as one
	// float instead of a Proportions slice; legacy partitions leave it
	// zero and IIDQuality derives the score from Proportions as before.
	Quality float64
}

// IIDQuality scores how well this device's update approximates an
// unbiased gradient, in [0, 1]: 1 for IID devices, and for non-IID
// devices a value that shrinks as the local class distribution
// concentrates. It combines class coverage with the effective number
// of classes (inverse Simpson index) of the local distribution, so a
// device holding 3 classes at (0.98, 0.01, 0.01) scores close to a
// single-class device.
func (d *DeviceData) IIDQuality() float64 {
	if d.IID {
		return 1
	}
	if d.Quality > 0 {
		return d.Quality
	}
	if len(d.Proportions) == 0 {
		return d.ClassFraction
	}
	sumSq := 0.0
	for _, p := range d.Proportions {
		sumSq += p * p
	}
	if sumSq == 0 {
		return 0
	}
	effective := 1 / sumSq // effective number of classes
	total := float64(len(d.Proportions))
	q := effective / total
	if q > 1 {
		q = 1
	}
	return q
}

// Partition assigns local datasets to n devices under the scenario.
// classes is the number of label classes; meanSamples the average
// local sample count. Non-IID devices are chosen uniformly at random,
// and their class proportions are drawn from Dirichlet(alpha). Sample
// counts vary ±30% around the mean, reflecting unbalanced federated
// data.
func Partition(s *rng.Stream, scenario Scenario, n, classes, meanSamples int) []DeviceData {
	if n <= 0 {
		return nil
	}
	out := make([]DeviceData, n)
	nonIIDCount := int(float64(n)*scenario.NonIIDFraction + 0.5)
	nonIID := make(map[int]bool, nonIIDCount)
	for _, idx := range s.Sample(n, nonIIDCount) {
		nonIID[idx] = true
	}
	for i := range out {
		samples := int(s.ClampedNormal(float64(meanSamples), 0.15*float64(meanSamples),
			0.7*float64(meanSamples), 1.3*float64(meanSamples)))
		if samples < 1 {
			samples = 1
		}
		if !nonIID[i] {
			all := make([]int, classes)
			for c := range all {
				all[c] = c
			}
			out[i] = DeviceData{Classes: all, ClassFraction: 1, Samples: samples, IID: true}
			continue
		}
		props := s.Dirichlet(DirichletAlpha, classes)
		// A class is "present" if the device would hold at least one
		// sample of it.
		var present []int
		for c, p := range props {
			if p*float64(samples) >= 1 {
				present = append(present, c)
			}
		}
		if len(present) == 0 {
			// Degenerate draw: keep the single largest class.
			best := 0
			for c, p := range props {
				if p > props[best] {
					best = c
				}
			}
			present = []int{best}
		}
		out[i] = DeviceData{
			Classes:       present,
			ClassFraction: float64(len(present)) / float64(classes),
			Samples:       samples,
			IID:           false,
			Proportions:   props,
		}
	}
	return out
}

// MeanIIDQuality averages IIDQuality over a population — a scalar
// summary used by tests and experiment output.
func MeanIIDQuality(devices []DeviceData) float64 {
	if len(devices) == 0 {
		return 0
	}
	total := 0.0
	for i := range devices {
		total += devices[i].IIDQuality()
	}
	return total / float64(len(devices))
}
