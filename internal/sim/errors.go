package sim

import (
	"fmt"
	"math"

	"autofl/internal/battery"
)

// ConfigError reports a degenerate Config rejected by NewEngine: an
// empty population, a participant count no population of that size
// can satisfy, a candidate sample smaller than K, and so on. The
// legacy New constructor panics with the same error; callers that can
// receive untrusted configurations should use NewEngine and branch on
// errors.As.
type ConfigError struct {
	// Field names the offending Config field.
	Field string
	// Reason explains the rejection.
	Reason string
}

// Error implements error.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("sim: invalid config: %s: %s", e.Field, e.Reason)
}

func configErrf(field, format string, args ...any) error {
	return &ConfigError{Field: field, Reason: fmt.Sprintf(format, args...)}
}

// checkFinite rejects NaN and ±Inf in every float field of the
// caller's config. It runs before defaulting: NaN compares false
// against every range check in validate, and defaulting would
// silently replace a -Inf.
func (c *Config) checkFinite() error {
	type field struct {
		name string
		v    float64
	}
	fields := []field{
		{"TargetAccuracy", c.TargetAccuracy},
		{"StragglerFactor", c.StragglerFactor},
		{"StalenessAlpha", c.StalenessAlpha},
		{"AggregateDeadlineSec", c.AggregateDeadlineSec},
	}
	if b := c.Battery; b != nil {
		fields = append(fields,
			field{"Battery.CapacityJ", b.CapacityJ},
			field{"Battery.ThresholdJ", b.ThresholdJ},
			field{"Battery.InitialFrac", b.InitialFracLo},
			field{"Battery.InitialFrac", b.InitialFracHi},
			field{"Battery.HarvestW", b.HarvestW},
			field{"Battery.ChargerFrac", b.ChargerFrac},
			field{"Battery.DaySec", b.DaySec},
		)
	}
	for _, f := range fields {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return configErrf(f.name, "%g is not a finite number", f.v)
		}
	}
	return nil
}

// validate rejects degenerate configurations. It runs on the defaulted
// config, so zero-value fields have already been filled in.
func (c *Config) validate() error {
	n := c.Population.Len()
	if n == 0 {
		return configErrf("Population", "empty population: the round engine needs at least one device")
	}
	if c.Params.K <= 0 {
		return configErrf("Params.K", "participant count %d is not positive", c.Params.K)
	}
	if c.Params.B < 0 || c.Params.E < 0 {
		return configErrf("Params", "negative batch size or epoch count (B=%d, E=%d)", c.Params.B, c.Params.E)
	}
	if c.Sample < 0 {
		return configErrf("Sample", "negative candidate-sample size %d", c.Sample)
	}
	if c.Params.K > n {
		return configErrf("Params.K", "participant count %d exceeds the %d-device population", c.Params.K, n)
	}
	if c.Sample < c.Params.K {
		return configErrf("Sample", "candidate sample %d is smaller than Params.K=%d", c.Sample, c.Params.K)
	}
	switch c.Mode {
	case ModeSync, ModeAsync, ModeSemiAsync:
	default:
		return configErrf("Mode", "unknown aggregation mode %q (want sync, async, or semi-async)", c.Mode)
	}
	if c.StalenessAlpha < 0 {
		return configErrf("StalenessAlpha", "negative staleness exponent %g", c.StalenessAlpha)
	}
	if c.Mode == ModeSync && c.StalenessAlpha != 0 {
		return configErrf("StalenessAlpha", "staleness weighting requires an asynchronous Mode")
	}
	if c.Mode != ModeSemiAsync {
		if c.AggregateK != 0 {
			return configErrf("AggregateK", "aggregation quorum requires Mode semi-async")
		}
		if c.AggregateDeadlineSec != 0 {
			return configErrf("AggregateDeadlineSec", "aggregation deadline requires Mode semi-async")
		}
	} else {
		if c.AggregateK < 0 {
			return configErrf("AggregateK", "negative aggregation quorum %d", c.AggregateK)
		}
		if c.AggregateK > c.Params.K {
			return configErrf("AggregateK", "aggregation quorum %d exceeds the in-flight cap Params.K=%d", c.AggregateK, c.Params.K)
		}
		if c.AggregateDeadlineSec < 0 {
			return configErrf("AggregateDeadlineSec", "negative aggregation deadline %gs", c.AggregateDeadlineSec)
		}
	}
	if b := c.Battery; b != nil {
		if b.Harvest != battery.ProfileNone && b.CapacityJ <= 0 {
			return configErrf("Battery.Harvest", "harvesting requires a battery: CapacityJ is %g J", b.CapacityJ)
		}
		if b.CapacityJ <= 0 {
			return configErrf("Battery.CapacityJ", "battery capacity %g J is not positive", b.CapacityJ)
		}
		if b.CapacityJ > math.MaxFloat32 {
			return configErrf("Battery.CapacityJ", "battery capacity %g J overflows the model's float32 charge store", b.CapacityJ)
		}
		switch b.Harvest {
		case battery.ProfileNone, battery.ProfileCharger, battery.ProfileSolar:
		default:
			return configErrf("Battery.Harvest", "unknown harvesting profile %q (want charger or solar-diurnal)", b.Harvest)
		}
		if b.ThresholdJ < 0 {
			return configErrf("Battery.ThresholdJ", "negative participation threshold %g J", b.ThresholdJ)
		}
		if b.ThresholdJ > b.CapacityJ {
			return configErrf("Battery.ThresholdJ", "participation threshold %g J exceeds the %g J capacity: no device could ever participate", b.ThresholdJ, b.CapacityJ)
		}
		if b.InitialFracLo < 0 || b.InitialFracHi > 1 || b.InitialFracLo > b.InitialFracHi {
			return configErrf("Battery.InitialFrac", "initial state-of-charge range [%g, %g] is not within [0, 1]", b.InitialFracLo, b.InitialFracHi)
		}
		if b.HarvestW < 0 {
			return configErrf("Battery.HarvestW", "negative harvest rate %g W", b.HarvestW)
		}
		if b.ChargerFrac < 0 || b.ChargerFrac > 1 {
			return configErrf("Battery.ChargerFrac", "charger fraction %g outside [0, 1]", b.ChargerFrac)
		}
		if b.DaySec < 1 {
			// Shorter periods are below the virtual clock's float32
			// resolution, and a subnormal one overflows the solar
			// phase to ±Inf.
			return configErrf("Battery.DaySec", "diurnal period %g s is under one second", b.DaySec)
		}
	}
	return nil
}
