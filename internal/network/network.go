// Package network models the wireless link of each FL device: Gaussian
// bandwidth variability (the paper cites Gaussian modeling of real
// network behavior, §5.2), signal-strength tiers that drive the Eq (3)
// transmit-power model, and communication-time accounting for gradient
// payloads.
package network

import (
	"autofl/internal/power"
	"autofl/internal/rng"
)

// RegularBandwidthMbps is the Table 1 threshold separating "regular"
// from "bad" network conditions (S_Network).
const RegularBandwidthMbps = 40.0

// Profile describes the distribution a device's bandwidth is drawn
// from each round.
type Profile struct {
	// Name identifies the profile in experiment output.
	Name string
	// MeanMbps and StdMbps parameterize the Gaussian bandwidth draw.
	MeanMbps, StdMbps float64
	// MinMbps and MaxMbps clamp the draw to physical limits.
	MinMbps, MaxMbps float64
	// BaseLatencySec is the fixed per-transfer protocol overhead
	// (connection setup, aggregation-server queuing).
	BaseLatencySec float64
}

// Stable is a strong Wi-Fi-class link with low variance — the paper's
// "stable network signal strength" environment (Fig 5a).
func Stable() Profile {
	return Profile{Name: "stable", MeanMbps: 110, StdMbps: 8, MinMbps: 60, MaxMbps: 150, BaseLatencySec: 0.5}
}

// Variable is an in-the-field link whose bandwidth fluctuates round to
// round — the default deployment condition.
func Variable() Profile {
	return Profile{Name: "variable", MeanMbps: 70, StdMbps: 30, MinMbps: 8, MaxMbps: 150, BaseLatencySec: 0.8}
}

// Weak is the poor-signal environment of Fig 5c: low mean bandwidth,
// most draws under the Table 1 "bad" threshold.
func Weak() Profile {
	return Profile{Name: "weak", MeanMbps: 18, StdMbps: 9, MinMbps: 3, MaxMbps: 45, BaseLatencySec: 1.5}
}

// Sample draws this round's bandwidth for one device.
func (p Profile) Sample(s *rng.Stream) float64 {
	return s.ClampedNormal(p.MeanMbps, p.StdMbps, p.MinMbps, p.MaxMbps)
}

// SignalFor maps an observed bandwidth to the signal-strength tier
// that determines transmit power (Eq 3). The mapping mirrors Table 1's
// two-bucket S_Network feature with an extra "fair" band so energy
// degrades smoothly.
func SignalFor(mbps float64) power.Signal {
	switch {
	case mbps > 70:
		return power.SignalGood
	case mbps > RegularBandwidthMbps:
		return power.SignalFair
	default:
		return power.SignalPoor
	}
}

// CommSeconds returns the time to move payloadBytes over a link of the
// given bandwidth, including the profile's fixed base latency. FL
// rounds move the model down and the gradients up, so callers pass the
// combined payload.
func (p Profile) CommSeconds(payloadBytes, mbps float64) float64 {
	if payloadBytes <= 0 {
		return p.BaseLatencySec
	}
	if mbps < p.MinMbps {
		mbps = p.MinMbps
	}
	bitsPerSec := mbps * 1e6
	return p.BaseLatencySec + (payloadBytes*8)/bitsPerSec
}
