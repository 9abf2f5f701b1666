package sim_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"autofl/internal/battery"
	"autofl/internal/device"
	"autofl/internal/policy"
	"autofl/internal/sim"
)

// fuzzBytes decodes a fuzz input field by field; reads past the end
// yield zeros, so every input decodes to some Config.
type fuzzBytes []byte

func (b *fuzzBytes) u8() uint8 {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

func (b *fuzzBytes) u16() uint16 { return uint16(b.u8())<<8 | uint16(b.u8()) }

// f64 draws a float biased toward the values a config check must
// handle: zero (the default), small positive and negative magnitudes,
// NaN, ±Inf, extremes, and arbitrary bit patterns.
func (b *fuzzBytes) f64() float64 {
	switch b.u8() % 8 {
	case 0:
		return 0
	case 1:
		return float64(b.u16()) / 16
	case 2:
		return -float64(b.u16()) / 16
	case 3:
		return math.NaN()
	case 4:
		return math.Inf(1 - 2*int(b.u8()%2))
	case 5:
		return 1e300
	case 6:
		return 1e-300
	default:
		var raw [8]byte
		for i := range raw {
			raw[i] = b.u8()
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
	}
}

// fuzzConfig decodes an input into a Config of at most 4,096 devices
// and 20 rounds, with every aggregation and battery knob in play.
func fuzzConfig(in []byte) sim.Config {
	b := fuzzBytes(in)
	cfg := sim.Config{Seed: uint64(b.u16())}
	high, mid, low := int(b.u16()%1366), int(b.u16()%1366), int(b.u16()%1366)
	if pop, err := device.NewPopulation(high, mid, low); err == nil {
		cfg.Population = pop
	} else {
		cfg.Population = &device.Population{} // empty: a ConfigError
	}
	cfg.Sample = int(int16(b.u16()))
	cfg.MaxRounds = 1 + int(b.u8()%20)
	cfg.StragglerFactor = b.f64()
	cfg.Mode = [...]sim.AggregationMode{"", sim.ModeSync, sim.ModeAsync, sim.ModeSemiAsync, "bogus"}[b.u8()%5]
	cfg.StalenessAlpha = b.f64()
	cfg.AggregateK = int(int8(b.u8()))
	cfg.AggregateDeadlineSec = b.f64()
	if b.u8()%2 == 1 {
		cfg.Battery = &battery.Spec{
			CapacityJ:     b.f64(),
			ThresholdJ:    b.f64(),
			InitialFracLo: b.f64(),
			InitialFracHi: b.f64(),
			Harvest:       [...]battery.Profile{battery.ProfileNone, battery.ProfileCharger, battery.ProfileSolar, "bogus"}[b.u8()%4],
			HarvestW:      b.f64(),
			ChargerFrac:   b.f64(),
			DaySec:        b.f64(),
		}
	}
	return cfg
}

// nonFinite names the first NaN or infinite float64 field of a struct,
// or returns "" when every one is finite.
func nonFinite(v any) string {
	rv := reflect.ValueOf(v)
	for i := 0; i < rv.NumField(); i++ {
		if f := rv.Field(i); f.Kind() == reflect.Float64 && (math.IsNaN(f.Float()) || math.IsInf(f.Float(), 0)) {
			return fmt.Sprintf("%s=%v", rv.Type().Field(i).Name, f.Float())
		}
	}
	return ""
}

// FuzzNewEngine feeds arbitrary configurations to the engine: each
// must either be rejected with a *ConfigError or run to its horizon
// under the Random policy without panicking, with every per-round
// record and the run totals finite.
func FuzzNewEngine(f *testing.F) {
	f.Add([]byte{})
	// 300 devices, sampled 64, 10 rounds, defaults elsewhere.
	f.Add([]byte{0, 1, 0, 50, 0, 100, 0, 150, 0, 64, 9, 0, 1, 0, 0, 0, 0})
	// Async with α = 1, 12 rounds.
	f.Add([]byte{0, 2, 0, 30, 0, 70, 0, 100, 0, 0, 11, 0, 2, 1, 0, 16, 0, 0, 0})
	// Semi-async, quorum 5, 2 s deadline.
	f.Add([]byte{0, 3, 0, 30, 0, 70, 0, 100, 0, 0, 7, 0, 3, 0, 5, 1, 0, 32, 0})
	// Solar battery with a 500 J capacity.
	f.Add([]byte{0, 4, 0, 30, 0, 70, 0, 100, 0, 0, 15, 0, 0, 0, 0, 0, 1, 1, 31, 64, 0, 0, 0, 2, 0, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		cfg := fuzzConfig(in)
		e, err := sim.NewEngine(cfg)
		if err != nil {
			var ce *sim.ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("NewEngine error %v is not a *ConfigError", err)
			}
			return
		}
		horizon := e.Config().MaxRounds
		run := e.Start(policy.NewRandom(cfg.Seed))
		for run.Step() {
			ev := run.Last()
			if bad := nonFinite(ev); bad != "" {
				t.Fatalf("round %d: %s", ev.Round, bad)
			}
		}
		res := run.Result()
		if bad := nonFinite(*res); bad != "" {
			t.Fatalf("result: %s", bad)
		}
		if g, l := res.GlobalPPW(), res.LocalPPW(); math.IsNaN(g+l) || math.IsInf(g+l, 0) {
			t.Fatalf("PPW global=%v local=%v", g, l)
		}
		if res.Battery != nil {
			if bad := nonFinite(*res.Battery); bad != "" {
				t.Fatalf("battery: %s", bad)
			}
		}
		if res.Converged {
			if res.ConvergedRound != res.Rounds {
				t.Fatalf("converged at round %d but ran %d", res.ConvergedRound, res.Rounds)
			}
		} else if res.Rounds != horizon {
			t.Fatalf("ran %d of %d rounds without converging", res.Rounds, horizon)
		}
	})
}
