package sim_test

import (
	"testing"

	"autofl/internal/battery"
	"autofl/internal/data"
	"autofl/internal/policy"
	"autofl/internal/sim"
)

// benchmarkBatteryRound measures steady-state sampled rounds with the
// battery subsystem attached — lazy settle, availability gating, and
// the incremental Jain moments all inside the timed loop — and reports
// devices/sec so the overhead over the batteryless population round is
// directly comparable. A solar harvest keeps the fleet cycling rather
// than draining to a gated steady state.
func benchmarkBatteryRound(b *testing.B, n int) {
	sample := 4096
	if sample > n {
		sample = n
	}
	cfg := popConfig(b, n, sample, 1)
	cfg.Data = data.IdealIID
	cfg.MaxRounds = 1 << 16
	cfg.TargetAccuracy = 1 // unreachable: rounds never stop early
	cfg.Battery = &battery.Spec{CapacityJ: 1e6, Harvest: battery.ProfileSolar}
	eng := mustEngine(b, cfg)
	run := eng.Start(policy.NewBatteryWeighted(2))
	if !run.Step() {
		b.Fatal("run ended immediately")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !run.Step() {
			b.StopTimer()
			run = eng.Start(policy.NewBatteryWeighted(2))
			b.StartTimer()
			if !run.Step() {
				b.Fatal("fresh run ended immediately")
			}
		}
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(n)*float64(b.N)/sec, "devices/sec")
		b.ReportMetric(float64(sample)*float64(b.N)/sec, "candidates/sec")
	}
}

func BenchmarkBatteryRound100k(b *testing.B) { benchmarkBatteryRound(b, 100_000) }
func BenchmarkBatteryRound1M(b *testing.B)   { benchmarkBatteryRound(b, 1_000_000) }

// BenchmarkBatteryModelSettle isolates the battery model itself: one
// settle + drain + availability check per device, no engine around it.
func BenchmarkBatteryModelSettle(b *testing.B) {
	const n = 4096
	m := battery.New(battery.Spec{CapacityJ: 1e6, Harvest: battery.ProfileSolar}, 7, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := i % n
		m.SettleAt(g, 0.1, float64(i))
		m.Drain(g, 1.0)
		if m.Available(g) {
			m.Frac(g)
		}
	}
}

// BenchmarkBatteryRound200 is the exhaustive 200-device round
// (Sample == N) with the battery subsystem attached.
func BenchmarkBatteryRound200(b *testing.B) {
	cfg := stepperConfig(1, 1<<16)
	cfg.Data = data.IdealIID
	cfg.TargetAccuracy = 1
	cfg.Battery = &battery.Spec{CapacityJ: 1e6, Harvest: battery.ProfileSolar}
	run := sim.New(cfg).Start(policy.NewBatteryWeighted(2))
	if !run.Step() {
		b.Fatal("run ended immediately")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !run.Step() {
			b.StopTimer()
			run = sim.New(cfg).Start(policy.NewBatteryWeighted(2))
			b.StartTimer()
			if !run.Step() {
				b.Fatal("fresh run ended immediately")
			}
		}
	}
}
