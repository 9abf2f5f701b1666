package sim_test

import (
	"testing"

	"autofl/internal/data"
	"autofl/internal/policy"
	"autofl/internal/sim"
)

// benchmarkPopulationRound measures steady-state sampled rounds over
// an n-device population and reports devices/sec of round throughput —
// the population engine's headline number. Partition generation and
// engine construction are excluded from the timer.
func benchmarkPopulationRound(b *testing.B, n int) {
	sample := 4096
	if sample > n {
		sample = n
	}
	cfg := popConfig(b, n, sample, 1)
	cfg.Data = data.IdealIID
	cfg.MaxRounds = 1 << 16
	cfg.TargetAccuracy = 1 // unreachable: rounds never stop early
	eng := mustEngine(b, cfg)
	run := eng.Start(policy.NewRandom(2))
	if !run.Step() {
		b.Fatal("run ended immediately")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !run.Step() {
			b.StopTimer()
			run = eng.Start(policy.NewRandom(2))
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

func BenchmarkPopulationRound1k(b *testing.B)   { benchmarkPopulationRound(b, 1_000) }
func BenchmarkPopulationRound100k(b *testing.B) { benchmarkPopulationRound(b, 100_000) }
func BenchmarkPopulationRound1M(b *testing.B)   { benchmarkPopulationRound(b, 1_000_000) }

// BenchmarkPopulationRound200 is the paper's testbed: the exhaustive
// round (Sample == N) over the default 200-device fleet, where the
// candidate view is every device in index order.
func BenchmarkPopulationRound200(b *testing.B) {
	cfg := stepperConfig(1, 1<<16)
	cfg.Data = data.IdealIID
	cfg.TargetAccuracy = 1
	run := sim.New(cfg).Start(policy.NewRandom(2))
	if !run.Step() {
		b.Fatal("run ended immediately")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !run.Step() {
			b.StopTimer()
			run = sim.New(cfg).Start(policy.NewRandom(2))
			b.StartTimer()
			if !run.Step() {
				b.Fatal("fresh run ended immediately")
			}
		}
	}
}
