package sim_test

import (
	"testing"

	"autofl/internal/data"
	"autofl/internal/policy"
	"autofl/internal/sim"
)

// benchmarkAsyncRound measures steady-state asynchronous aggregation
// steps over an n-device population — the async subsystem's headline
// throughput. Construction and partition generation are excluded.
func benchmarkAsyncRound(b *testing.B, mode sim.AggregationMode, n int) {
	sample := 2048
	if sample > n {
		sample = n
	}
	cfg := popConfig(b, n, sample, 1)
	cfg.Mode = mode
	cfg.Data = data.IdealIID
	cfg.MaxRounds = 1 << 20
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
	}
}

func BenchmarkAsyncRound100k(b *testing.B) { benchmarkAsyncRound(b, sim.ModeAsync, 100_000) }
func BenchmarkAsyncRound1M(b *testing.B)   { benchmarkAsyncRound(b, sim.ModeAsync, 1_000_000) }
func BenchmarkSemiAsyncRound1M(b *testing.B) {
	benchmarkAsyncRound(b, sim.ModeSemiAsync, 1_000_000)
}

// benchmarkStragglerWallClock runs a fixed horizon under heavy
// interference and reports the simulated (virtual) wall-clock per
// executed round — the paper-facing comparison of how asynchronous
// aggregation hides stragglers that stall a synchronous barrier.
func benchmarkStragglerWallClock(b *testing.B, mode sim.AggregationMode) {
	const rounds = 200
	virtual := 0.0
	executed := 0
	for i := 0; i < b.N; i++ {
		cfg := stepperConfig(uint64(31+i), rounds)
		cfg.Mode = mode
		cfg.Env = sim.EnvInterference()
		cfg.TargetAccuracy = 1 // run the whole horizon
		run := sim.New(cfg).Start(policy.NewRandom(3))
		for run.Step() {
		}
		last := run.Last()
		virtual += last.VirtualSec
		executed += run.Rounds()
	}
	if executed > 0 {
		b.ReportMetric(virtual/float64(executed), "virtual-sec/round")
	}
}

func BenchmarkStragglerWallClockSync(b *testing.B) {
	benchmarkStragglerWallClock(b, sim.ModeSync)
}
func BenchmarkStragglerWallClockAsync(b *testing.B) {
	benchmarkStragglerWallClock(b, sim.ModeAsync)
}
func BenchmarkStragglerWallClockSemiAsync(b *testing.B) {
	benchmarkStragglerWallClock(b, sim.ModeSemiAsync)
}
